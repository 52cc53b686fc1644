// corridor_backend: the city backend behind a corridor of pole readers.
//
// Eight readers stand 30 m apart on one side of a two-lane road. Vehicles
// with known CFOs, positions and speeds drive through in both directions.
// Set-up pre-encodes each reader's per-second v3 batch (a count, one
// sighting per vehicle in range, a decode when a vehicle enters range);
// about 10% of batches are delivered again a tick later (retransmits)
// and 5% arrive a tick late, behind their successor (reordered). An op is
// one 1 s backend tick: ingestBatch for every frame delivered in that
// tick, then fuse(now), then pairSpeeds(now). No reader DSP runs.
//
// Sighting angles are the true angle from each reader's road-parallel
// pair to the vehicle plus noise. Set-up verifies that rule against the
// real reader path (sim capture -> analyze -> AoA) at a few positions.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/units.hpp"
#include "net/backend.hpp"
#include "obs/metrics.hpp"
#include "perfbench.hpp"
#include "phy/cfo.hpp"
#include "scenes.hpp"
#include "sim/medium.hpp"

namespace perfbench {
namespace {

using namespace caraoke;

constexpr std::size_t kReaders = 8;
constexpr double kPoleSpacing = 30.0;
constexpr double kEntryX = -40.0;
constexpr double kExitX = (kReaders - 1) * kPoleSpacing + 40.0;
constexpr double kHeadwaySec = 3.0;
constexpr double kAngleNoiseRad = deg2rad(1.0);
constexpr double kCfoNoiseHz = 150.0;
constexpr double kDuplicateShare = 0.10;
constexpr double kReorderShare = 0.05;
/// A fused fix within this distance of the true position is correct.
constexpr double kFixRadiusM = 3.0;
/// A speed estimate within this share of the true speed is correct.
constexpr double kSpeedTolerance = 0.10;
/// Traffic check tolerances: synthesized vs measured sighting. Measured
/// errors stay under 0.8 deg and 130 Hz (seeds 1-6).
constexpr double kCheckAngleTolRad = deg2rad(2.0);
constexpr double kCheckCfoTolHz = 500.0;
/// Check devices keep this far from the band edges (two FFT bins).
constexpr double kEdgeGuardHz = 2.0 / phy::kResponseDuration;

struct Vehicle {
  double cfoHz = 0.0;
  double entryTime = 0.0;
  double speed = 0.0;  ///< Signed along-road speed [m/s].
  double y = 0.0;
  phy::TransponderId id{};

  phy::Vec3 positionAt(double t) const {
    const double x0 = speed > 0.0 ? kEntryX : kExitX;
    return {x0 + speed * (t - entryTime), y, 1.2};
  }
  bool onRoad(double t) const {
    const double x = positionAt(t).x;
    return t >= entryTime && x >= kEntryX && x <= kExitX;
  }
};

struct Delivery {
  std::size_t frame = 0;
  bool duplicate = false;
};

struct Frame {
  std::vector<std::uint8_t> bytes;
  std::size_t messages = 0;
};

net::BackendConfig backendConfig() {
  net::BackendConfig config;
  // Short speed-sample retention, so the pairing state reaches steady
  // state within the warm-up ticks.
  config.speedWindowSec = 30.0;
  return config;
}

class CorridorBackend final : public Workload {
 public:
  CorridorBackend() {
    for (std::size_t r = 0; r < kReaders; ++r) {
      nodes_.push_back(bench::makeReader(static_cast<double>(r) * kPoleSpacing));
      geometries_.push_back(bench::geometryFor(nodes_.back()));
    }
    roadPair_ = roadPairOf(geometries_.front());
  }

  void synthesize(std::uint64_t seed, std::size_t units,
                  Tracer& tracer) override {
    Rng rng(seed ^ 0xc0de'0000'0000'0000ull);
    makeTraffic(rng, static_cast<double>(units));
    trafficCheckOk_ = trafficCheck(rng, tracer);
    encodeBatches(rng, units);
  }

  std::uint64_t inputDigest() const override {
    std::uint64_t h = fnv1a(nullptr, 0);
    for (const Frame& f : frames_)
      h = fnv1a(f.bytes.data(), f.bytes.size(), h);
    for (const auto& tick : deliveries_)
      for (const Delivery& d : tick) h = fnv1a(&d.frame, sizeof d.frame, h);
    return h;
  }

  void resetPipeline() override {
    backend_ = std::make_unique<net::Backend>(backendConfig());
    for (std::size_t r = 0; r < kReaders; ++r)
      backend_->registerReader(static_cast<std::uint32_t>(r + 1),
                               geometries_[r]);
    startCounting();
  }

  void startCounting() override {
    ticks_ = framesIngested_ = dedups_ = injectedDups_ = fixes_ = fixesOk_ =
        speeds_ = speedsOk_ = 0;
    pendingSum_ = retainedSum_ = 0.0;
    gapsAtStart_ = gapsOpened();
  }

  OpOutcome runOp(std::size_t index, Tracer& tracer) override {
    OpOutcome outcome;
    const double now = static_cast<double>(index);
    for (const Delivery& d : deliveries_[index]) {
      const auto ingested = [&] {
        SpanScope span(tracer, "net.backend.ingest");
        return backend_->ingestBatch(frames_[d.frame].bytes);
      }();
      ++framesIngested_;
      if (d.duplicate) ++injectedDups_;
      if (!ingested.ok()) {
        outcome.ok = false;
        continue;
      }
      const net::BatchIngestStats& stats = ingested.value();
      if (stats.deduplicated) ++dedups_;
      const std::size_t expected = d.duplicate ? 0 : frames_[d.frame].messages;
      if (stats.deduplicated != d.duplicate || stats.accepted != expected)
        outcome.ok = false;
      outcome.work += static_cast<double>(stats.accepted);
    }

    pendingSum_ += static_cast<double>(backend_->pendingSightings());
    const auto fixes = [&] {
      SpanScope span(tracer, "net.backend.fuse");
      return backend_->fuse(now);
    }();
    const auto speeds = [&] {
      SpanScope span(tracer, "net.backend.pair");
      return backend_->pairSpeeds(now);
    }();
    retainedSum_ += static_cast<double>(backend_->pendingSpeedSamples());

    for (const net::FusedFix& fix : fixes) {
      const phy::Vec3& p = fix.position;
      if (!std::isfinite(p.x) || !std::isfinite(p.y) || !std::isfinite(p.z)) {
        outcome.ok = false;
        continue;
      }
      ++fixes_;
      const Vehicle* v = nearestVehicle(fix.cfoHz, fix.timestamp);
      if (v != nullptr) {
        const phy::Vec3 truth = v->positionAt(fix.timestamp);
        if (std::hypot(p.x - truth.x, p.y - truth.y) <= kFixRadiusM)
          ++fixesOk_;
      }
    }
    for (const net::SpeedFix& fix : speeds) {
      if (!std::isfinite(fix.speedMps)) {
        outcome.ok = false;
        continue;
      }
      ++speeds_;
      const Vehicle* v = nearestVehicle(fix.cfoHz, fix.abeamTimeA);
      if (v != nullptr &&
          std::abs(fix.speedMps - v->speed) <= kSpeedTolerance *
                                                   std::abs(v->speed))
        ++speedsOk_;
    }
    ++ticks_;
    return outcome;
  }

  bool finalCheck() override {
    bool ok = trafficCheckOk_ && dedups_ == injectedDups_;
    for (std::size_t r = 0; r < kReaders; ++r)
      if (backend_->gapCount(static_cast<std::uint32_t>(r + 1)) != 0)
        ok = false;
    if (!ok)
      std::fprintf(stderr,
                   "corridor check failed: traffic=%d dedup=%zu/%zu\n",
                   trafficCheckOk_ ? 1 : 0, dedups_, injectedDups_);
    return ok;
  }

  double qualityPct() const override {
    return fixes_ > 0 ? 100.0 * static_cast<double>(fixesOk_) /
                            static_cast<double>(fixes_)
                      : 0.0;
  }

  Counts counts() const override {
    const double ticks = static_cast<double>(std::max<std::size_t>(ticks_, 1));
    return {
        {"net.backend.ingest.dedup_ratio",
         static_cast<double>(dedups_) /
             static_cast<double>(std::max<std::size_t>(framesIngested_, 1))},
        {"net.backend.ingest.gaps",
         static_cast<double>(gapsOpened() - gapsAtStart_)},
        {"net.backend.fuse.pending_mean", pendingSum_ / ticks},
        {"net.backend.fuse.fixes", static_cast<double>(fixes_)},
        {"net.backend.fuse.fix_ok_ratio",
         static_cast<double>(fixesOk_) /
             static_cast<double>(std::max<std::size_t>(fixes_, 1))},
        {"net.backend.pair.samples_retained", retainedSum_ / ticks},
        {"net.backend.pair.speed_ok_ratio",
         static_cast<double>(speedsOk_) /
             static_cast<double>(std::max<std::size_t>(speeds_, 1))},
    };
  }

 private:
  static std::uint64_t gapsOpened() {
    return obs::globalRegistry().counter("net.backend.seq_gaps_opened").value();
  }

  void makeTraffic(Rng& rng, double duration) {
    const phy::EmpiricalCfoModel cfoModel;
    const double lo = nodes_.front().frontEnd.sampling.loFrequencyHz;
    const sim::Road road;
    vehicles_.clear();
    for (const bool forward : {true, false}) {
      // A steady stream: one vehicle per headway, starting early enough
      // that the corridor is already full at t = 0.
      for (double t = -30.0 + rng.uniform(0.0, kHeadwaySec); t < duration;
           t += kHeadwaySec) {
        Vehicle v;
        v.cfoHz = cfoModel.drawCarrierHz(rng) - lo;
        v.entryTime = t;
        v.speed = (forward ? 1.0 : -1.0) * rng.uniform(12.0, 18.0);
        v.y = road.laneCenterY(0, forward);
        v.id = phy::Packet::randomId(rng);
        vehicles_.push_back(v);
      }
    }
  }

  bool inRange(std::size_t reader, const phy::Vec3& p) const {
    return phy::distance(p, nodes_[reader].pole.arrayCenter()) <=
           phy::kReaderRangeMeters;
  }

  /// The vehicle on the road at time t whose CFO is nearest `cfoHz`.
  const Vehicle* nearestVehicle(double cfoHz, double t) const {
    const Vehicle* best = nullptr;
    double gap = 1e18;
    for (const Vehicle& v : vehicles_) {
      if (!v.onRoad(t)) continue;
      const double g = std::abs(v.cfoHz - cfoHz);
      if (g < gap) {
        gap = g;
        best = &v;
      }
    }
    return best;
  }

  /// Run a few corridor positions through the real reader path and
  /// compare with the synthesized sighting rule.
  bool trafficCheck(Rng& rng, Tracer& tracer) {
    const phy::EmpiricalCfoModel cfoModel;
    const sim::MultipathConfig multipath;
    const core::SpectrumAnalyzer analyzer;
    const sim::ReaderNode& node = nodes_[1];
    const double lo = node.frontEnd.sampling.loFrequencyHz;
    const sim::Road road;
    bool seen = true;  // every position produced an observation
    double maxAngleErr = 0.0, maxCfoErr = 0.0;
    for (const double dx : {-20.0, -8.0, 8.0, 20.0}) {
      // The analyzer does not detect a carrier within a bin or so of the
      // reader's LO (CFO ~ 0). That blind spot is not what this check is
      // about, so its devices keep clear of the band edges.
      sim::Transponder device = sim::Transponder::random(cfoModel, rng);
      while (device.carrierHz() - lo < kEdgeGuardHz ||
             phy::kCarrierMaxHz - device.carrierHz() < kEdgeGuardHz)
        device = sim::Transponder::random(cfoModel, rng);
      const double cfo = device.carrierHz() - lo;
      const phy::Vec3 pos{node.pole.base.x + dx, road.laneCenterY(0, dx < 0),
                          1.2};
      core::AoaAggregator aggregator(geometries_[1]);
      double cfoSum = 0.0;
      std::size_t hits = 0;
      for (std::size_t q = 0; q < 4; ++q) {
        sim::Capture capture;
        {
          SpanScope span(tracer, "sim.capture");
          capture = sim::captureIsolated(node, device, pos, multipath, rng);
        }
        const auto observations = analyzer.analyze(capture.antennaSamples);
        const core::TransponderObservation* best = nullptr;
        for (const auto& obs : observations)
          if (best == nullptr ||
              std::abs(obs.cfoHz - cfo) < std::abs(best->cfoHz - cfo))
            best = &obs;
        if (best == nullptr) continue;
        aggregator.add(*best);
        cfoSum += best->cfoHz;
        ++hits;
      }
      if (hits == 0) {
        seen = false;
        continue;
      }
      const double measured =
          aggregator.result(lo).perPair.at(roadPair_).angleRad;
      const double synthesized = node.array().trueAngle(roadPair_, pos);
      maxAngleErr =
          std::max(maxAngleErr, std::abs(measured - synthesized));
      maxCfoErr = std::max(
          maxCfoErr, std::abs(cfoSum / static_cast<double>(hits) - cfo));
    }
    const bool ok = seen && maxAngleErr <= kCheckAngleTolRad &&
                    maxCfoErr <= kCheckCfoTolHz;
    if (!ok)
      std::fprintf(stderr,
                   "traffic check failed: angle error %.2f deg, CFO error "
                   "%.0f Hz\n",
                   rad2deg(maxAngleErr), maxCfoErr);
    return ok;
  }

  void encodeBatches(Rng& rng, std::size_t ticks) {
    frames_.clear();
    deliveries_.assign(ticks, {});
    std::vector<std::vector<bool>> seen(
        kReaders, std::vector<bool>(vehicles_.size(), false));
    std::vector<std::vector<Delivery>> late(ticks);
    for (std::size_t t = 0; t < ticks; ++t) {
      const double now = static_cast<double>(t);
      for (std::size_t r = 0; r < kReaders; ++r) {
        const auto readerId = static_cast<std::uint32_t>(r + 1);
        const obs::TraceContext trace{rng.next() | 1ull, rng.next() | 1ull};
        std::vector<net::Message> messages;
        std::uint32_t count = 0;
        for (std::size_t i = 0; i < vehicles_.size(); ++i) {
          const Vehicle& v = vehicles_[i];
          if (!v.onRoad(now)) continue;
          const phy::Vec3 pos = v.positionAt(now);
          if (!inRange(r, pos)) continue;
          ++count;
          net::SightingReport s;
          s.readerId = readerId;
          s.timestamp = now;
          s.cfoHz = v.cfoHz + rng.gaussian(0.0, kCfoNoiseHz);
          s.pairIndex = static_cast<std::uint32_t>(roadPair_);
          s.angleRad = std::clamp(nodes_[r].array().trueAngle(roadPair_, pos) +
                                      rng.gaussian(0.0, kAngleNoiseRad),
                                  0.0, kPi);
          s.peakMagnitude = 1.0;
          s.traceId = trace.traceId;
          s.spanId = trace.spanId;
          messages.push_back(s);
          if (!seen[r][i]) {
            seen[r][i] = true;
            messages.push_back(net::DecodeReport{readerId, now, v.cfoHz, v.id,
                                                 trace.traceId, trace.spanId});
          }
        }
        messages.insert(messages.begin(),
                        net::CountReport{readerId, now, count, trace.traceId,
                                         trace.spanId});
        const auto seq = static_cast<std::uint32_t>(t + 1);
        frames_.push_back(
            {net::encodeBatchV3({readerId, seq}, messages), messages.size()});
        const std::size_t frame = frames_.size() - 1;
        const bool last = t + 1 == ticks;
        if (!last && rng.chance(kReorderShare))
          late[t + 1].push_back({frame, false});
        else
          deliveries_[t].push_back({frame, false});
        if (!last && rng.chance(kDuplicateShare))
          late[t + 1].push_back({frame, true});
      }
      // Late frames arrive behind the tick's on-time ones.
      deliveries_[t].insert(deliveries_[t].end(), late[t].begin(),
                            late[t].end());
    }
  }

  std::vector<sim::ReaderNode> nodes_;
  std::vector<core::ArrayGeometry> geometries_;
  std::size_t roadPair_ = 0;
  std::vector<Vehicle> vehicles_;
  std::vector<Frame> frames_;
  std::vector<std::vector<Delivery>> deliveries_;
  bool trafficCheckOk_ = true;
  std::unique_ptr<net::Backend> backend_;

  std::size_t ticks_ = 0, framesIngested_ = 0, dedups_ = 0,
              injectedDups_ = 0, fixes_ = 0, fixesOk_ = 0, speeds_ = 0,
              speedsOk_ = 0;
  double pendingSum_ = 0.0, retainedSum_ = 0.0;
  std::uint64_t gapsAtStart_ = 0;
};

}  // namespace

std::unique_ptr<Workload> makeCorridorBackend() {
  return std::make_unique<CorridorBackend>();
}

}  // namespace perfbench
