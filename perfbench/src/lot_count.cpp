// lot_count: dense parking-lot measurement windows.
//
// Each scene is one pole reader over a lot of m = 25..30 parked
// transponders; each window is Q = 8 three-antenna queries. An op follows
// ReaderDaemon::measurementWindow from outside (the daemon queries its
// scene itself and cannot replay recorded captures): count on antenna 0,
// analyze every query, aggregate AoA per counted spike on the daemon's
// road pair, update the tracker, push the reports through the outbox and
// ingest the reader's own frame at the backend. No decoding.
//
// Why m >= 25: below it, the counter's first pass finds fewer than
// denseSceneSpikes (22) spikes in many windows and skips its second,
// dense-scene CFAR pass, so op times split into two modes ~11 ms apart
// and the median falls between them. At 25..30 almost every window takes
// the dense path (core.counter.dense_ratio).
#include <algorithm>
#include <cmath>

#include "core/counter.hpp"
#include "core/tracker.hpp"
#include "net/backend.hpp"
#include "net/outbox.hpp"
#include "obs/metrics.hpp"
#include "perfbench.hpp"
#include "phy/cfo.hpp"
#include "scenes.hpp"
#include "sim/scene.hpp"

namespace perfbench {
namespace {

using namespace caraoke;

constexpr std::size_t kWindowsPerScene = 2;
constexpr std::size_t kQueries = 8;
constexpr std::size_t kMinCars = 25;
constexpr std::size_t kMaxCars = 30;
/// A window whose estimate is off by more than this share of the true
/// count has failed (Fig 11's 90th-percentile error is under 5%).
constexpr double kCountFailShare = 0.5;

struct Window {
  std::size_t scene = 0;
  std::size_t trueCount = 0;
  std::vector<std::vector<dsp::CVec>> captures;  ///< [query][antenna]
  std::vector<dsp::CVec> primary;                ///< antenna 0 per query
};

/// The stateful half of one scene's reader.
struct Reader {
  std::uint32_t readerId = 0;
  double now = 0.0;
  core::TransponderTracker tracker;
  net::Outbox outbox;
  Reader(std::uint32_t id, const core::TrackerConfig& config)
      : readerId(id),
        tracker(config),
        outbox(net::OutboxConfig{.readerId = id}, Rng(0xb0c5'0000ull + id)) {}
};

core::MultiQueryCounterConfig counterConfig(const sim::ReaderNode& node) {
  core::MultiQueryCounterConfig config;
  config.noiseSigma = node.frontEnd.noiseSigma;
  return config;
}

class LotCount final : public Workload {
 public:
  LotCount()
      : node_(bench::makeReader(0.0)),
        counter_(counterConfig(node_)),
        geometry_(bench::geometryFor(node_)),
        roadPair_(roadPairOf(geometry_)) {}

  void synthesize(std::uint64_t seed, std::size_t units,
                  Tracer& tracer) override {
    Rng rng(seed);
    const phy::EmpiricalCfoModel cfoModel;
    const std::size_t scenes =
        (units + kWindowsPerScene - 1) / kWindowsPerScene;
    windows_.clear();
    windows_.reserve(units);
    for (std::size_t s = 0; s < scenes && windows_.size() < units; ++s) {
      sim::Scene scene(sim::Road{});
      scene.addReader(node_);
      // m is stratified over the scenes, so every seed covers the range
      // evenly and op-time medians do not hinge on the seed's draw of m.
      const std::size_t cars =
          kMinCars + s * (kMaxCars - kMinCars + 1) / scenes;
      for (std::size_t c = 0; c < cars; ++c) {
        sim::Transponder device = sim::Transponder::random(cfoModel, rng);
        const phy::Vec3 pos{rng.uniform(-20.0, 20.0), rng.uniform(2.0, 14.0),
                            1.2};
        scene.addCar(std::move(device),
                     std::make_unique<sim::ParkedMobility>(pos));
      }
      for (std::size_t w = 0;
           w < kWindowsPerScene && windows_.size() < units; ++w) {
        const double t = static_cast<double>(w);
        Window window;
        window.scene = s;
        window.trueCount = scene.trueCount(0, t);
        for (std::size_t q = 0; q < kQueries; ++q) {
          SpanScope span(tracer, "sim.capture");
          window.captures.push_back(scene.query(0, t, rng).antennaSamples);
        }
        for (const auto& antennas : window.captures)
          window.primary.push_back(antennas.front());
        windows_.push_back(std::move(window));
      }
    }
    scenes_ = scenes;
  }

  std::uint64_t inputDigest() const override {
    std::uint64_t h = fnv1a(nullptr, 0);
    for (const Window& w : windows_) {
      h = fnv1a(&w.trueCount, sizeof w.trueCount, h);
      for (const auto& antennas : w.captures)
        for (const dsp::CVec& samples : antennas)
          h = fnv1a(samples.data(), samples.size() * sizeof(dsp::cdouble), h);
    }
    return h;
  }

  void resetPipeline() override {
    readers_.clear();
    backend_ = std::make_unique<net::Backend>();
    for (std::size_t s = 0; s < scenes_; ++s) {
      const auto id = static_cast<std::uint32_t>(s + 1);
      readers_.push_back(std::make_unique<Reader>(id, trackerConfig_));
      backend_->registerReader(id, geometry_);
    }
    startCounting();
  }

  void startCounting() override {
    windowsCounted_ = exact_ = queries_ = observations_ = 0;
    absErr_ = accuracy_ = confirmed_ = bytes_ = 0.0;
    repassesAtStart_ = repasses();
  }

  OpOutcome runOp(std::size_t index, Tracer& tracer) override {
    const Window& window = windows_[index % windows_.size()];
    Reader& reader = *readers_[window.scene];
    const double now = reader.now;
    reader.now += 1.0;
    const double lo = node_.frontEnd.sampling.loFrequencyHz;
    OpOutcome outcome;

    const core::CountResult count = [&] {
      SpanScope span(tracer, "core.counter");
      return counter_.count(window.primary);
    }();
    std::vector<net::Message> messages;
    messages.push_back(net::CountReport{
        reader.readerId, now, static_cast<std::uint32_t>(count.estimate)});

    std::vector<std::vector<core::TransponderObservation>> perQuery;
    perQuery.reserve(window.captures.size());
    for (const auto& antennas : window.captures) {
      SpanScope span(tracer, "core.analyze");
      perQuery.push_back(analyzer_.analyze(antennas));
    }

    // Per counted spike: the nearest observation of each query feeds one
    // circular-mean AoA (the daemon's association rule).
    const auto& sampling = node_.frontEnd.sampling;
    std::vector<core::TrackerObservation> feed;
    std::vector<const core::TransponderObservation*> matched;
    for (const std::size_t bin : count.bins) {
      const double spikeCfo = static_cast<double>(bin) * sampling.sampleRateHz /
                              static_cast<double>(sampling.responseSamples());
      matched.clear();
      for (const auto& observations : perQuery) {
        const core::TransponderObservation* best = nullptr;
        double gap = 4e3;
        for (const auto& obs : observations) {
          const double g = std::abs(obs.cfoHz - spikeCfo);
          if (g < gap) {
            gap = g;
            best = &obs;
          }
        }
        if (best != nullptr) matched.push_back(best);
      }
      if (matched.empty()) continue;
      const core::AoaResult aoa = [&] {
        SpanScope span(tracer, "core.aoa");
        core::AoaAggregator aggregator(geometry_);
        for (const auto* obs : matched) aggregator.add(*obs);
        return aggregator.result(lo);
      }();
      double magnitude = 0.0, cfo = 0.0;
      for (const auto* obs : matched) {
        magnitude += obs->peakMagnitude;
        cfo += obs->cfoHz;
      }
      const auto n = static_cast<double>(matched.size());
      feed.push_back({cfo / n, std::cos(aoa.perPair.at(roadPair_).angleRad),
                      magnitude / n});
    }
    {
      SpanScope span(tracer, "core.tracker");
      reader.tracker.update(now, feed);
    }
    std::size_t confirmed = 0;
    for (const core::Track& track : reader.tracker.tracks()) {
      if (!track.confirmed(trackerConfig_.confirmHits)) continue;
      ++confirmed;
      if (track.lastSeen < now) continue;
      net::SightingReport sighting;
      sighting.readerId = reader.readerId;
      sighting.timestamp = now;
      sighting.cfoHz = track.cfoHz;
      sighting.pairIndex = static_cast<std::uint32_t>(roadPair_);
      sighting.angleRad = std::acos(std::clamp(track.cosAlpha, -1.0, 1.0));
      messages.push_back(sighting);
    }

    std::vector<net::OutboxTransmission> transmissions;
    {
      SpanScope span(tracer, "net.outbox");
      for (const net::Message& m : messages) reader.outbox.add(m);
      reader.outbox.seal(now);
      transmissions = reader.outbox.collectTransmissions(now);
    }
    std::size_t frameBytes = 0;
    if (transmissions.size() != 1) outcome.ok = false;
    for (const auto& tx : transmissions) {
      frameBytes += tx.frame.size();
      const auto ingested = [&] {
        SpanScope span(tracer, "net.backend.ingest");
        return backend_->ingestBatch(tx.frame);
      }();
      if (!ingested.ok() || ingested.value().deduplicated ||
          ingested.value().accepted != messages.size())
        outcome.ok = false;
      SpanScope span(tracer, "net.outbox");
      if (!reader.outbox.onAck(tx.seq, now)) outcome.ok = false;
    }

    const double m = static_cast<double>(window.trueCount);
    const double err = std::abs(static_cast<double>(count.estimate) - m);
    if (err > kCountFailShare * m) outcome.ok = false;
    ++windowsCounted_;
    if (count.estimate == window.trueCount) ++exact_;
    absErr_ += err;
    accuracy_ += 100.0 * (1.0 - err / m);
    queries_ += perQuery.size();
    for (const auto& observations : perQuery)
      observations_ += observations.size();
    confirmed_ += static_cast<double>(confirmed);
    bytes_ += static_cast<double>(frameBytes);
    outcome.work = 1.0;
    return outcome;
  }

  double qualityPct() const override {
    return windowsCounted_ > 0
               ? accuracy_ / static_cast<double>(windowsCounted_)
               : 0.0;
  }

  Counts counts() const override {
    const double n = static_cast<double>(std::max<std::size_t>(
        windowsCounted_, 1));
    return {
        {"core.counter.exact_ratio", static_cast<double>(exact_) / n},
        {"core.counter.mean_abs_err", absErr_ / n},
        {"core.counter.dense_ratio",
         static_cast<double>(repasses() - repassesAtStart_) / n},
        {"core.analyze.obs_per_query",
         static_cast<double>(observations_) /
             static_cast<double>(std::max<std::size_t>(queries_, 1))},
        {"core.tracker.confirmed_tracks", confirmed_ / n},
        {"net.outbox.bytes_per_window", bytes_ / n},
    };
  }

 private:
  /// Windows the counter re-ran with its dense-scene CFAR factor.
  static std::uint64_t repasses() {
    return obs::globalRegistry()
        .counter("counter.adaptive_cfar_repasses")
        .value();
  }

  sim::ReaderNode node_;
  core::MultiQueryCounter counter_;
  core::SpectrumAnalyzer analyzer_;
  core::ArrayGeometry geometry_;
  core::TrackerConfig trackerConfig_{};
  std::size_t roadPair_;
  std::size_t scenes_ = 0;
  std::vector<Window> windows_;
  std::vector<std::unique_ptr<Reader>> readers_;
  std::unique_ptr<net::Backend> backend_;

  std::size_t windowsCounted_ = 0, exact_ = 0, queries_ = 0,
              observations_ = 0;
  double absErr_ = 0.0, accuracy_ = 0.0, confirmed_ = 0.0, bytes_ = 0.0;
  std::uint64_t repassesAtStart_ = 0;
};

}  // namespace

std::unique_ptr<Workload> makeLotCount() { return std::make_unique<LotCount>(); }

}  // namespace perfbench
