// gantry_decode: open-road tolling bursts.
//
// Each burst is m = 4..6 transponders colliding over Q = 32 single-antenna
// queries at a roadside gantry reader. An op is one
// CaraokeReader::decodeAll over the burst: one detection pass, then
// coherent combining, CFO refinement and demod/CRC per detected spike.
//
// Bursts are kept as the front end's 12-bit ADC codes (a quarter of the
// memory of complex doubles, so more distinct bursts fit) and expanded
// back to the identical samples before each op, untimed.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "core/reader.hpp"
#include "perfbench.hpp"
#include "phy/cfo.hpp"
#include "scenes.hpp"
#include "sim/medium.hpp"

namespace perfbench {
namespace {

using namespace caraoke;

constexpr std::size_t kQueries = 32;
constexpr std::size_t kMinCars = 4;
constexpr std::size_t kMaxCars = 6;

struct Burst {
  std::vector<phy::TransponderId> ids;
  /// Interleaved I/Q ADC codes, kQueries * responseSamples pairs.
  std::vector<std::int16_t> codes;
};

core::ReaderConfig readerConfig(const sim::ReaderNode& node) {
  core::ReaderConfig config;
  config.sampling = node.frontEnd.sampling;
  config.array = bench::geometryFor(node);
  return config;
}

class GantryDecode final : public Workload {
 public:
  GantryDecode()
      : node_(bench::makeReader(0.0)),
        reader_(readerConfig(node_)),
        step_(node_.frontEnd.adcFullScale /
              static_cast<double>(1 << (node_.frontEnd.adcBits - 1))),
        collisions_(kQueries,
                    dsp::CVec(node_.frontEnd.sampling.responseSamples())) {}

  void synthesize(std::uint64_t seed, std::size_t units,
                  Tracer& tracer) override {
    Rng rng(seed ^ 0x6a27'0000'0000'0000ull);
    const phy::EmpiricalCfoModel cfoModel;
    const sim::MultipathConfig multipath;
    const std::vector<phy::Vec3> antenna{node_.array().elements().front()};
    bursts_.assign(units, Burst{});
    for (std::size_t b = 0; b < units; ++b) {
      Burst& burst = bursts_[b];
      // m cycles through its range, so every seed has the same mix.
      const std::size_t cars = kMinCars + b % (kMaxCars - kMinCars + 1);
      std::vector<sim::Transponder> devices;
      std::vector<sim::ActiveDevice> active;
      devices.reserve(cars);
      for (std::size_t c = 0; c < cars; ++c) {
        devices.push_back(sim::Transponder::random(cfoModel, rng));
        burst.ids.push_back(devices.back().id());
      }
      for (std::size_t c = 0; c < cars; ++c)
        active.push_back({&devices[c],
                          {rng.uniform(-15.0, 15.0), rng.uniform(-3.5, 3.5),
                           1.2}});
      for (std::size_t q = 0; q < kQueries; ++q) {
        dsp::CVec samples;
        {
          SpanScope span(tracer, "sim.capture");
          samples = std::move(sim::captureAtAntennas(node_.frontEnd, antenna,
                                                     active, multipath, rng)
                                  .antennaSamples.front());
        }
        for (const dsp::cdouble& x : samples) {
          burst.codes.push_back(code(x.real()));
          burst.codes.push_back(code(x.imag()));
        }
        // The codes must expand back to exactly these samples.
        expand(burst, q, roundTrip_);
        if (roundTrip_ != samples) lossless_ = false;
      }
    }
  }

  std::uint64_t inputDigest() const override {
    std::uint64_t h = fnv1a(nullptr, 0);
    for (const Burst& burst : bursts_) {
      for (const phy::TransponderId& id : burst.ids)
        h = fnv1a(&id.factoryId, sizeof id.factoryId, h);
      h = fnv1a(burst.codes.data(), burst.codes.size() * sizeof(std::int16_t),
                h);
    }
    return h;
  }

  void resetPipeline() override { startCounting(); }

  void prepareOp(std::size_t index) override {
    const Burst& burst = bursts_[index % bursts_.size()];
    for (std::size_t q = 0; q < kQueries; ++q)
      expand(burst, q, collisions_[q]);
  }

  void startCounting() override {
    transponders_ = found_ = entries_ = decoded_ = wrongIds_ = combines_ = 0;
  }

  OpOutcome runOp(std::size_t index, Tracer& tracer) override {
    const Burst& burst = bursts_[index % bursts_.size()];
    const auto entries = [&] {
      SpanScope span(tracer, "core.decoder");
      return reader_.decodeAll(collisions_);
    }();
    OpOutcome outcome;
    std::vector<bool> found(burst.ids.size(), false);
    for (const core::MultiDecodeEntry& entry : entries) {
      if (!entry.decoded) continue;
      if (entry.collisionsUsed == 0 || entry.collisionsUsed > kQueries)
        outcome.ok = false;
      ++decoded_;
      combines_ += entry.collisionsUsed;
      const auto it = std::find(burst.ids.begin(), burst.ids.end(), entry.id);
      if (it == burst.ids.end()) {
        // A CRC-16 false accept: a valid packet that is no car's id. It
        // is a wrong answer, counted here and missing from quality_pct,
        // not a broken invariant of decodeAll.
        ++wrongIds_;
        continue;
      }
      found[static_cast<std::size_t>(it - burst.ids.begin())] = true;
    }
    entries_ += entries.size();
    transponders_ += burst.ids.size();
    found_ += static_cast<std::size_t>(
        std::count(found.begin(), found.end(), true));
    outcome.work = 1.0;
    return outcome;
  }

  bool finalCheck() override {
    if (!lossless_) std::fprintf(stderr, "ADC codes are not lossless\n");
    return lossless_;
  }

  double qualityPct() const override {
    return transponders_ > 0 ? 100.0 * static_cast<double>(found_) /
                                   static_cast<double>(transponders_)
                             : 0.0;
  }

  Counts counts() const override {
    return {
        {"core.decoder.decoded_ratio",
         static_cast<double>(decoded_) /
             static_cast<double>(std::max<std::size_t>(entries_, 1))},
        {"core.decoder.wrong_ids", static_cast<double>(wrongIds_)},
        {"core.decoder.combines_per_id",
         static_cast<double>(combines_) /
             static_cast<double>(std::max<std::size_t>(decoded_, 1))},
    };
  }

 private:
  std::int16_t code(double v) const {
    return static_cast<std::int16_t>(std::lround(v / step_));
  }

  /// Query q of the burst as complex samples, into `out`.
  void expand(const Burst& burst, std::size_t q, dsp::CVec& out) const {
    const std::size_t n = node_.frontEnd.sampling.responseSamples();
    out.resize(n);
    const std::int16_t* c = burst.codes.data() + 2 * n * q;
    for (std::size_t t = 0; t < n; ++t)
      out[t] = dsp::cdouble(static_cast<double>(c[2 * t]) * step_,
                            static_cast<double>(c[2 * t + 1]) * step_);
  }

  sim::ReaderNode node_;
  core::CaraokeReader reader_;
  double step_;
  std::vector<Burst> bursts_;
  std::vector<dsp::CVec> collisions_;
  dsp::CVec roundTrip_;
  bool lossless_ = true;
  std::size_t transponders_ = 0, found_ = 0, entries_ = 0, decoded_ = 0,
              wrongIds_ = 0, combines_ = 0;
};

}  // namespace

std::unique_ptr<Workload> makeGantryDecode() {
  return std::make_unique<GantryDecode>();
}

}  // namespace perfbench
