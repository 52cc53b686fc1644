#include "core/decoder.hpp"

#include <algorithm>
#include <cmath>

#include "common/units.hpp"
#include "dsp/filter.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/prof_stages.hpp"
#include "phy/ook.hpp"
#include "phy/protocol.hpp"
#include "phy/sync.hpp"

namespace caraoke::core {

namespace {

// Decode-pipeline telemetry: combine volume, CRC outcomes, and where the
// rescues (chase / timing search) actually earn their keep.
struct DecoderMetrics {
  obs::Counter& combined =
      obs::globalRegistry().counter("decoder.collisions_combined");
  obs::Counter& fadedSkips =
      obs::globalRegistry().counter("decoder.faded_skips");
  obs::Counter& crcPass = obs::globalRegistry().counter("decoder.crc_pass");
  obs::Counter& crcFail = obs::globalRegistry().counter("decoder.crc_fail");
  obs::Counter& chaseRescues =
      obs::globalRegistry().counter("decoder.chase_rescues");
  obs::Counter& timingRescues =
      obs::globalRegistry().counter("decoder.timing_rescues");
};

DecoderMetrics& decoderMetrics() {
  static DecoderMetrics metrics;
  return metrics;
}

// Chase-style correction: try flipping the lowest-margin bits (singles,
// then pairs) until the CRC passes.
std::optional<phy::TransponderId> chaseDecode(
    const phy::BitVec& bits, const std::vector<double>& margins,
    std::size_t chaseBits) {
  if (chaseBits == 0) return std::nullopt;
  CARAOKE_PROF_SCOPE(obs::prof::stage::kChase);
  // Indices of the weakest bits, ascending by margin.
  std::vector<std::size_t> order(bits.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return margins[a] < margins[b];
  });
  const std::size_t k = std::min(chaseBits, order.size());

  auto tryFlips = [&](std::initializer_list<std::size_t> flips)
      -> std::optional<phy::TransponderId> {
    phy::BitVec candidate = bits;
    for (std::size_t i : flips) candidate[order[i]] ^= 1;
    if (!phy::Packet::checksumOk(candidate)) return std::nullopt;
    auto decoded = phy::Packet::decode(candidate);
    if (decoded.ok()) return decoded.value();
    return std::nullopt;
  };

  for (std::size_t i = 0; i < k; ++i)
    if (auto id = tryFlips({i})) return id;
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = i + 1; j < k; ++j)
      if (auto id = tryFlips({i, j})) return id;
  return std::nullopt;
}

}  // namespace

CollisionDecoder::CollisionDecoder(DecoderConfig config)
    : config_(config), analyzer_([&config] {
        SpectrumAnalysisConfig a;
        a.sampling = config.sampling;
        return a;
      }()) {}

void CollisionDecoder::reset(double targetCfoHz) {
  cfoHz_ = targetCfoHz;
  used_ = 0;
  combined_.assign(config_.sampling.responseSamples(), dsp::cdouble{});
}

std::optional<phy::TransponderId> CollisionDecoder::addCollision(
    dsp::CSpan samples) {
  CARAOKE_PROF_BURST();
  CARAOKE_PROF_SCOPE(obs::prof::stage::kDecode);
  DecoderMetrics& metrics = decoderMetrics();
  const std::size_t n = samples.size();
  const dsp::BinMapper mapper(n, config_.sampling.sampleRateHz);

  // 1. Re-acquire the target's exact CFO for this collision (the
  //    oscillator drifts between queries).
  const double expectedBin = mapper.freqToFractionalBin(cfoHz_);
  double bestBin = expectedBin;
  double bestMag = -1.0;
  {
    CARAOKE_PROF_SCOPE(obs::prof::stage::kCfo);
    for (double b = expectedBin - config_.cfoSearchHalfWidthBins;
         b <= expectedBin + config_.cfoSearchHalfWidthBins;
         b += config_.cfoSearchStepBins) {
      const double mag = std::abs(dsp::goertzel(samples, b));
      if (mag > bestMag) {
        bestMag = mag;
        bestBin = b;
      }
    }
  }
  cfoHz_ = bestBin * mapper.binWidthHz();

  // 2. Channel estimate at the spike: h = 2 X(f) / n.
  const dsp::cdouble h = analyzer_.channelAt(samples, bestBin);
  if (std::abs(h) < config_.minChannelMagnitude) {
    // A faded collision adds mostly amplified noise; skip it but still
    // count the query (air time was spent).
    ++used_;
    metrics.fadedSkips.inc();
    return std::nullopt;
  }

  // 3. Derotate by the CFO and divide by the channel, then accumulate:
  //    the target becomes +s(t) in every term, interferers rotate by
  //    residual frequencies and random phases and cancel (§8).
  {
    CARAOKE_PROF_SCOPE(obs::prof::stage::kCoherentSum);
    const double step = -kTwoPi * cfoHz_ / config_.sampling.sampleRateHz;
    dsp::cdouble rotor(1.0, 0.0);
    const dsp::cdouble increment(std::cos(step), std::sin(step));
    const dsp::cdouble invH = 1.0 / h;
    for (std::size_t t = 0; t < n && t < combined_.size(); ++t) {
      combined_[t] += samples[t] * rotor * invH;
      rotor *= increment;
      if ((t & 1023u) == 1023u) rotor /= std::abs(rotor);
    }
  }
  ++used_;
  metrics.combined.inc();

  // 4. Demodulate and test the checksum; on a near miss, chase the
  //    weakest bits.
  const phy::BitVec bits = phy::demodulateOok(combined_, config_.sampling);
  if (phy::Packet::checksumOk(bits)) {
    auto decoded = phy::Packet::decode(bits);
    if (decoded.ok()) {
      metrics.crcPass.inc();
      return decoded.value();
    }
  }
  if (config_.chaseBits > 0) {
    const auto margins = phy::ookBitMargins(combined_, config_.sampling);
    if (auto id = chaseDecode(bits, margins, config_.chaseBits)) {
      metrics.crcPass.inc();
      metrics.chaseRescues.inc();
      return id;
    }
  }

  // 4b. Timing recovery: transponder turn-around jitter can shift the
  // packet by a few samples; search the sync word for the true offset.
  if (config_.timingSearchMaxSamples > 0) {
    CARAOKE_PROF_SCOPE(obs::prof::stage::kTimingSearch);
    dsp::CVec padded = combined_;
    padded.resize(combined_.size() + config_.timingSearchMaxSamples,
                  dsp::cdouble{});
    const auto offset = phy::findSyncOffset(
        padded, config_.timingSearchMaxSamples, config_.sampling);
    if (offset && *offset > 0) {
      const phy::BitVec shifted = phy::demodulateOok(
          dsp::CSpan(padded).subspan(*offset), config_.sampling);
      if (phy::Packet::checksumOk(shifted)) {
        auto decoded = phy::Packet::decode(shifted);
        if (decoded.ok()) {
          metrics.crcPass.inc();
          metrics.timingRescues.inc();
          return decoded.value();
        }
      }
    }
  }
  metrics.crcFail.inc();
  return std::nullopt;
}

caraoke::Result<DecodeOutcome> CollisionDecoder::decodeTarget(
    double targetCfoHz, const std::function<dsp::CVec()>& nextCollision) {
  using R = caraoke::Result<DecodeOutcome>;
  reset(targetCfoHz);
  while (used_ < config_.maxCollisions) {
    const dsp::CVec collision = nextCollision();
    if (auto id = addCollision(collision)) {
      DecodeOutcome outcome;
      outcome.id = *id;
      outcome.collisionsUsed = used_;
      outcome.elapsedMs =
          static_cast<double>(used_) * phy::kQueryInterval * 1e3;
      return outcome;
    }
  }
  return R::failure("CRC did not pass within the collision budget");
}

std::vector<MultiDecodeEntry> decodeAll(
    const std::vector<dsp::CVec>& collisions, const DecoderConfig& config,
    const SpectrumAnalysisConfig& analysisConfig) {
  std::vector<MultiDecodeEntry> entries;
  if (collisions.empty()) return entries;

  const SpectrumAnalyzer analyzer(analysisConfig);
  const auto observations =
      analyzer.analyze(std::vector<dsp::CVec>{collisions.front()});

  for (const TransponderObservation& obs : observations) {
    MultiDecodeEntry entry;
    entry.cfoHz = obs.cfoHz;
    CollisionDecoder decoder(config);
    decoder.reset(obs.cfoHz);
    for (const dsp::CVec& collision : collisions) {
      if (auto id = decoder.addCollision(collision)) {
        entry.decoded = true;
        entry.id = *id;
        break;
      }
    }
    entry.collisionsUsed = decoder.collisionsUsed();
    entries.push_back(entry);
  }
  return entries;
}

}  // namespace caraoke::core
