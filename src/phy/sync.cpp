#include "phy/sync.hpp"

#include <vector>

#include "phy/manchester.hpp"
#include "phy/ook.hpp"

namespace caraoke::phy {

std::size_t syncWordScore(dsp::CSpan waveform, std::size_t sampleOffset,
                          const SamplingParams& params) {
  constexpr std::size_t kSyncBits = 16;
  const std::size_t needed =
      sampleOffset + kSyncBits * params.samplesPerBit();
  if (waveform.size() < needed) return 0;
  const BitVec bits = demodulateOok(waveform.subspan(sampleOffset),
                                    params, kSyncBits);
  std::size_t score = 0;
  for (std::size_t i = 0; i < kSyncBits; ++i) {
    const std::uint8_t expected =
        static_cast<std::uint8_t>((Packet::kSyncWord >> (15 - i)) & 1u);
    if (bits[i] == expected) ++score;
  }
  return score;
}

std::optional<std::size_t> findSyncOffset(dsp::CSpan waveform,
                                          std::size_t maxOffset,
                                          const SamplingParams& params,
                                          std::size_t minScore) {
  // Several offsets can decode all sync bits correctly (a 1-sample slip
  // only leaks one of four samples per half-bit), so ties are broken by
  // the soft decision margin, which peaks at exact alignment.
  constexpr std::size_t kSyncBits = 16;
  std::optional<std::size_t> best;
  double bestMetric = -1.0;
  for (std::size_t offset = 0; offset <= maxOffset; ++offset) {
    const std::size_t score = syncWordScore(waveform, offset, params);
    if (score < minScore) continue;
    const std::size_t needed =
        offset + kSyncBits * params.samplesPerBit();
    if (waveform.size() < needed) continue;
    const auto margins =
        ookBitMargins(waveform.subspan(offset), params, kSyncBits);
    double meanMargin = 0.0;
    for (double m : margins) meanMargin += m;
    meanMargin /= static_cast<double>(margins.size());
    const double metric = static_cast<double>(score) + meanMargin;
    if (metric > bestMetric) {
      bestMetric = metric;
      best = offset;
    }
  }
  return best;
}

}  // namespace caraoke::phy
