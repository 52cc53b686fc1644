#include "phy/ook.hpp"

#include <cmath>
#include <span>
#include <stdexcept>

#include "common/units.hpp"
#include "obs/prof.hpp"
#include "obs/prof_stages.hpp"

namespace caraoke::phy {

namespace {

// Rectangular-pulse baseband s(t) in {0,1} from Manchester chips.
std::vector<double> chipsToBaseband(std::span<const std::uint8_t> chips,
                                    std::size_t samplesPerChip) {
  std::vector<double> s(chips.size() * samplesPerChip);
  for (std::size_t c = 0; c < chips.size(); ++c) {
    const double level = chips[c] ? 1.0 : 0.0;
    for (std::size_t k = 0; k < samplesPerChip; ++k)
      s[c * samplesPerChip + k] = level;
  }
  return s;
}

}  // namespace

dsp::CVec modulateResponse(const BitVec& packetBits,
                           const SamplingParams& params, double cfoHz,
                           double initialPhase) {
  const BitVec chips = manchesterEncode(packetBits);
  const std::vector<double> s = chipsToBaseband(chips, params.samplesPerChip());
  dsp::CVec y(s.size());
  const double step = kTwoPi * cfoHz / params.sampleRateHz;
  for (std::size_t t = 0; t < s.size(); ++t) {
    const double angle = step * static_cast<double>(t) + initialPhase;
    y[t] = s[t] * dsp::cdouble(std::cos(angle), std::sin(angle));
  }
  return y;
}

namespace {

// Integrate the real part over each Manchester half-period of each bit.
void halfBitEnergies(dsp::CSpan waveform, const SamplingParams& params,
                     std::size_t numBits, std::vector<double>& first,
                     std::vector<double>& second) {
  const std::size_t spc = params.samplesPerChip();
  if (waveform.size() < numBits * 2 * spc)
    throw std::invalid_argument("demodulateOok: waveform too short");
  first.assign(numBits, 0.0);
  second.assign(numBits, 0.0);
  for (std::size_t b = 0; b < numBits; ++b) {
    const std::size_t base = b * 2 * spc;
    for (std::size_t k = 0; k < spc; ++k) {
      first[b] += waveform[base + k].real();
      second[b] += waveform[base + spc + k].real();
    }
  }
}

}  // namespace

BitVec demodulateOok(dsp::CSpan waveform, const SamplingParams& params,
                     std::size_t numBits) {
  CARAOKE_PROF_SCOPE(obs::prof::stage::kDemod);
  std::vector<double> first, second;
  halfBitEnergies(waveform, params, numBits, first, second);
  return manchesterDecodeSoft(first, second);
}

std::vector<double> ookBitMargins(dsp::CSpan waveform,
                                  const SamplingParams& params,
                                  std::size_t numBits) {
  std::vector<double> first, second;
  halfBitEnergies(waveform, params, numBits, first, second);
  std::vector<double> margins(numBits);
  for (std::size_t b = 0; b < numBits; ++b) {
    const double sum = std::abs(first[b]) + std::abs(second[b]);
    margins[b] = sum > 0 ? std::abs(first[b] - second[b]) / sum : 0.0;
  }
  return margins;
}

}  // namespace caraoke::phy
