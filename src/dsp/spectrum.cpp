#include "dsp/spectrum.hpp"

#include <cmath>
#include <stdexcept>

#include "common/units.hpp"

namespace caraoke::dsp {

BinMapper::BinMapper(std::size_t fftSize, double sampleRateHz)
    : n_(fftSize), sampleRateHz_(sampleRateHz) {
  if (fftSize == 0 || sampleRateHz <= 0)
    throw std::invalid_argument("BinMapper: invalid parameters");
}

double BinMapper::binToFreq(double bin) const {
  const double n = static_cast<double>(n_);
  double b = std::fmod(bin, n);
  if (b < 0) b += n;
  if (b >= n / 2.0) b -= n;
  return b * binWidthHz();
}

std::size_t BinMapper::freqToBin(double freqHz) const {
  const double n = static_cast<double>(n_);
  double bin = std::round(freqHz / binWidthHz());
  bin = std::fmod(bin, n);
  if (bin < 0) bin += n;
  return static_cast<std::size_t>(bin) % n_;
}

CVec mix(CSpan signal, double freqHz, double sampleRateHz) {
  CVec out(signal.size());
  const double step = kTwoPi * freqHz / sampleRateHz;
  // Incremental rotation avoids a sin/cos per sample while keeping error
  // negligible over our window lengths (<= 64k samples).
  cdouble rotor(1.0, 0.0);
  const cdouble increment(std::cos(step), std::sin(step));
  for (std::size_t i = 0; i < signal.size(); ++i) {
    out[i] = signal[i] * rotor;
    rotor *= increment;
    if ((i & 1023u) == 1023u) rotor /= std::abs(rotor);  // renormalize drift
  }
  return out;
}

}  // namespace caraoke::dsp
