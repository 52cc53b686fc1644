// Frequency/bin bookkeeping and mixing helpers shared by the estimators.
#pragma once

#include <cstddef>

#include "dsp/types.hpp"

namespace caraoke::dsp {

/// Converts between FFT bin indices and physical frequencies for an
/// N-point FFT at a given sample rate. Bins [0, N/2) map to [0, fs/2);
/// bins [N/2, N) map to negative frequencies.
class BinMapper {
 public:
  /// fftSize points sampled at sampleRateHz.
  BinMapper(std::size_t fftSize, double sampleRateHz);

  /// Width of one bin [Hz] (the paper's delta_f = 1/T, Eq. 6).
  double binWidthHz() const { return sampleRateHz_ / static_cast<double>(n_); }

  /// Frequency of a (possibly fractional) bin, mapped to [-fs/2, fs/2).
  double binToFreq(double bin) const;

  /// Nearest bin index in [0, N) for a frequency in [-fs/2, fs/2).
  std::size_t freqToBin(double freqHz) const;

  /// Exact (fractional) bin for a frequency, without wrapping into [0, N).
  double freqToFractionalBin(double freqHz) const {
    return freqHz / binWidthHz();
  }

  std::size_t fftSize() const { return n_; }
  double sampleRateHz() const { return sampleRateHz_; }

 private:
  std::size_t n_;
  double sampleRateHz_;
};

/// Multiply a signal by e^{j 2 pi f t} (frequency up-shift by f; pass a
/// negative f to down-convert). t = sampleIndex / fs.
CVec mix(CSpan signal, double freqHz, double sampleRateHz);

}  // namespace caraoke::dsp
