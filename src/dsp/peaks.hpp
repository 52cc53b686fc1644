// Spectral peak detection.
//
// A collision's FFT shows one spike per transponder riding on a wideband
// OOK floor (§5, Fig 4). The detector is an order-statistic CFAR: a bin is
// a spike when it is a local maximum and exceeds cfarFactor times the
// median of its training cells, which sit on both sides of the bin beyond
// a guard region. The median is robust to the spikes themselves and
// follows the colored OOK sidelobe floor, whose data-spectrum humps near
// the chip rate would defeat a single global threshold. A minimum bin
// separation keeps one spike's shoulders from being double-counted.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace caraoke::dsp {

/// One detected spectral peak.
struct Peak {
  std::size_t bin = 0;    ///< FFT bin index of the local maximum.
  double magnitude = 0.0; ///< |X[bin]|.
};

/// Tuning for findPeaks().
struct PeakDetectorConfig {
  /// One-sided training window, one-sided guard, and the factor over the
  /// local median a bin must exceed. Training cells that would fall off
  /// either end of the spectrum are left out, not wrapped.
  std::size_t cfarWindowBins = 48;
  std::size_t cfarGuardBins = 3;
  double cfarFactor = 3.6;
  /// Peaks closer than this many bins are merged (strongest wins).
  std::size_t minSeparationBins = 2;
  /// Search exactly the bins [searchBegin, searchEnd); end==0 means "to
  /// the end of the spectrum". The local-maximum test treats the spectrum
  /// as circular, so bin 0's left neighbor is the last bin. Caraoke
  /// searches only the 1.2 MHz CFO span, whose bin 0 holds a carrier at
  /// the reader's LO.
  std::size_t searchBegin = 0;
  std::size_t searchEnd = 0;
  /// Hard floor on the threshold; guards against an all-noise spectrum
  /// whose local median underestimates the floor.
  double absoluteFloor = 0.0;
};

/// Detect peaks in a magnitude spectrum. Results are sorted by bin index.
std::vector<Peak> findPeaks(std::span<const double> magnitudeSpectrum,
                            const PeakDetectorConfig& config = {});

/// Quadratic (three-point) interpolation of the true peak position around
/// a bin; returns the fractional bin offset in [-0.5, 0.5]. Sharpens CFO
/// estimates beyond the 1.95 kHz bin resolution. Neighbors wrap around
/// the circular spectrum, so bin 0 interpolates against the last bin.
double interpolatePeakOffset(std::span<const double> magnitudeSpectrum,
                             std::size_t bin);

}  // namespace caraoke::dsp
