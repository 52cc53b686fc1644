// FIR filtering, matched filtering, and single-bin (Goertzel) evaluation.
#pragma once

#include <cstddef>
#include <vector>

#include "dsp/types.hpp"

namespace caraoke::dsp {

/// Windowed-sinc low-pass FIR design. cutoff is normalized to the sample
/// rate (0 < cutoff < 0.5); taps must be odd for a symmetric filter.
std::vector<double> designLowPass(double cutoff, std::size_t taps);

/// Direct-form convolution of a complex signal with real taps ("same"
/// output length, group delay compensated for symmetric filters).
CVec firFilter(CSpan signal, std::span<const double> taps);

/// Goertzel evaluation of a single DFT coefficient at a possibly
/// non-integer bin: X(f) = sum_n x[n] e^{-j 2 pi f n / N}. Used to probe
/// a transponder's exact CFO without a full FFT.
cdouble goertzel(CSpan signal, double fractionalBin);

/// Correlate the signal against a template (complex conjugate matched
/// filter); returns correlation magnitude at each lag in [0, n - m].
std::vector<double> matchedFilter(CSpan signal, CSpan templ);

}  // namespace caraoke::dsp
