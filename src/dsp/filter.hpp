// Single-bin DFT evaluation (Goertzel).
#pragma once

#include "dsp/types.hpp"

namespace caraoke::dsp {

/// Goertzel evaluation of a single DFT coefficient at a possibly
/// non-integer bin: X(f) = sum_n x[n] e^{-j 2 pi f n / N}. Used to probe
/// a transponder's exact CFO without a full FFT.
cdouble goertzel(CSpan signal, double fractionalBin);

}  // namespace caraoke::dsp
