// Fast Fourier transform: iterative radix-2 with a Bluestein fallback so any
// length works. This is the reader's workhorse (§5 of the paper takes a
// 512 us / 2048-point FFT of every collision).
//
// Conventions: forward transform is unnormalized, inverse scales by 1/N, so
// ifft(fft(x)) == x. Matches the usual DFT definition
//   X[k] = sum_n x[n] * exp(-j 2 pi k n / N).
#pragma once

#include <cstddef>

#include "dsp/types.hpp"

namespace caraoke::dsp {

/// True when n is a power of two (n >= 1).
bool isPowerOfTwo(std::size_t n);

/// In-place forward FFT. Requires data.size() to be a power of two.
void fftInPlace(CVec& data);

/// Forward FFT of arbitrary length. Power-of-two inputs use radix-2;
/// other lengths use Bluestein's chirp-z algorithm.
CVec fft(CSpan input);

/// Inverse FFT of arbitrary length (with 1/N scaling).
CVec ifft(CSpan input);

/// Reference O(N^2) DFT; used by tests to validate fft() and small enough
/// problems where clarity beats speed.
CVec dftReference(CSpan input);

/// Magnitudes of a complex spectrum.
std::vector<double> magnitude(CSpan spectrum);

}  // namespace caraoke::dsp
