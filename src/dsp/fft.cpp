#include "dsp/fft.hpp"

#include <cmath>
#include <stdexcept>

#include "common/units.hpp"
#include "obs/prof.hpp"
#include "obs/prof_stages.hpp"

namespace caraoke::dsp {

bool isPowerOfTwo(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

namespace {

// Bit-reversal permutation, computed incrementally.
void bitReverse(CVec& a) {
  const std::size_t n = a.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
}

// Shared radix-2 butterfly core; `invert` selects the inverse transform.
void radix2(CVec& a, bool invert) {
  const std::size_t n = a.size();
  if (!isPowerOfTwo(n))
    throw std::invalid_argument("radix-2 FFT needs a power-of-two length");
  bitReverse(a);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = (invert ? kTwoPi : -kTwoPi) / static_cast<double>(len);
    const cdouble wl(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      cdouble w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const cdouble u = a[i + k];
        const cdouble v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wl;
      }
    }
  }
  if (invert) {
    const double inv = 1.0 / static_cast<double>(n);
    for (auto& x : a) x *= inv;
  }
}

std::size_t nextPowerOfTwo(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// Bluestein's algorithm: express the DFT as a convolution and evaluate it
// with power-of-two FFTs. Handles any length, used for odd-sized windows.
CVec bluestein(CSpan input, bool invert) {
  const std::size_t n = input.size();
  const double sign = invert ? 1.0 : -1.0;
  // Chirp c[k] = exp(sign * j * pi * k^2 / n). k^2 mod 2n keeps the argument
  // small and exact for large k.
  CVec chirp(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t k2 = (k * k) % (2 * n);
    const double angle = sign * kPi * static_cast<double>(k2) /
                         static_cast<double>(n);
    chirp[k] = cdouble(std::cos(angle), std::sin(angle));
  }
  const std::size_t m = nextPowerOfTwo(2 * n - 1);
  CVec a(m, cdouble{}), b(m, cdouble{});
  for (std::size_t k = 0; k < n; ++k) a[k] = input[k] * chirp[k];
  for (std::size_t k = 0; k < n; ++k) {
    b[k] = std::conj(chirp[k]);
    if (k != 0) b[m - k] = std::conj(chirp[k]);
  }
  radix2(a, false);
  radix2(b, false);
  for (std::size_t k = 0; k < m; ++k) a[k] *= b[k];
  radix2(a, true);
  CVec out(n);
  for (std::size_t k = 0; k < n; ++k) out[k] = a[k] * chirp[k];
  if (invert) {
    const double inv = 1.0 / static_cast<double>(n);
    for (auto& x : out) x *= inv;
  }
  return out;
}

}  // namespace

void fftInPlace(CVec& data) {
  CARAOKE_PROF_SCOPE(obs::prof::stage::kFft);
  radix2(data, false);
}

CVec fft(CSpan input) {
  if (input.empty()) return {};
  CARAOKE_PROF_SCOPE(obs::prof::stage::kFft);
  if (isPowerOfTwo(input.size())) {
    CVec data(input.begin(), input.end());
    radix2(data, false);
    return data;
  }
  return bluestein(input, false);
}

CVec ifft(CSpan input) {
  if (input.empty()) return {};
  CARAOKE_PROF_SCOPE(obs::prof::stage::kFft);
  if (isPowerOfTwo(input.size())) {
    CVec data(input.begin(), input.end());
    radix2(data, true);
    return data;
  }
  return bluestein(input, true);
}

CVec dftReference(CSpan input) {
  const std::size_t n = input.size();
  CVec out(n, cdouble{});
  for (std::size_t k = 0; k < n; ++k) {
    cdouble acc{};
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = -kTwoPi * static_cast<double>(k) *
                           static_cast<double>(t) / static_cast<double>(n);
      acc += input[t] * cdouble(std::cos(angle), std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}

std::vector<double> magnitude(CSpan spectrum) {
  std::vector<double> out(spectrum.size());
  for (std::size_t i = 0; i < spectrum.size(); ++i)
    out[i] = std::abs(spectrum[i]);
  return out;
}

}  // namespace caraoke::dsp
