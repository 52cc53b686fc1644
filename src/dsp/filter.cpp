#include "dsp/filter.hpp"

#include <cmath>

#include "common/units.hpp"
#include "obs/prof.hpp"
#include "obs/prof_stages.hpp"

namespace caraoke::dsp {

cdouble goertzel(CSpan signal, double fractionalBin) {
  // Goertzel second-order recurrence: one real coefficient per bin, ~3
  // multiply-adds per sample instead of a sincos — this sits on the hot
  // path of the decoder's CFO search and the sparse FFT's verification.
  CARAOKE_PROF_SCOPE(obs::prof::stage::kGoertzel);
  const std::size_t n = signal.size();
  if (n == 0) return {};
  const double omega = kTwoPi * fractionalBin / static_cast<double>(n);
  const double coefficient = 2.0 * std::cos(omega);
  cdouble s1{}, s2{};
  for (std::size_t t = 0; t < n; ++t) {
    const cdouble s0 = signal[t] + coefficient * s1 - s2;
    s2 = s1;
    s1 = s0;
  }
  // sum_t x[t] e^{-j w t} = (s1 - e^{-j w} s2) * e^{-j w (n-1)}.
  const cdouble expNegW(std::cos(omega), -std::sin(omega));
  const double finalAngle = -omega * static_cast<double>(n - 1);
  return (s1 - expNegW * s2) *
         cdouble(std::cos(finalAngle), std::sin(finalAngle));
}

}  // namespace caraoke::dsp
