#include "dsp/filter.hpp"

#include <cmath>
#include <stdexcept>

#include "common/units.hpp"
#include "obs/prof.hpp"
#include "obs/prof_stages.hpp"

namespace caraoke::dsp {

std::vector<double> designLowPass(double cutoff, std::size_t taps) {
  if (cutoff <= 0.0 || cutoff >= 0.5)
    throw std::invalid_argument("designLowPass: cutoff must be in (0, 0.5)");
  if (taps % 2 == 0 || taps < 3)
    throw std::invalid_argument("designLowPass: taps must be odd and >= 3");
  std::vector<double> h(taps);
  const double mid = static_cast<double>(taps - 1) / 2.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < taps; ++i) {
    const double t = static_cast<double>(i) - mid;
    const double sinc =
        t == 0.0 ? 2.0 * cutoff : std::sin(kTwoPi * cutoff * t) / (kPi * t);
    // Hamming window keeps stopband ripple low enough for channelization.
    const double w =
        0.54 - 0.46 * std::cos(kTwoPi * static_cast<double>(i) /
                               static_cast<double>(taps - 1));
    h[i] = sinc * w;
    sum += h[i];
  }
  for (auto& x : h) x /= sum;  // unity DC gain
  return h;
}

CVec firFilter(CSpan signal, std::span<const double> taps) {
  const std::size_t n = signal.size();
  const std::size_t m = taps.size();
  CVec out(n, cdouble{});
  const std::size_t delay = m / 2;
  for (std::size_t i = 0; i < n; ++i) {
    cdouble acc{};
    for (std::size_t k = 0; k < m; ++k) {
      const long idx = static_cast<long>(i + delay) - static_cast<long>(k);
      if (idx < 0 || idx >= static_cast<long>(n)) continue;
      acc += signal[static_cast<std::size_t>(idx)] * taps[k];
    }
    out[i] = acc;
  }
  return out;
}

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

std::vector<double> matchedFilter(CSpan signal, CSpan templ) {
  if (templ.empty() || templ.size() > signal.size()) return {};
  const std::size_t lags = signal.size() - templ.size() + 1;
  std::vector<double> out(lags);
  for (std::size_t lag = 0; lag < lags; ++lag) {
    cdouble acc{};
    for (std::size_t k = 0; k < templ.size(); ++k)
      acc += signal[lag + k] * std::conj(templ[k]);
    out[lag] = std::abs(acc);
  }
  return out;
}

}  // namespace caraoke::dsp
