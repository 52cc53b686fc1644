#include "dsp/stats.hpp"

#include <algorithm>
#include <cmath>

namespace caraoke::dsp {

double mean(std::span<const double> v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double variance(std::span<const double> v) {
  if (v.size() < 2) return 0.0;
  const double m = mean(v);
  double s = 0.0;
  for (double x : v) s += (x - m) * (x - m);
  return s / static_cast<double>(v.size() - 1);
}

double stddev(std::span<const double> v) { return std::sqrt(variance(v)); }

double median(std::span<double> v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<long>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  if (v.size() % 2 == 1) return *mid;
  // The lower middle is the largest element left of mid.
  return 0.5 * (*std::max_element(v.begin(), mid) + *mid);
}

double median(std::span<const double> v) {
  std::vector<double> tmp(v.begin(), v.end());
  return median(std::span(tmp));
}

double percentile(std::span<const double> v, double p) {
  if (v.empty()) return 0.0;
  std::vector<double> tmp(v.begin(), v.end());
  std::sort(tmp.begin(), tmp.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(tmp.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, tmp.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return tmp[lo] * (1.0 - frac) + tmp[hi] * frac;
}

double maxValue(std::span<const double> v) {
  if (v.empty()) return 0.0;
  return *std::max_element(v.begin(), v.end());
}

std::size_t argmax(std::span<const double> v) {
  if (v.empty()) return 0;
  return static_cast<std::size_t>(
      std::max_element(v.begin(), v.end()) - v.begin());
}

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  sumSq_ += x * x;
}

double RunningStats::stddev() const {
  if (n_ < 2) return 0.0;
  const double m = mean();
  const double var =
      (sumSq_ - static_cast<double>(n_) * m * m) / static_cast<double>(n_ - 1);
  return var > 0.0 ? std::sqrt(var) : 0.0;
}

}  // namespace caraoke::dsp
