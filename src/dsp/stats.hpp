// Small statistics toolkit used by estimators, thresholds, and benches.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace caraoke::dsp {

/// Arithmetic mean; 0 for empty input.
double mean(std::span<const double> v);

/// Unbiased sample variance (n-1 denominator); 0 for fewer than 2 samples.
double variance(std::span<const double> v);

/// Sample standard deviation.
double stddev(std::span<const double> v);

/// Median (average of middle two for even sizes); 0 for empty input.
/// Reorders v in place, so scratch buffers need no copy.
double median(std::span<double> v);

/// Median of a copy of v; see median(std::span<double>).
double median(std::span<const double> v);

/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::span<const double> v, double p);

/// Maximum value; 0 for empty input.
double maxValue(std::span<const double> v);

/// Index of the maximum value; 0 for empty input.
std::size_t argmax(std::span<const double> v);

/// Running accumulator for mean/stddev/min/max without storing samples.
class RunningStats {
 public:
  /// Fold one observation in.
  void add(double x);
  /// Number of observations so far.
  std::size_t count() const { return n_; }
  /// Mean of observations; 0 when empty.
  double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  /// Sample standard deviation; 0 with fewer than 2 observations.
  double stddev() const;
  /// Smallest observation; 0 when empty.
  double min() const { return n_ ? min_ : 0.0; }
  /// Largest observation; 0 when empty.
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double sum_ = 0.0;
  double sumSq_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace caraoke::dsp
