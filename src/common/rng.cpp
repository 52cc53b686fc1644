#include "common/rng.hpp"

#include <algorithm>
#include <cmath>

#include "common/units.hpp"

namespace caraoke {

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  return d(eng_);
}

std::int64_t Rng::uniformInt(std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> d(lo, hi);
  return d(eng_);
}

double Rng::gaussian(double mean, double stddev) {
  // Scaling a standard normal is the expression libstdc++ evaluates for
  // normal_distribution(mean, stddev), so streams stay bit-identical,
  // and stddev 0 returns mean without breaking its stddev > 0
  // precondition.
  std::normal_distribution<double> d;
  return d(eng_) * stddev + mean;
}

double Rng::truncatedGaussian(double mean, double stddev, double lo,
                              double hi) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const double v = gaussian(mean, stddev);
    if (v >= lo && v <= hi) return v;
  }
  return std::clamp(mean, lo, hi);
}

double Rng::exponential(double rate) {
  std::exponential_distribution<double> d(rate);
  return d(eng_);
}

bool Rng::chance(double p) {
  std::bernoulli_distribution d(std::clamp(p, 0.0, 1.0));
  return d(eng_);
}

double Rng::phase() { return uniform(0.0, kTwoPi); }

std::vector<std::size_t> Rng::sampleWithoutReplacement(
    std::size_t populationSize, std::size_t n) {
  // Partial Fisher-Yates over an index vector: O(populationSize) setup,
  // fine for the population sizes we use (<= a few thousand transponders).
  std::vector<std::size_t> idx(populationSize);
  for (std::size_t i = 0; i < populationSize; ++i) idx[i] = i;
  for (std::size_t i = 0; i < n && i + 1 < populationSize; ++i) {
    const std::size_t j = static_cast<std::size_t>(
        uniformInt(static_cast<std::int64_t>(i),
                   static_cast<std::int64_t>(populationSize - 1)));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(std::min(n, populationSize));
  return idx;
}

Rng Rng::fork() { return Rng(eng_() ^ 0x9e37'79b9'7f4a'7c15ull); }

}  // namespace caraoke
