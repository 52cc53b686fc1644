// Deterministic random number generation for simulations and tests.
//
// Every stochastic component in the codebase draws from an explicitly seeded
// Rng so that experiments are reproducible run-to-run; there is no hidden
// global generator. Rng is cheap to copy-construct from a seed and cheap to
// fork into decorrelated child streams.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace caraoke {

/// Seeded pseudo-random source wrapping a 64-bit Mersenne Twister with the
/// distribution helpers the simulator needs. Not thread-safe; give each
/// thread (or each simulated device) its own stream via fork().
class Rng {
 public:
  /// Construct from a 64-bit seed. Equal seeds produce equal streams.
  explicit Rng(std::uint64_t seed = 0x5eed'cafe'f00d'1234ull) : eng_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

  /// Standard normal sample scaled to the given mean / standard deviation
  /// (stddev >= 0; stddev 0 returns mean and still consumes a draw).
  double gaussian(double mean, double stddev);

  /// Gaussian truncated to [lo, hi] by rejection (falls back to clamping
  /// after 64 rejections so pathological bounds cannot hang a simulation).
  double truncatedGaussian(double mean, double stddev, double lo, double hi);

  /// Exponentially distributed sample with the given rate (events/second).
  /// Used for Poisson arrival processes.
  double exponential(double rate);

  /// Bernoulli draw with probability p of true.
  bool chance(double p);

  /// Uniform phase in [0, 2*pi).
  double phase();

  /// n distinct integers drawn uniformly from [0, populationSize), in
  /// random order. Requires n <= populationSize.
  std::vector<std::size_t> sampleWithoutReplacement(std::size_t populationSize,
                                                    std::size_t n);

  /// Derive an independent child stream. Forking advances this stream, so
  /// two forks from the same parent are decorrelated from each other.
  Rng fork();

  /// Raw 64-bit draw, exposed for hashing-style uses (packet contents).
  std::uint64_t next() { return eng_(); }

  /// The underlying engine, for interop with <random> distributions.
  std::mt19937_64& engine() { return eng_; }

 private:
  std::mt19937_64 eng_;
};

}  // namespace caraoke
