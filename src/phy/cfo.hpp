// Carrier-frequency-offset models.
//
// Each transponder has its own free-running oscillator somewhere in
// 914.3-915.5 MHz (§3). The paper analyzes counting under a uniform CFO
// assumption (Eq. 7/9) and validates against the empirical distribution of
// 155 real transponders, reported as Gaussian with mean 914.84 MHz and
// standard deviation 0.21 MHz (§5 fn. 7). Both models live here.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "phy/protocol.hpp"

namespace caraoke::phy {

/// Draws per-device carrier frequencies. Implementations must be cheap and
/// deterministic given the Rng stream.
class CfoModel {
 public:
  virtual ~CfoModel() = default;
  /// One device's carrier frequency [Hz], inside [kCarrierMinHz,
  /// kCarrierMaxHz].
  virtual double drawCarrierHz(Rng& rng) const = 0;
};

/// Uniform over the full 1.2 MHz band — the paper's analytical assumption.
class UniformCfoModel final : public CfoModel {
 public:
  double drawCarrierHz(Rng& rng) const override;
};

/// Truncated Gaussian matching the paper's measured population
/// (mean 914.84 MHz, stddev 0.21 MHz, truncated to the legal band).
class EmpiricalCfoModel final : public CfoModel {
 public:
  EmpiricalCfoModel(double meanHz = kEmpiricalCarrierMeanHz,
                    double stddevHz = kEmpiricalCarrierStddevHz);
  double drawCarrierHz(Rng& rng) const override;

 private:
  double meanHz_;
  double stddevHz_;
};

/// Short-term oscillator instability: the carrier drifts slightly between
/// successive queries (crystal jitter + temperature). The decoder must
/// re-estimate CFO per collision; this model injects the reason why.
struct CfoDriftModel {
  /// RMS drift between two queries 1 ms apart [Hz]. E-toll crystals are
  /// coarse (they span 1.2 MHz across devices) but short-term stable;
  /// tens of Hz per millisecond is a conservative stand-in.
  double rmsDriftHzPerQuery = 20.0;

  /// Next carrier value given the previous one (random walk, reflected
  /// at the band edges).
  double step(double carrierHz, Rng& rng) const;
};

}  // namespace caraoke::phy
