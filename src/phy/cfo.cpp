#include "phy/cfo.hpp"

#include <algorithm>

namespace caraoke::phy {

double UniformCfoModel::drawCarrierHz(Rng& rng) const {
  return rng.uniform(kCarrierMinHz, kCarrierMaxHz);
}

EmpiricalCfoModel::EmpiricalCfoModel(double meanHz, double stddevHz)
    : meanHz_(meanHz), stddevHz_(stddevHz) {}

double EmpiricalCfoModel::drawCarrierHz(Rng& rng) const {
  return rng.truncatedGaussian(meanHz_, stddevHz_, kCarrierMinHz,
                               kCarrierMaxHz);
}

double CfoDriftModel::step(double carrierHz, Rng& rng) const {
  double next = carrierHz + rng.gaussian(0.0, rmsDriftHzPerQuery);
  // Reflect at band edges so a device near the edge stays legal.
  if (next < kCarrierMinHz) next = 2.0 * kCarrierMinHz - next;
  if (next > kCarrierMaxHz) next = 2.0 * kCarrierMaxHz - next;
  return std::clamp(next, kCarrierMinHz, kCarrierMaxHz);
}

}  // namespace caraoke::phy
