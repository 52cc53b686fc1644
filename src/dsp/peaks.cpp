#include "dsp/peaks.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/stats.hpp"
#include "obs/prof.hpp"
#include "obs/prof_stages.hpp"

namespace caraoke::dsp {

std::vector<Peak> findPeaks(std::span<const double> mag,
                            const PeakDetectorConfig& config) {
  CARAOKE_PROF_SCOPE(obs::prof::stage::kPeak);
  std::vector<Peak> peaks;
  const std::size_t n = mag.size();
  if (n < 3) return peaks;

  const std::size_t end =
      std::min(config.searchEnd == 0 ? n : config.searchEnd, n);
  const std::size_t nearest = config.cfarGuardBins + 1;
  const std::size_t farthest = config.cfarGuardBins + config.cfarWindowBins;
  std::vector<double> training;
  training.reserve(2 * config.cfarWindowBins);
  for (std::size_t i = config.searchBegin; i < end; ++i) {
    // Local maximum on the circular spectrum; of a flat top only the left
    // edge counts. Cheap, so it runs before the CFAR median.
    const double left = mag[i == 0 ? n - 1 : i - 1];
    const double right = mag[i + 1 == n ? 0 : i + 1];
    if (mag[i] <= left || mag[i] < right) continue;
    training.clear();
    for (std::size_t k = nearest; k <= farthest && k <= i; ++k)
      training.push_back(mag[i - k]);
    for (std::size_t k = nearest; k <= farthest && i + k < n; ++k)
      training.push_back(mag[i + k]);
    double threshold = config.absoluteFloor;
    if (!training.empty())
      threshold = std::max(config.cfarFactor * median(std::span(training)),
                           threshold);
    if (mag[i] < threshold) continue;
    peaks.push_back({i, mag[i]});
  }

  if (config.minSeparationBins > 1 && peaks.size() > 1) {
    // Greedy merge: strongest peak claims its neighborhood.
    std::vector<Peak> byStrength = peaks;
    std::sort(byStrength.begin(), byStrength.end(),
              [](const Peak& a, const Peak& b) {
                return a.magnitude > b.magnitude;
              });
    std::vector<Peak> kept;
    for (const Peak& p : byStrength) {
      const bool tooClose = std::any_of(
          kept.begin(), kept.end(), [&](const Peak& k) {
            const std::size_t d = p.bin > k.bin ? p.bin - k.bin : k.bin - p.bin;
            return d < config.minSeparationBins;
          });
      if (!tooClose) kept.push_back(p);
    }
    std::sort(kept.begin(), kept.end(),
              [](const Peak& a, const Peak& b) { return a.bin < b.bin; });
    return kept;
  }
  return peaks;
}

double interpolatePeakOffset(std::span<const double> mag, std::size_t bin) {
  const std::size_t n = mag.size();
  if (n < 3 || bin >= n) return 0.0;
  // Circular neighbors, as in findPeaks: bin 0's left is the last bin.
  const double a = mag[bin == 0 ? n - 1 : bin - 1];
  const double b = mag[bin];
  const double c = mag[bin + 1 == n ? 0 : bin + 1];
  const double denom = a - 2.0 * b + c;
  if (std::abs(denom) < 1e-12) return 0.0;
  const double offset = 0.5 * (a - c) / denom;
  return std::clamp(offset, -0.5, 0.5);
}

}  // namespace caraoke::dsp
