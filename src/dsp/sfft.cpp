#include "dsp/sfft.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "common/units.hpp"
#include "dsp/fft.hpp"
#include "dsp/filter.hpp"
#include "dsp/stats.hpp"

namespace caraoke::dsp {

namespace {

// Wrap an index into [0, n).
std::size_t wrap(std::size_t i, std::size_t n) { return i % n; }

}  // namespace

std::vector<SparseComponent> sparseFft(CSpan signal,
                                       const SparseFftConfig& config,
                                       Rng& rng) {
  const std::size_t n = signal.size();
  const std::size_t b = config.buckets;
  if (!isPowerOfTwo(n) || !isPowerOfTwo(b) || b == 0 || b > n)
    throw std::invalid_argument("sparseFft: n and buckets must be powers of "
                                "two with buckets <= n");
  const std::size_t stride = n / b;

  // Stage 1 — candidate generation. Each round subsamples with a random
  // odd stride (spectral permutation: spikes sharing a bucket this round
  // likely will not next round) and takes B-point FFTs of the signal at a
  // ladder of original-domain shifts. A shift of s multiplies a tone at
  // bin f by e^{j 2 pi f s / n}: the s = 1 phase gives a coarse,
  // unambiguous f estimate; each larger shift refines it (the phase noise
  // divides by s) while the previous estimate resolves the modular
  // ambiguity. On noisy signals the 1-sample phase alone would scatter
  // by tens of bins.
  const std::size_t shifts[] = {1, 4, 16, 64, 256};
  std::map<std::size_t, std::size_t> votes;  // bin -> rounds seen
  for (std::size_t round = 0; round < config.rounds; ++round) {
    const std::size_t sigma =
        2 * static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(n / 2 - 1))) + 1;

    CVec base(b);
    std::vector<CVec> shifted(std::size(shifts), CVec(b));
    for (std::size_t i = 0; i < b; ++i) {
      const std::size_t pos = wrap(sigma * i * stride, n);
      base[i] = signal[pos];
      for (std::size_t s = 0; s < std::size(shifts); ++s)
        shifted[s][i] = signal[wrap(pos + shifts[s], n)];
    }
    fftInPlace(base);
    for (auto& y : shifted) fftInPlace(y);

    std::vector<double> mags(b);
    for (std::size_t i = 0; i < b; ++i) mags[i] = std::abs(base[i]);
    const double med = median(std::span(mags));
    // Floor against numeric dust on exactly-sparse inputs (leakage of a
    // double-precision FFT is ~1e-13 of the peak).
    const double dust = 1e-6 * maxValue(mags);  // caraoke-lint: allow(units): relative magnitude fraction, not a physical quantity
    const double threshold =
        std::max({config.bucketThreshold * med, dust, 1e-12});

    for (std::size_t bucket = 0; bucket < b; ++bucket) {
      const double m0 = std::abs(base[bucket]);
      if (m0 < threshold) continue;
      // Single-tone buckets keep their magnitude under a 1-sample shift
      // (the §5 time-shift property); collided buckets usually do not.
      const double m1 = std::abs(shifted[0][bucket]);
      if (std::abs(m0 - m1) > config.collisionTolerance * m0) continue;

      // Multi-scale frequency recovery.
      double phase1 = std::arg(shifted[0][bucket] / base[bucket]);
      if (phase1 < 0) phase1 += kTwoPi;
      double f = phase1 / kTwoPi * static_cast<double>(n);
      for (std::size_t s = 1; s < std::size(shifts); ++s) {
        const double shift = static_cast<double>(shifts[s]);
        const double measured =
            std::arg(shifted[s][bucket] / base[bucket]);
        const double predicted = kTwoPi * f * shift / static_cast<double>(n);
        const double delta = wrapPhase(measured - predicted);
        f += delta / kTwoPi * static_cast<double>(n) / shift;
      }
      const long long nLL = static_cast<long long>(n);
      const long long rounded = ((std::llround(f) % nLL) + nLL) % nLL;
      ++votes[static_cast<std::size_t>(rounded)];
    }
  }

  // Merge near-duplicate candidates (off-grid tones round either way);
  // each cluster is represented by its most-voted bin.
  struct Cluster {
    std::size_t bin;       ///< Most-voted bin in the cluster.
    std::size_t binVotes;  ///< Votes of that bin alone.
    std::size_t votes;     ///< Total cluster votes.
    std::size_t lastBin;   ///< Rightmost bin (for adjacency).
  };
  std::vector<Cluster> clusters;
  for (const auto& [bin, count] : votes) {
    if (!clusters.empty() && bin - clusters.back().lastBin <= 1) {
      Cluster& c = clusters.back();
      c.votes += count;
      c.lastBin = bin;
      if (count > c.binVotes) {
        c.binVotes = count;
        c.bin = bin;
      }
    } else {
      clusters.push_back({bin, count, count, bin});
    }
  }
  std::vector<std::pair<std::size_t, std::size_t>> merged;  // bin, votes
  for (const Cluster& c : clusters) merged.emplace_back(c.bin, c.votes);

  // Stage 2 — verification. A collided bucket occasionally slips through
  // the magnitude test and yields a garbage frequency; garbage rarely
  // repeats across rounds (the permutation changes the collision), and a
  // direct Goertzel probe of the original signal rejects what remains.
  // The probe also provides the coefficient estimate, exact even for
  // off-grid tones.
  const std::size_t neededVotes = std::max<std::size_t>(2, config.rounds / 2);

  // Noise/floor reference for the probe threshold: the median magnitude
  // of a handful of random bins, measured over a bounded prefix of the
  // signal so verification cost does not grow with n.
  const CSpan prefix = signal.subspan(0, std::min<std::size_t>(n, 4096));
  std::vector<double> floorProbes;
  for (int k = 0; k < 12; ++k) {
    const double bin = static_cast<double>(rng.uniformInt(
        0, static_cast<std::int64_t>(prefix.size()) - 1));
    floorProbes.push_back(std::abs(goertzel(prefix, bin)));
  }
  const double floorLevel =
      std::max(median(std::span(floorProbes)), 1e-12);

  // Verification threshold: noise floor based, but never below a small
  // fraction of the strongest candidate (guards exactly-sparse signals
  // whose random-bin floor is ~0). Screening runs on a bounded prefix so
  // the verification stays sublinear in n; only accepted candidates get
  // the full-length probe that produces the coefficient estimate.
  std::vector<SparseComponent> out;
  double strongest = 0.0;
  std::vector<std::pair<std::size_t, double>> screened;
  for (const auto& [bin, count] : merged) {
    if (count < neededVotes) continue;
    // Prefix frequency matching the full-signal bin: bin * L / n.
    const double prefixBin = static_cast<double>(bin) *
                             static_cast<double>(prefix.size()) /
                             static_cast<double>(n);
    const double mag = std::abs(goertzel(prefix, prefixBin));
    strongest = std::max(strongest, mag);
    screened.emplace_back(bin, mag);
  }
  const double threshold =
      std::max(config.verifyFactor * floorLevel, 0.05 * strongest);
  for (const auto& [bin, mag] : screened) {
    if (mag < threshold) continue;
    out.push_back({bin, goertzel(signal, static_cast<double>(bin))});
  }
  return out;
}

}  // namespace caraoke::dsp
