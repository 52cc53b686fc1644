// Unit tests for the DSP substrate: FFT correctness, windows, peaks,
// statistics, linear algebra, MUSIC, and the sparse FFT.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "dsp/fft.hpp"
#include "dsp/filter.hpp"
#include "dsp/linalg.hpp"
#include "dsp/music.hpp"
#include "dsp/peaks.hpp"
#include "dsp/sfft.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/stats.hpp"
#include "dsp/window.hpp"
#include "core/spectrum_analysis.hpp"
#include "phy/ook.hpp"

namespace caraoke::dsp {
namespace {

CVec randomSignal(std::size_t n, Rng& rng) {
  CVec v(n);
  for (auto& x : v) x = cdouble(rng.gaussian(0, 1), rng.gaussian(0, 1));
  return v;
}

TEST(Fft, MatchesReferenceDftPowerOfTwo) {
  Rng rng(1);
  const CVec x = randomSignal(64, rng);
  const CVec fast = fft(x);
  const CVec slow = dftReference(x);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(fast[i] - slow[i]), 0.0, 1e-9) << "bin " << i;
}

TEST(Fft, MatchesReferenceDftArbitraryLength) {
  Rng rng(2);
  for (std::size_t n : {3u, 5u, 12u, 100u, 127u}) {
    const CVec x = randomSignal(n, rng);
    const CVec fast = fft(x);
    const CVec slow = dftReference(x);
    ASSERT_EQ(fast.size(), slow.size());
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(std::abs(fast[i] - slow[i]), 0.0, 1e-8)
          << "n=" << n << " bin " << i;
  }
}

TEST(Fft, RoundTripIdentity) {
  Rng rng(3);
  for (std::size_t n : {8u, 100u, 1024u}) {
    const CVec x = randomSignal(n, rng);
    const CVec back = ifft(fft(x));
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(std::abs(back[i] - x[i]), 0.0, 1e-9);
  }
}

TEST(Fft, ParsevalHolds) {
  Rng rng(4);
  const CVec x = randomSignal(256, rng);
  const CVec spectrum = fft(x);
  double timeEnergy = 0, freqEnergy = 0;
  for (const auto& v : x) timeEnergy += std::norm(v);
  for (const auto& v : spectrum) freqEnergy += std::norm(v);
  EXPECT_NEAR(timeEnergy, freqEnergy / 256.0, 1e-6);
}

TEST(Fft, SingleToneLandsInCorrectBin) {
  const std::size_t n = 1024;
  CVec x(n);
  const std::size_t k = 37;
  for (std::size_t t = 0; t < n; ++t) {
    const double angle = kTwoPi * static_cast<double>(k * t) / n;
    x[t] = cdouble(std::cos(angle), std::sin(angle));
  }
  const auto mag = magnitude(fft(x));
  EXPECT_EQ(argmax(mag), k);
  EXPECT_NEAR(mag[k], static_cast<double>(n), 1e-6);
}

TEST(Fft, LinearityOfSpectrum) {
  Rng rng(5);
  const CVec a = randomSignal(128, rng);
  const CVec b = randomSignal(128, rng);
  CVec sum(128);
  for (std::size_t i = 0; i < 128; ++i) sum[i] = a[i] + 2.0 * b[i];
  const CVec fa = fft(a), fb = fft(b), fs = fft(sum);
  for (std::size_t i = 0; i < 128; ++i)
    EXPECT_NEAR(std::abs(fs[i] - (fa[i] + 2.0 * fb[i])), 0.0, 1e-9);
}

TEST(Fft, TimeShiftRotatesPhaseOnly) {
  // The §5 property: shifting a pure tone in time leaves the magnitude of
  // its bin unchanged and rotates its phase by 2*pi*f*tau.
  const std::size_t n = 512, k = 20, tau = 13;
  CVec x(n), shifted(n);
  for (std::size_t t = 0; t < n; ++t) {
    const double angle = kTwoPi * static_cast<double>(k) *
                         static_cast<double>(t) / n;
    x[t] = cdouble(std::cos(angle), std::sin(angle));
    const double angle2 = kTwoPi * static_cast<double>(k) *
                          static_cast<double>(t + tau) / n;
    shifted[t] = cdouble(std::cos(angle2), std::sin(angle2));
  }
  const CVec fx = fft(x), fshift = fft(shifted);
  EXPECT_NEAR(std::abs(fx[k]), std::abs(fshift[k]), 1e-6);
  const double expected = kTwoPi * static_cast<double>(k * tau) / n;
  const double got = std::arg(fshift[k] / fx[k]);
  EXPECT_NEAR(std::remainder(got - expected, kTwoPi), 0.0, 1e-9);
}

TEST(Stats, BasicMoments) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(v), 3.0);
  EXPECT_DOUBLE_EQ(variance(v), 2.5);
  EXPECT_DOUBLE_EQ(median(v), 3.0);
  EXPECT_DOUBLE_EQ(maxValue(v), 5.0);
  EXPECT_EQ(argmax(v), 4u);
}

TEST(Stats, MedianEvenCount) {
  const std::vector<double> v{4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(median(v), 2.5);
}

TEST(Stats, MadRobustToOutlier) {
  const std::vector<double> v{1, 1, 1, 1, 1, 1, 1, 100};
  EXPECT_DOUBLE_EQ(median(v), 1.0);
}

TEST(Stats, InPlaceMedianOddCount) {
  std::vector<double> v{9, -2, 7, 3, 3, 100, 0};
  EXPECT_DOUBLE_EQ(median(std::span(v)), 3.0);
  std::sort(v.begin(), v.end());  // still the same multiset
  EXPECT_EQ(v, (std::vector<double>{-2, 0, 3, 3, 7, 9, 100}));
}

TEST(Stats, InPlaceMedianEvenCount) {
  std::vector<double> v{8, 1, 6, 3, 5, 2};
  EXPECT_DOUBLE_EQ(median(std::span(v)), 4.0);
  std::vector<double> pair{2, 1};
  EXPECT_DOUBLE_EQ(median(std::span(pair)), 1.5);
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(median(std::span(empty)), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 90), 9.0);
}

TEST(Stats, RunningStatsMatchesBatch) {
  Rng rng(6);
  std::vector<double> v(500);
  RunningStats rs;
  for (auto& x : v) {
    x = rng.gaussian(5.0, 2.0);
    rs.add(x);
  }
  EXPECT_NEAR(rs.mean(), mean(v), 1e-12);
  EXPECT_NEAR(rs.stddev(), stddev(v), 1e-9);
}

TEST(Window, GainAndShape) {
  const auto hann = makeWindow(WindowKind::kHann, 256);
  EXPECT_NEAR(windowGain(hann), 128.0, 1e-9);  // periodic Hann sums to N/2
  EXPECT_NEAR(hann[0], 0.0, 1e-12);
  const auto rect = makeWindow(WindowKind::kRect, 10);
  EXPECT_DOUBLE_EQ(windowGain(rect), 10.0);
}

TEST(Peaks, FindsIsolatedSpikes) {
  std::vector<double> mag(512, 1.0);
  mag[100] = 50.0;
  mag[200] = 30.0;
  mag[300] = 70.0;
  const auto peaks = findPeaks(mag);
  ASSERT_EQ(peaks.size(), 3u);
  EXPECT_EQ(peaks[0].bin, 100u);
  EXPECT_EQ(peaks[1].bin, 200u);
  EXPECT_EQ(peaks[2].bin, 300u);
}

TEST(Peaks, MergesCloseNeighbors) {
  std::vector<double> mag(512, 1.0);
  mag[100] = 50.0;
  mag[101] = 45.0;  // shoulder of the same spike
  PeakDetectorConfig config;
  config.minSeparationBins = 3;
  const auto peaks = findPeaks(mag, config);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0].bin, 100u);
}

TEST(Peaks, RespectsSearchWindow) {
  std::vector<double> mag(512, 1.0);
  mag[10] = 50.0;
  mag[400] = 50.0;
  PeakDetectorConfig config;
  config.searchBegin = 0;
  config.searchEnd = 300;
  const auto peaks = findPeaks(mag, config);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0].bin, 10u);
}

TEST(Peaks, BinZeroWrapsToTheLastBin) {
  std::vector<double> mag(512, 1.0);
  mag[0] = 50.0;
  EXPECT_EQ(findPeaks(mag).size(), 1u);
  EXPECT_EQ(findPeaks(mag).front().bin, 0u);
  // A taller last bin is bin 0's left neighbor: the peak moves there.
  mag[511] = 60.0;
  const auto peaks = findPeaks(mag);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks.front().bin, 511u);
  PeakDetectorConfig bottom;
  bottom.searchEnd = 300;
  EXPECT_TRUE(findPeaks(mag, bottom).empty());
}

// The CFAR detector as first written: the median of every bin's training
// cells over the whole spectrum, each from a fresh sorted copy, then the
// threshold, local-maximum and merge passes over the search range.
// findPeaks must match it exactly.
std::vector<double> naiveLocalMedians(std::span<const double> mag,
                                      const PeakDetectorConfig& config) {
  const std::size_t n = mag.size();
  std::vector<double> medians(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> training;
    for (std::size_t k = config.cfarGuardBins + 1;
         k <= config.cfarGuardBins + config.cfarWindowBins; ++k) {
      if (k <= i) training.push_back(mag[i - k]);
      if (i + k < n) training.push_back(mag[i + k]);
    }
    std::sort(training.begin(), training.end());
    const std::size_t mid = training.size() / 2;
    medians[i] = training.size() % 2 == 1
                     ? training[mid]
                     : 0.5 * (training[mid - 1] + training[mid]);
  }
  return medians;
}

std::vector<Peak> naiveCfarPeaks(std::span<const double> mag,
                                 std::span<const double> medians,
                                 const PeakDetectorConfig& config) {
  const std::size_t n = mag.size();
  std::vector<Peak> candidates;
  const std::size_t end = config.searchEnd == 0 ? n : config.searchEnd;
  for (std::size_t i = config.searchBegin; i < end; ++i) {
    const double left = mag[(i + n - 1) % n];
    const double right = mag[(i + 1) % n];
    const double threshold =
        std::max(config.cfarFactor * medians[i], config.absoluteFloor);
    if (mag[i] >= threshold && mag[i] > left && mag[i] >= right)
      candidates.push_back({i, mag[i]});
  }
  if (config.minSeparationBins <= 1) return candidates;
  std::vector<Peak> byStrength = candidates;
  std::sort(byStrength.begin(), byStrength.end(),
            [](const Peak& a, const Peak& b) {
              return a.magnitude > b.magnitude;
            });
  std::vector<Peak> kept;
  for (const Peak& p : byStrength) {
    bool clear = true;
    for (const Peak& k : kept)
      if ((p.bin > k.bin ? p.bin - k.bin : k.bin - p.bin) <
          config.minSeparationBins)
        clear = false;
    if (clear) kept.push_back(p);
  }
  std::sort(kept.begin(), kept.end(),
            [](const Peak& a, const Peak& b) { return a.bin < b.bin; });
  return kept;
}

TEST(Peaks, MatchesNaiveCfarOracle) {
  // Seeded collision spectra of m = 1..32 transponders plus receiver
  // noise; every other one averaged over 4 queries, as the multi-query
  // counter sees it.
  const caraoke::core::SpectrumAnalyzer analyzer;
  const caraoke::phy::SamplingParams sampling;
  std::size_t compared = 0, peaksSeen = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(1000 + seed);
    const std::size_t m = 1 + seed % 32;
    const std::size_t queries = seed % 2 == 0 ? 1 : 4;
    std::vector<double> cfos(m);
    for (double& cfo : cfos) cfo = rng.uniform(0.0, 1.2e6);
    std::vector<double> mag(sampling.responseSamples(), 0.0);
    for (std::size_t q = 0; q < queries; ++q) {
      CVec sum(sampling.responseSamples(), cdouble{});
      for (double cfo : cfos) {
        const auto bits = caraoke::phy::Packet::encode(
            caraoke::phy::Packet::randomId(rng));
        const auto wave =
            caraoke::phy::modulateResponse(bits, sampling, cfo, rng.phase());
        for (std::size_t t = 0; t < sum.size(); ++t) sum[t] += wave[t];
      }
      for (cdouble& x : sum)
        x += cdouble(rng.gaussian(0, 0.05), rng.gaussian(0, 0.05));
      const auto qmag = analyzer.magnitudeSpectrum(sum);
      for (std::size_t i = 0; i < mag.size(); ++i)
        mag[i] += qmag[i] / static_cast<double>(queries);
    }
    const auto medians = naiveLocalMedians(mag, analyzer.config().peaks);

    for (double factor : {1.9, 2.4, 3.6})
      for (std::size_t separation : {2u, 4u})
        for (double floor : {0.0, 30.0})
          for (std::size_t end : {sampling.cfoBins() + 1, std::size_t{0}}) {
            PeakDetectorConfig config = analyzer.config().peaks;
            config.cfarFactor = factor;
            config.minSeparationBins = separation;
            config.absoluteFloor = floor;
            config.searchBegin = 0;
            config.searchEnd = end;
            const auto fast = findPeaks(mag, config);
            const auto naive = naiveCfarPeaks(mag, medians, config);
            ASSERT_EQ(fast.size(), naive.size())
                << "seed " << seed << " factor " << factor << " sep "
                << separation << " floor " << floor << " end " << end;
            for (std::size_t i = 0; i < fast.size(); ++i) {
              EXPECT_EQ(fast[i].bin, naive[i].bin) << "seed " << seed;
              EXPECT_EQ(fast[i].magnitude, naive[i].magnitude);
            }
            ++compared;
            peaksSeen += fast.size();
          }
  }
  EXPECT_EQ(compared, 1440u);
  EXPECT_GT(peaksSeen, 1440u);  // the grid exercises real detections
}

TEST(Peaks, QuadraticInterpolationRecoversOffset) {
  // Sample a parabola peaking at 100.3.
  std::vector<double> mag(200, 0.0);
  for (std::size_t i = 95; i < 106; ++i) {
    const double d = static_cast<double>(i) - 100.3;
    mag[i] = 10.0 - d * d;
  }
  EXPECT_NEAR(interpolatePeakOffset(mag, 100), 0.3, 1e-9);
}

TEST(Linalg, MultiplyIdentity) {
  Rng rng(7);
  CMatrix a(3, 3);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      a(r, c) = cdouble(rng.gaussian(0, 1), rng.gaussian(0, 1));
  const CMatrix prod = a.multiply(CMatrix::identity(3));
  EXPECT_NEAR(CMatrix::maxAbsDiff(a, prod), 0.0, 1e-12);
}

TEST(Linalg, HermitianEigenDecomposition) {
  // Build A = V D V^H with a known spectrum and recover it.
  Rng rng(8);
  const std::size_t n = 6;
  // Random Hermitian: B + B^H.
  CMatrix b(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      b(r, c) = cdouble(rng.gaussian(0, 1), rng.gaussian(0, 1));
  CMatrix a = b;
  const CMatrix bh = b.hermitian();
  a.addScaled(bh, 1.0);

  const EigenResult eig = eigHermitian(a);
  // Eigenvalues sorted descending.
  for (std::size_t i = 1; i < n; ++i)
    EXPECT_GE(eig.values[i - 1], eig.values[i] - 1e-9);
  // A v = lambda v for every pair.
  for (std::size_t c = 0; c < n; ++c) {
    CVec v(n);
    for (std::size_t r = 0; r < n; ++r) v[r] = eig.vectors(r, c);
    const CVec av = a.multiply(v);
    for (std::size_t r = 0; r < n; ++r)
      EXPECT_NEAR(std::abs(av[r] - eig.values[c] * v[r]), 0.0, 1e-7);
  }
  // Eigenvectors orthonormal.
  for (std::size_t c1 = 0; c1 < n; ++c1)
    for (std::size_t c2 = 0; c2 < n; ++c2) {
      CVec v1(n), v2(n);
      for (std::size_t r = 0; r < n; ++r) {
        v1[r] = eig.vectors(r, c1);
        v2[r] = eig.vectors(r, c2);
      }
      const double expected = c1 == c2 ? 1.0 : 0.0;
      EXPECT_NEAR(std::abs(innerProduct(v1, v2)), expected, 1e-8);
    }
}

TEST(Music, ResolvesTwoSourcesOnUniformLinearArray) {
  // 8-element half-wavelength ULA, two plane waves at 60 and 110 degrees.
  const std::size_t elements = 8;
  const double lambda = 0.33;
  const double d = lambda / 2.0;
  auto steering = [&](double theta) {
    CVec a(elements);
    for (std::size_t k = 0; k < elements; ++k) {
      const double phase =
          kTwoPi * d * static_cast<double>(k) * std::cos(theta) / lambda;
      a[k] = cdouble(std::cos(phase), std::sin(phase));
    }
    return a;
  };
  Rng rng(9);
  std::vector<CVec> snapshots;
  for (int s = 0; s < 64; ++s) {
    const cdouble g1 = std::polar(1.0, rng.phase());
    const cdouble g2 = std::polar(0.8, rng.phase());
    CVec x(elements);
    const CVec a1 = steering(deg2rad(60));
    const CVec a2 = steering(deg2rad(110));
    for (std::size_t k = 0; k < elements; ++k) {
      x[k] = g1 * a1[k] + g2 * a2[k] +
             cdouble(rng.gaussian(0, 0.02), rng.gaussian(0, 0.02));
    }
    snapshots.push_back(x);
  }
  MusicConfig config;
  config.numSources = 2;
  config.angleBeginRad = deg2rad(10);
  config.angleEndRad = deg2rad(170);
  config.angleSteps = 321;
  const auto spectrum =
      musicSpectrum(sampleCovariance(snapshots), steering, config);
  const auto peaks = musicPeaks(spectrum, 2, deg2rad(10));
  ASSERT_EQ(peaks.size(), 2u);
  std::vector<double> angles{rad2deg(peaks[0].angleRad),
                             rad2deg(peaks[1].angleRad)};
  std::sort(angles.begin(), angles.end());
  EXPECT_NEAR(angles[0], 60.0, 2.0);
  EXPECT_NEAR(angles[1], 110.0, 2.0);
}

TEST(SparseFft, RecoversExactTones) {
  const std::size_t n = 4096;
  Rng rng(10);
  const std::vector<std::size_t> bins{17, 500, 1333, 2900};
  CVec x(n, cdouble{});
  for (std::size_t b : bins) {
    const double phase0 = rng.phase();
    for (std::size_t t = 0; t < n; ++t) {
      const double angle =
          kTwoPi * static_cast<double>(b) * static_cast<double>(t) / n +
          phase0;
      x[t] += cdouble(std::cos(angle), std::sin(angle));
    }
  }
  SparseFftConfig config;
  config.buckets = 256;
  Rng sfftRng(11);
  const auto components = sparseFft(x, config, sfftRng);
  ASSERT_EQ(components.size(), bins.size());
  for (std::size_t i = 0; i < bins.size(); ++i) {
    EXPECT_EQ(components[i].bin, bins[i]);
    // Full-FFT convention: a unit tone has coefficient magnitude n.
    EXPECT_NEAR(std::abs(components[i].value), static_cast<double>(n),
                static_cast<double>(n) * 0.05);
  }
}

TEST(SparseFft, ToleratesNoise) {
  const std::size_t n = 4096;
  Rng rng(12);
  CVec x(n);
  for (auto& v : x)
    v = cdouble(rng.gaussian(0, 0.01), rng.gaussian(0, 0.01));
  const std::size_t bin = 777;
  for (std::size_t t = 0; t < n; ++t) {
    const double angle =
        kTwoPi * static_cast<double>(bin) * static_cast<double>(t) / n;
    x[t] += cdouble(std::cos(angle), std::sin(angle));
  }
  SparseFftConfig config;
  Rng sfftRng(13);
  const auto components = sparseFft(x, config, sfftRng);
  ASSERT_FALSE(components.empty());
  bool found = false;
  for (const auto& c : components)
    if (c.bin == bin) found = true;
  EXPECT_TRUE(found);
}

TEST(Filter, GoertzelMatchesDftBin) {
  Rng rng(14);
  CVec x(128);
  for (auto& v : x) v = cdouble(rng.gaussian(0, 1), rng.gaussian(0, 1));
  const CVec spectrum = fft(x);
  for (std::size_t k : {0u, 5u, 64u, 127u})
    EXPECT_NEAR(std::abs(goertzel(x, static_cast<double>(k)) - spectrum[k]),
                0.0, 1e-8);
}

TEST(Spectrum, BinMapperRoundTrip) {
  const BinMapper mapper(2048, 4e6);
  EXPECT_NEAR(mapper.binWidthHz(), 1953.125, 1e-9);
  EXPECT_EQ(mapper.freqToBin(100e3), 51u);
  EXPECT_NEAR(mapper.binToFreq(51), 51 * 1953.125, 1e-9);
  // Negative frequencies map to the top half.
  EXPECT_EQ(mapper.freqToBin(-mapper.binWidthHz()), 2047u);
  EXPECT_NEAR(mapper.binToFreq(2047), -1953.125, 1e-9);
}

TEST(Spectrum, MixShiftsTone) {
  const std::size_t n = 1024;
  const double fs = 4e6;
  CVec x(n, cdouble(1.0, 0.0));  // DC
  const CVec shifted = mix(x, 500e3, fs);
  const auto mag = magnitude(fft(shifted));
  const BinMapper mapper(n, fs);
  EXPECT_EQ(argmax(mag), mapper.freqToBin(500e3));
}


TEST(SpectrumAnalysis, FindsCarriersAtBothEndsOfTheCfoSpan) {
  // A carrier within half a bin of the LO peaks in bin 0, whose left
  // neighbor is the top of the spectrum (both for the peak test and the
  // sub-bin interpolation); one at the top of the 1.2 MHz span peaks in
  // the last searched bin.
  Rng rng(22);
  caraoke::phy::SamplingParams sampling;
  const std::vector<double> cfos{927.0, 480e3, 1.1995e6};
  CVec sum(sampling.responseSamples(), cdouble{});
  for (double cfo : cfos) {
    const auto bits = caraoke::phy::Packet::encode(
        caraoke::phy::Packet::randomId(rng));
    const auto wave =
        caraoke::phy::modulateResponse(bits, sampling, cfo, rng.phase());
    for (std::size_t t = 0; t < sum.size(); ++t) sum[t] += wave[t];
  }

  const caraoke::core::SpectrumAnalyzer analyzer;
  const auto observations = analyzer.analyze({sum});
  ASSERT_EQ(observations.size(), cfos.size());
  const double binHz = sampling.fftResolutionHz();
  EXPECT_LE(observations[0].bin, 1u);
  EXPECT_NEAR(observations[0].cfoHz, cfos[0], binHz / 8);
  EXPECT_NEAR(observations[1].cfoHz, cfos[1], binHz);
  EXPECT_EQ(observations[2].bin, sampling.cfoBins());
  EXPECT_NEAR(observations[2].cfoHz, cfos[2], binHz);
}

TEST(SparseFft, AnalyzerSparsePathMatchesFullFft) {
  // The §10 sparse FFT must find the same CFO spikes in the analyzer's
  // search range as the full-FFT analyzer on a realistic collision.
  Rng rng(20);
  caraoke::phy::SamplingParams sampling;
  const std::vector<double> cfos{150e3, 480e3, 910e3};
  CVec sum(sampling.responseSamples(), cdouble{});
  for (double cfo : cfos) {
    const auto bits = caraoke::phy::Packet::encode(
        caraoke::phy::Packet::randomId(rng));
    const auto wave =
        caraoke::phy::modulateResponse(bits, sampling, cfo, rng.phase());
    for (std::size_t t = 0; t < sum.size(); ++t) sum[t] += wave[t];
  }

  const caraoke::core::SpectrumAnalyzer analyzer;
  const auto full = analyzer.detectSpikes(analyzer.magnitudeSpectrum(sum));
  const PeakDetectorConfig& range = analyzer.config().peaks;
  Rng sparseRng(21);
  std::vector<std::size_t> sparse;
  for (const SparseComponent& c : sparseFft(sum, {}, sparseRng))
    if (c.bin >= range.searchBegin && c.bin < range.searchEnd)
      sparse.push_back(c.bin);

  ASSERT_EQ(full.size(), cfos.size());
  ASSERT_EQ(sparse.size(), cfos.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    const long gap =
        static_cast<long>(full[i].bin) - static_cast<long>(sparse[i]);
    EXPECT_LE(std::abs(gap), 1) << i;
  }
}

}  // namespace
}  // namespace caraoke::dsp
