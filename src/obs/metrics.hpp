// Telemetry metrics registry.
//
// The reader is an unattended embedded device; every perf or robustness
// question ("where did the active window's energy go, what fraction of
// decode attempts passed CRC?") starts from a counter someone remembered
// to bump. This module provides the three classic metric kinds —
// monotonic counters, settable gauges, and fixed-bucket histograms — with
// hierarchical dot names (`decoder.crc_pass`, `counter.spikes`),
// collected in a Registry that supports atomic snapshot + reset,
// Prometheus-style text exposition and JSON serialization.
//
// Hot-path cost: metric updates are relaxed atomics (an `inc()` is one
// fetch_add); name resolution takes a mutex, so hot code resolves handles
// once (`static obs::Counter& c = obs::globalRegistry().counter(...)`)
// and updates through the reference. Handles stay valid for the life of
// the registry — metrics are never removed, reset() only zeroes values.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.hpp"

namespace caraoke::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_ CARAOKE_LOCKFREE{0};
};

/// Last-written (or accumulated) scalar, e.g. an energy ledger or a queue
/// depth.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_ CARAOKE_LOCKFREE{0.0};
};

/// Fixed-bucket histogram with Prometheus semantics: `upperBounds` are the
/// inclusive bucket upper edges (`value <= bound`), an implicit +Inf
/// bucket catches the rest.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upperBounds);

  void observe(double value);

  const std::vector<double>& upperBounds() const { return bounds_; }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Per-bucket (non-cumulative) counts, bounds_.size() + 1 entries; the
  /// last entry is the +Inf bucket.
  std::vector<std::uint64_t> bucketCounts() const;
  void reset();

 private:
  std::vector<double> bounds_;  ///< Immutable after construction.
  std::vector<std::atomic<std::uint64_t>> buckets_ CARAOKE_LOCKFREE;
  std::atomic<std::uint64_t> count_ CARAOKE_LOCKFREE{0};
  std::atomic<double> sum_ CARAOKE_LOCKFREE{0.0};
};

/// Log-spaced latency buckets, 1 us .. 1 s — the default for span timers.
const std::vector<double>& defaultLatencyBucketsSec();

/// Point-in-time copies of metric values (names sorted).
struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};
struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
};
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  std::vector<double> upperBounds;
  std::vector<std::uint64_t> bucketCounts;  ///< Non-cumulative, +Inf last.

  /// Accumulate `other` into this snapshot bucket-by-bucket. Requires
  /// identical upperBounds (Prometheus merge semantics: histograms are
  /// only mergeable when their edges agree); returns false and leaves
  /// this snapshot untouched on a bound mismatch. An empty snapshot
  /// (no bounds, no buckets) adopts `other`'s shape — the natural
  /// accumulator seed for a cross-reader rollup.
  bool mergeFrom(const HistogramSnapshot& other);
};

/// Quantile over many readers' histograms of the same metric: merge every
/// snapshot (skipping bound-mismatched strays) and run histogramQuantile
/// on the sum. The fleet rollup uses this to turn 32 per-daemon latency
/// histograms into one city-wide p50/p99.
double mergedQuantile(const std::vector<HistogramSnapshot>& snapshots,
                      double q);
/// Quantile estimate from a bucketed snapshot, Prometheus
/// `histogram_quantile` style: find the bucket holding the q-th ranked
/// sample (q in [0, 1]) and interpolate linearly inside it. Conventions
/// for the degenerate cases the bench harness actually hits:
///   - empty histogram (count == 0) -> 0.0;
///   - samples in the +Inf bucket resolve to the last finite bound (the
///     histogram cannot say more than "beyond the last edge");
///   - the first bucket interpolates from 0 (or from its bound when the
///     bound is negative, where 0 would be an over-estimate).
double histogramQuantile(const HistogramSnapshot& snapshot, double q);

struct RegistrySnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Prometheus-style text exposition of this snapshot. Dot names are
  /// kept verbatim (`counter.phase_test.multi 3`); histograms expand to
  /// `<name>_bucket{le="..."} / _sum / _count` lines with cumulative
  /// bucket counts.
  std::string expositionText() const;
  /// One JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {"count": n, "sum": s, "buckets": [...]}}}.
  std::string jsonText() const;
};

/// Named metric store. Lookup creates on first use; a second lookup with
/// the same name returns the same instance, and a lookup whose name is
/// already bound to a different metric kind throws std::logic_error (a
/// naming bug worth failing loudly on).
class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `upperBounds` is only consulted on first creation.
  Histogram& histogram(std::string_view name,
                       const std::vector<double>& upperBounds =
                           defaultLatencyBucketsSec());

  RegistrySnapshot snapshot() const;
  /// Zero every metric (registrations persist; handles stay valid).
  void reset();

  std::string expositionText() const { return snapshot().expositionText(); }
  std::string jsonText() const { return snapshot().jsonText(); }

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& lookup(std::string_view name, Kind kind,
                const std::vector<double>* upperBounds);

  /// Guards the name->entry map; metric *values* behind the returned
  /// handles are atomics and never need it. lookup() takes the lock
  /// itself — callers must not hold it (non-recursive).
  mutable std::mutex mutex_;
  std::map<std::string, Entry, std::less<>> entries_ CARAOKE_GUARDED_BY(mutex_);
};

/// Process-wide default registry: the one static instrumentation
/// (dsp.*, counter.*, decoder.*, tracker.*, mac.*, net.*) reports to.
/// Per-instance components (e.g. ReaderDaemon) own private registries so
/// two instances never alias each other's counters.
Registry& globalRegistry();

}  // namespace caraoke::obs
