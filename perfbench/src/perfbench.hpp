// Reader-pipeline benchmark: shared types.
//
// A workload synthesizes its inputs from a seed (set-up), then replays a
// fixed sequence of ops through the library's public APIs on one thread.
// Ops are timed from outside; in traced mode each public call is wrapped
// in a span recorded in memory (see Tracer).
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/aoa.hpp"

namespace perfbench {

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One recorded span. `op` is the op index, or -1 for set-up work.
struct Span {
  const char* name = "";
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::int32_t parent = -1;
  std::int64_t op = -1;
};

/// In-memory span recorder. Disabled, it records nothing and costs one
/// branch per scope.
class Tracer {
 public:
  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void setOp(std::int64_t op) { op_ = op; }
  void reserve(std::size_t spans) { spans_.reserve(spans); }
  std::int32_t open(const char* name);
  void close(std::int32_t index);
  const std::vector<Span>& spans() const { return spans_; }
  void clear();

 private:
  bool enabled_ = false;
  std::int64_t op_ = -1;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span around one call into a layer.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.enabled() ? tracer.open(name) : -1) {}
  ~SpanScope() {
    if (index_ >= 0) tracer_.close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t index_;
};

/// Layers timed in traced mode, in report order.
inline const std::vector<std::string>& timedLayers() {
  static const std::vector<std::string> layers = {
      "sim.capture",        "core.counter",         "core.analyze",
      "core.aoa",           "core.tracker",         "net.outbox",
      "core.decoder",       "net.backend.ingest",   "net.backend.fuse",
      "net.backend.pair"};
  return layers;
}

struct LayerTotals {
  std::uint64_t calls = 0;
  double selfMs = 0.0;
};

struct TraceSummary {
  std::map<std::string, LayerTotals> layers;
  /// Ops whose layer spans cover more time than the op span itself.
  std::size_t overcommittedOps = 0;
  /// Spans whose own children outlast them (negative self time).
  std::size_t negativeSelfSpans = 0;
};

/// Per-layer self time (span duration minus time covered by its direct
/// children) over every recorded span, plus the busy <= op check.
TraceSummary summarize(const std::vector<Span>& spans);

/// Write spans as JSON lines; false when the file cannot be written.
bool writeSpans(const std::vector<Span>& spans, const std::string& path);

/// Result of one op.
struct OpOutcome {
  /// False when the op threw, returned an error on valid input, or broke
  /// an output invariant.
  bool ok = true;
  /// Units of useful work the op completed (windows, bursts, reports).
  double work = 0.0;
};

/// Count-type per-layer metrics, by metric name. Values depend only on
/// the inputs, so they repeat exactly across runs of one seed.
using Counts = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Synthesize `units` input units (windows, bursts, ticks) from the
  /// seed. Simulator calls are wrapped in sim.capture spans.
  virtual void synthesize(std::uint64_t seed, std::size_t units,
                          Tracer& tracer) = 0;
  /// FNV-1a digest over the synthesized inputs.
  virtual std::uint64_t inputDigest() const = 0;
  /// Fresh pipeline state and zeroed counts; inputs are kept.
  virtual void resetPipeline() = 0;
  /// Stage op `index`'s inputs; runs untimed, before runOp.
  virtual void prepareOp(std::size_t /*index*/) {}
  /// Run op `index` of the sequence (0-based, warm-up ops included).
  virtual OpOutcome runOp(std::size_t index, Tracer& tracer) = 0;
  /// Begin accumulating quality and counts (called after warm-up).
  virtual void startCounting() = 0;
  /// Quality over the counted ops, in percent.
  virtual double qualityPct() const = 0;
  virtual Counts counts() const = 0;
  /// Check made after the last op (conservation laws over the whole
  /// pass); false on a violation.
  virtual bool finalCheck() { return true; }
};

struct WorkloadSpec {
  const char* name;
  /// Input units synthesized in set-up and replayed in turn; 0 = one
  /// unit per op of the sequence.
  std::size_t units;
  /// Warm-up ops run in set-up, before the timed sequence.
  std::size_t warmupOps;
  /// Timed ops per second of --seconds (fixed, not measured).
  double opsPerSecond;
  std::unique_ptr<Workload> (*make)();
};

std::unique_ptr<Workload> makeLotCount();
std::unique_ptr<Workload> makeGantryDecode();
std::unique_ptr<Workload> makeCorridorBackend();

/// The pair ReaderDaemon reports sightings on: the most road-parallel
/// baseline (the daemon keeps this choice private).
inline std::size_t roadPairOf(const caraoke::core::ArrayGeometry& geometry) {
  std::size_t best = 0;
  double bestAlign = -1.0;
  for (std::size_t p = 0; p < geometry.pairs.size(); ++p) {
    const double align = std::abs(geometry.baselineDirection(p).x);
    if (align > bestAlign) {
      bestAlign = align;
      best = p;
    }
  }
  return best;
}

/// FNV-1a over raw bytes, chained through `h`.
inline std::uint64_t fnv1a(const void* data, std::size_t size,
                           std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
