// Request-level tracing: RAII scoped timers that feed duration
// histograms, plus an optional sink that sees each span's begin/end so a
// whole request (e.g. one ReaderDaemon measurement window) can be
// followed across threads and processes by its traceId.
//
//   {
//     obs::ObsSpan span("daemon.count", histogram);
//     ... work ...
//   }  // duration recorded into the histogram
//
// Spans time work in apps/ and net/ only. The reader's hot path in
// dsp/, phy/ and core/ is timed by CARAOKE_PROF_SCOPE (obs/prof.hpp)
// alone; the `wallclock` lint rule keeps spans out of those layers.
// Nesting is tracked per thread and a sink receives the depth with each
// begin/end. With no sink attached a span costs two steady_clock reads
// and one histogram observe.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace caraoke::obs {

/// Monotonic seconds since process start (steady clock); the timestamp
/// base shared by spans, events, and the log prefix.
double monotonicSeconds();

/// Cross-process trace identity: a traceId names one end-to-end journey
/// (minted per ReaderDaemon query burst) and spanId names the minting
/// span within it. traceId 0 means "no trace" so that zero-initialized
/// records and pre-v3 wire peers degrade gracefully.
struct TraceContext {
  std::uint64_t traceId = 0;
  std::uint64_t spanId = 0;
  bool valid() const { return traceId != 0; }
};

/// Canonical 16-hex-char lowercase rendering of a trace/span id, used in
/// event fields and /trace/<id> URLs (u64 does not fit a JSON int64).
std::string traceHex(std::uint64_t id);
/// Inverse of traceHex; returns 0 on malformed input (which is also the
/// "no trace" sentinel, so callers need no separate error path).
std::uint64_t parseTraceHex(const std::string& hex);

/// The calling thread's current trace context (invalid when none).
TraceContext currentTraceContext();

/// RAII guard installing a trace context for the enclosed scope; spans
/// and daemon events created inside pick it up implicitly. Restores the
/// previous context on destruction so scopes nest.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext context);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext previous_;
};

/// A finished span as delivered to sinks.
struct SpanRecord {
  std::string name;
  int depth = 0;        ///< 0 = top-level span on its thread.
  double startSec = 0;  ///< monotonicSeconds() at construction.
  double endSec = 0;
  std::uint64_t traceId = 0;  ///< 0 when no trace context was active.
  std::uint64_t spanId = 0;
};

/// Receives span begin/end notifications (same thread as the span).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void onSpanBegin(const char* name, int depth, double startSec) = 0;
  virtual void onSpanEnd(const SpanRecord& span) = 0;
};

/// Attach/detach the process-wide trace sink (non-owning; nullptr
/// detaches). The caller keeps the sink alive while attached.
void attachTraceSink(TraceSink* sink);
TraceSink* traceSink();

/// RAII scoped timer. The histogram lives in the given registry (global
/// by default) under the span's name; hot paths can pre-resolve the
/// histogram once and use the (name, histogram) constructor to skip the
/// per-span registry lookup.
class ObsSpan {
 public:
  explicit ObsSpan(const char* name, Registry* registry = nullptr);
  ObsSpan(const char* name, Histogram& histogram);
  ~ObsSpan();

  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
  void begin();
  const char* name_;
  Histogram* histogram_;
  double startSec_ = 0.0;
  int depth_ = 0;
};

}  // namespace caraoke::obs
