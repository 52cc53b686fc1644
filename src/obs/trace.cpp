#include "obs/trace.hpp"

#include <atomic>
#include <chrono>

#include "common/thread_annotations.hpp"

namespace caraoke::obs {

namespace {

// Lock-free by design: non-owning sink pointer swapped whole.
std::atomic<TraceSink*> g_traceSink CARAOKE_LOCKFREE{nullptr};

thread_local int t_spanDepth = 0;
thread_local TraceContext t_traceContext{};

}  // namespace

double monotonicSeconds() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point start = clock::now();
  return std::chrono::duration<double>(clock::now() - start).count();
}

std::string traceHex(std::uint64_t id) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[id & 0xf];
    id >>= 4;
  }
  return out;
}

std::uint64_t parseTraceHex(const std::string& hex) {
  if (hex.size() != 16) return 0;
  std::uint64_t id = 0;
  for (char c : hex) {
    std::uint64_t nibble = 0;
    if (c >= '0' && c <= '9')
      nibble = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      nibble = static_cast<std::uint64_t>(c - 'a') + 10;
    else
      return 0;
    id = (id << 4) | nibble;
  }
  return id;
}

TraceContext currentTraceContext() { return t_traceContext; }

ScopedTraceContext::ScopedTraceContext(TraceContext context)
    : previous_(t_traceContext) {
  t_traceContext = context;
}

ScopedTraceContext::~ScopedTraceContext() { t_traceContext = previous_; }

void attachTraceSink(TraceSink* sink) {
  g_traceSink.store(sink, std::memory_order_release);
}

TraceSink* traceSink() {
  return g_traceSink.load(std::memory_order_acquire);
}

ObsSpan::ObsSpan(const char* name, Registry* registry)
    : name_(name),
      histogram_(&(registry != nullptr ? *registry : globalRegistry())
                      .histogram(name)) {
  begin();
}

ObsSpan::ObsSpan(const char* name, Histogram& histogram)
    : name_(name), histogram_(&histogram) {
  begin();
}

void ObsSpan::begin() {
  depth_ = t_spanDepth++;
  startSec_ = monotonicSeconds();
  if (TraceSink* sink = traceSink())
    sink->onSpanBegin(name_, depth_, startSec_);
}

ObsSpan::~ObsSpan() {
  const double end = monotonicSeconds();
  --t_spanDepth;
  histogram_->observe(end - startSec_);
  if (TraceSink* sink = traceSink()) {
    SpanRecord record;
    record.name = name_;
    record.depth = depth_;
    record.startSec = startSec_;
    record.endSec = end;
    record.traceId = t_traceContext.traceId;
    record.spanId = t_traceContext.spanId;
    sink->onSpanEnd(record);
  }
}

}  // namespace caraoke::obs
