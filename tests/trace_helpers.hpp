// Shared trace-sink helpers for tests: a sink that records every span
// begin and end with the thread it ran on, and an RAII attach/detach for
// the process trace sink.
#pragma once

#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace caraoke::testhelpers {

/// One span begin or end as the sink saw it.
struct SpanEvent {
  bool begin = false;
  std::string name;
  int depth = 0;
  std::thread::id thread;
};

/// "+name@depth" for a begin, "-name@depth" for an end: compact enough
/// to compare whole nesting sequences with EXPECT_EQ.
inline std::string describe(const SpanEvent& event) {
  return (event.begin ? "+" : "-") + event.name + "@" +
         std::to_string(event.depth);
}

/// Captures every span begin and end (any thread) for post-run
/// assertions.
class RecordingTraceSink : public obs::TraceSink {
 public:
  void onSpanBegin(const char* name, int depth, double) override {
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back({true, name, depth, std::this_thread::get_id()});
  }
  void onSpanEnd(const obs::SpanRecord& span) override {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
    events_.push_back(
        {false, span.name, span.depth, std::this_thread::get_id()});
  }
  /// Finished spans, in the order they ended.
  std::vector<obs::SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }
  /// Begins and ends, in the order they arrived.
  std::vector<SpanEvent> events() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return events_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<obs::SpanRecord> spans_;
  std::vector<SpanEvent> events_;
};

/// RAII attach/detach for the process trace sink.
class ScopedTraceSink {
 public:
  explicit ScopedTraceSink(obs::TraceSink* sink)
      : previous_(obs::traceSink()) {
    obs::attachTraceSink(sink);
  }
  ~ScopedTraceSink() { obs::attachTraceSink(previous_); }

  ScopedTraceSink(const ScopedTraceSink&) = delete;
  ScopedTraceSink& operator=(const ScopedTraceSink&) = delete;

 private:
  obs::TraceSink* previous_;
};

}  // namespace caraoke::testhelpers
