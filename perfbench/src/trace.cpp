#include <cstdio>

#include "perfbench.hpp"

namespace perfbench {

std::int32_t Tracer::open(const char* name) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.op = op_;
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(span);
  stack_.push_back(index);
  spans_.back().startNs = nowNs();
  return index;
}

void Tracer::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].endNs = nowNs();
  stack_.pop_back();
}

void Tracer::clear() {
  spans_.clear();
  stack_.clear();
  op_ = -1;
}

TraceSummary summarize(const std::vector<Span>& spans) {
  std::vector<std::int64_t> childNs(spans.size(), 0);
  for (const Span& s : spans)
    if (s.parent >= 0)
      childNs[static_cast<std::size_t>(s.parent)] += s.endNs - s.startNs;

  TraceSummary summary;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::int64_t selfNs = s.endNs - s.startNs - childNs[i];
    if (selfNs < 0) {
      ++summary.negativeSelfSpans;
      if (s.parent < 0 && s.op >= 0) ++summary.overcommittedOps;
    }
    LayerTotals& totals = summary.layers[s.name];
    ++totals.calls;
    totals.selfMs += static_cast<double>(selfNs) * 1e-6;
  }
  return summary;
}

bool writeSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"op\":%lld}\n",
                 i, s.name, static_cast<long long>(s.startNs),
                 static_cast<long long>(s.endNs), s.parent,
                 static_cast<long long>(s.op));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
