// Reader-pipeline benchmark: command-line entry point.
//
//   caraoke_perfbench --workload lot_count|gantry_decode|corridor_backend
//                     --seed N --seconds S --trace 0|1 [--trace-out PATH]
//
// Set-up (input synthesis + warm-up ops) runs kSetupReps times and its
// median is setup_s. Then a fixed sequence of round(S * opsPerSecond)
// ops runs on this thread, each timed from outside. --trace 1 runs that
// sequence twice more — untraced, then traced — and reports per-layer
// self time instead of the end-to-end metrics. The last line of stdout
// is one JSON object with the metrics and the correctness verdict.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "perfbench.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kSetupReps = 3;

const WorkloadSpec kSpecs[] = {
    {"lot_count", 48, 16, 15.0, makeLotCount},
    {"gantry_decode", 192, 4, 40.0, makeGantryDecode},
    {"corridor_backend", 0, 100, 95.0, makeCorridorBackend},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string traceOut;
};

bool parseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload")
      args.workload = value;
    else if (key == "--seed")
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds")
      args.seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--trace")
      args.trace = value == "1";
    else if (key == "--trace-out")
      args.traceOut = value;
    else
      return false;
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

struct Pass {
  std::vector<double> opMs;
  double work = 0.0;
  std::size_t failed = 0;
  double qualityPct = 0.0;
  Counts counts;
  bool finalOk = true;
};

/// Fresh pipeline, untimed warm-up ops, then the timed ops.
Pass runPass(Workload& workload, const WorkloadSpec& spec,
             std::size_t timedOps, Tracer& tracer, bool traced) {
  workload.resetPipeline();
  tracer.enable(false);
  for (std::size_t i = 0; i < spec.warmupOps; ++i) {
    workload.prepareOp(i);
    (void)workload.runOp(i, tracer);
  }
  workload.startCounting();
  tracer.enable(traced);

  Pass pass;
  pass.opMs.reserve(timedOps);
  for (std::size_t k = 0; k < timedOps; ++k) {
    const std::size_t index = spec.warmupOps + k;
    workload.prepareOp(index);
    tracer.setOp(static_cast<std::int64_t>(index));
    OpOutcome outcome;
    const std::int64_t start = nowNs();
    try {
      SpanScope op(tracer, "op");
      outcome = workload.runOp(index, tracer);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "op %zu threw: %s\n", index, e.what());
      outcome.ok = false;
    }
    pass.opMs.push_back(static_cast<double>(nowNs() - start) * 1e-6);
    pass.work += outcome.work;
    if (!outcome.ok) ++pass.failed;
  }
  tracer.enable(false);
  tracer.setOp(-1);
  pass.finalOk = workload.finalCheck();
  pass.qualityPct = workload.qualityPct();
  pass.counts = workload.counts();
  return pass;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The op time with exactly ten ops above it (the highest percentile that
/// keeps ten samples beyond it); the maximum when there are fewer ops.
double tail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.size() > 10 ? v[v.size() - 11] : v.back();
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string metric(const std::string& name, double value, const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                name.c_str(), std::isfinite(value) ? value : -1.0, unit);
  return buf;
}

/// Count-type per-layer metrics; a workload that does not reach a layer
/// reports 0 for it.
const std::vector<std::string> kCountNames = {
    "core.counter.exact_ratio",       "core.counter.mean_abs_err",
    "core.counter.dense_ratio",       "core.analyze.obs_per_query",
    "core.tracker.confirmed_tracks",
    "net.outbox.bytes_per_window",    "core.decoder.decoded_ratio",
    "core.decoder.wrong_ids",         "core.decoder.combines_per_id",
    "net.backend.ingest.dedup_ratio", "net.backend.ingest.gaps",
    "net.backend.fuse.pending_mean",  "net.backend.fuse.fixes",
    "net.backend.fuse.fix_ok_ratio",  "net.backend.pair.samples_retained",
    "net.backend.pair.speed_ok_ratio",
};

const char* countUnit(const std::string& name) {
  if (name.ends_with("_ratio")) return "ratio";
  if (name.ends_with("bytes_per_window")) return "bytes";
  return "count";
}

int run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : kSpecs)
    if (args.workload == s.name) spec = &s;
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const auto timedOps = static_cast<std::size_t>(
      std::max(1.0, std::round(args.seconds * spec->opsPerSecond)));
  const std::size_t totalOps = spec->warmupOps + timedOps;
  const std::size_t units = spec->units > 0 ? spec->units : totalOps;

  // Set-up, repeated. Only the last repetition's sim spans are kept.
  Tracer tracer;
  tracer.reserve(1 << 16);
  std::unique_ptr<Workload> workload;
  std::vector<double> setupSec;
  std::vector<std::uint64_t> digests;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    workload.reset();
    tracer.clear();
    tracer.enable(args.trace);
    const std::int64_t start = nowNs();
    workload = spec->make();
    workload->synthesize(args.seed, units, tracer);
    tracer.enable(false);
    workload->resetPipeline();
    for (std::size_t i = 0; i < spec->warmupOps; ++i) {
      workload->prepareOp(i);
      (void)workload->runOp(i, tracer);
    }
    setupSec.push_back(static_cast<double>(nowNs() - start) * 1e-9);
    digests.push_back(workload->inputDigest());
  }

  // Determinism of the inputs: every set-up of this seed synthesized the
  // same bytes, and the next seed synthesizes different ones.
  bool correct = std::all_of(digests.begin(), digests.end(),
                             [&](std::uint64_t d) { return d == digests[0]; });
  {
    Tracer off;
    auto a = spec->make();
    auto b = spec->make();
    a->synthesize(args.seed, 1, off);
    b->synthesize(args.seed + 1, 1, off);
    if (a->inputDigest() == b->inputDigest()) {
      std::fprintf(stderr, "seed %" PRIu64 " and %" PRIu64
                   " synthesized identical inputs\n",
                   args.seed, args.seed + 1);
      correct = false;
    }
  }

  const Pass plain = runPass(*workload, *spec, timedOps, tracer, false);
  std::size_t attempted = timedOps;
  std::size_t failed = plain.failed;
  correct = correct && plain.finalOk;

  std::vector<std::string> out;
  if (!args.trace) {
    double totalSec = 0.0;
    for (double ms : plain.opMs) totalSec += ms * 1e-3;
    out.push_back(metric("setup_s", median(setupSec), "s"));
    out.push_back(metric("op_p50_ms", median(plain.opMs), "ms"));
    out.push_back(metric("op_tail_ms", tail(plain.opMs), "ms"));
    out.push_back(metric("work_per_s", plain.work / totalSec, "1/s"));
    out.push_back(metric("quality_pct", plain.qualityPct, "%"));
    out.push_back(metric(
        "ok_pct",
        100.0 * (1.0 - static_cast<double>(failed) /
                           static_cast<double>(attempted)),
        "%"));
    out.push_back(metric("peak_rss_mb", peakRssMb(), "MB"));
  } else {
    const Pass traced = runPass(*workload, *spec, timedOps, tracer, true);
    attempted += timedOps;
    failed += traced.failed;
    correct = correct && traced.finalOk;
    // Same inputs, same pipeline: outputs must repeat exactly.
    if (traced.counts != plain.counts ||
        traced.qualityPct != plain.qualityPct) {
      std::fprintf(stderr, "traced pass outputs differ from untraced pass\n");
      correct = false;
    }
    const TraceSummary summary = summarize(tracer.spans());
    if (summary.overcommittedOps > 0 || summary.negativeSelfSpans > 0) {
      std::fprintf(stderr, "%zu spans with negative self time\n",
                   summary.negativeSelfSpans);
      failed += summary.overcommittedOps;
      correct = false;
    }
    if (!args.traceOut.empty() && !writeSpans(tracer.spans(), args.traceOut)) {
      std::fprintf(stderr, "cannot write %s\n", args.traceOut.c_str());
      correct = false;
    }
    for (const std::string& layer : timedLayers()) {
      const auto it = summary.layers.find(layer);
      const LayerTotals totals =
          it != summary.layers.end() ? it->second : LayerTotals{};
      out.push_back(metric(layer + ".calls",
                           static_cast<double>(totals.calls), "count"));
      out.push_back(metric(layer + ".busy_ms", totals.selfMs, "ms"));
      out.push_back(metric(layer + ".mean_us",
                           totals.calls > 0 ? totals.selfMs * 1e3 /
                                                  static_cast<double>(totals.calls)
                                            : 0.0,
                           "us"));
    }
    for (const std::string& name : kCountNames) {
      const auto it = traced.counts.find(name);
      out.push_back(metric(name, it != traced.counts.end() ? it->second : 0.0,
                           countUnit(name)));
    }
    const double p50 = median(plain.opMs);
    out.push_back(metric("trace.overhead_pct",
                         100.0 * (median(traced.opMs) - p50) / p50, "%"));
    out.push_back(metric("fail_pct",
                         100.0 * static_cast<double>(failed) /
                             static_cast<double>(attempted),
                         "%"));
  }
  correct = correct && failed == 0;

  std::fprintf(stderr,
               "%s seed=%" PRIu64 " ops=%zu (+%zu warm-up) tail=p%.1f "
               "digest=%016" PRIx64 "\n",
               spec->name, args.seed, timedOps, spec->warmupOps,
               timedOps > 10 ? 100.0 * static_cast<double>(timedOps - 10) /
                                   static_cast<double>(timedOps)
                             : 100.0,
               digests[0]);
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i)
    json += (i > 0 ? ", " : "") + out[i];
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: caraoke_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-out PATH]\n");
    return 2;
  }
  return perfbench::run(args);
}
