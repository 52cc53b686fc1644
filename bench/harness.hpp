// Unified bench entry point. Every bench binary's `main` is one call:
//
//   int main(int argc, char** argv) {
//     return bench::benchMain(argc, argv, "fig11 — counting accuracy",
//                             [](const bench::BenchArgs& args,
//                                obs::Registry& results) { ... });
//   }
//
// The harness owns the argv plumbing the benches used to copy-paste:
// it extracts `--json <path>`, hands the scenario its remaining
// positional arguments and a results registry, stamps the scenario's
// wall time into `bench.wall_seconds`, and writes the machine-readable
// report tools/benchgate.py consumes:
//
//   {"bench":     <results registry>,      figures the table printed
//    "process":   <global registry>,       pipeline work (counter.spikes…)
//    "quantiles": {hist: {p50,p90,p99}},   span-latency percentiles
//    "profile":   <prof::jsonText()>}      per-stage cycles/allocs
//
// When the hot-path profiler is compiled in, the harness also publishes
// its headline figures into the results registry so benchgate.py can
// gate on them (`dsp.allocs_per_burst` may never grow), and honors
// `--prof-folded <path>` to dump the collapsed-stack flamegraph at exit.
//
// Google-benchmark binaries get the same contract from gbenchMain in
// harness_gbench.hpp.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace caraoke::bench {

/// Positional arguments remaining after the harness flags are removed.
struct BenchArgs {
  std::vector<std::string> positional;

  /// positional[index] parsed as a count, or `fallback` when absent or
  /// unparsable — the "runs per point" convention every bench uses.
  std::size_t sizeAt(std::size_t index, std::size_t fallback) const;
};

/// A bench body: fill `results` with the figures the run produced;
/// non-zero return fails the binary (and the benchgate run).
using ScenarioFn = std::function<int(const BenchArgs&, obs::Registry&)>;

/// Shared main. `title` becomes the printBanner header (empty skips the
/// banner, for scenarios that print their own).
int benchMain(int argc, char** argv, const std::string& title,
              const ScenarioFn& scenario);

/// Extract `--json <path>` from argv (removing both tokens so positional
/// arguments keep working); "" when absent.
std::string takeJsonPath(int& argc, char** argv);

/// Extract `--prof-folded <path>` from argv the same way; "" when absent.
std::string takeProfFoldedPath(int& argc, char** argv);

/// Publish the profiler's headline figures into `results` as gauges:
/// prof.bursts, dsp.allocs_per_burst / dsp.bytes_per_burst (only when at
/// least one burst ran), and prof.<stage>.cycles_p50 / .cycles_p99 /
/// .calls per instrumented stage. No-op when the profiler is compiled
/// out or recorded nothing.
void publishProfile(obs::Registry& results);

/// Write prof::foldedText() to `path` (no-op on ""). False on I/O error.
bool writeFoldedDump(const std::string& path);

/// Write the consolidated report (see file header) for `results` plus
/// the process-global registry. False on I/O failure.
bool writeJsonReport(const std::string& path, const obs::Registry& results);

}  // namespace caraoke::bench
