// Telemetry demo and self-check: run the reader firmware loop over a
// small toll-plaza scene with every sink attached, then dump what an
// operator would scrape — the Prometheus-style exposition text (global +
// per-daemon registries), the profiler's folded call-path stacks of the
// reader pipeline, and a JSON-lines event log.
//
// Usage: telemetry_dump [events.jsonl]
//
// Exits nonzero if the dump fails its own acceptance checks (every event
// line must parse, the exposition must span the counter/decoder/daemon/
// net metric families, and a profiler build must have timed dsp.fft).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>

#include "apps/reader_daemon.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "net/backend.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "sim/scene.hpp"

using namespace caraoke;

namespace {

sim::ReaderNode makeReader(double x, double y, double tiltDeg) {
  sim::ReaderNode reader;
  reader.pole.base = {x, y, 0.0};
  reader.pole.heightMeters = feet(12.5);
  reader.tiltRad = deg2rad(tiltDeg);
  return reader;
}

// Distinct metric names per family prefix in an exposition dump.
std::set<std::string> metricNames(const obs::RegistrySnapshot& snap) {
  std::set<std::string> names;
  for (const auto& c : snap.counters) names.insert(c.name);
  for (const auto& g : snap.gauges) names.insert(g.name);
  for (const auto& h : snap.histograms) names.insert(h.name);
  return names;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string eventsPath =
      argc > 1 ? argv[1] : "telemetry_events.jsonl";

  obs::JsonLinesFileSink eventFile(eventsPath);
  if (!eventFile.ok()) {
    std::fprintf(stderr, "cannot open %s for writing\n", eventsPath.c_str());
    return 1;
  }
  obs::attachEventSink(&eventFile);

  // A plaza lane: one gantry reader, four parked/tagged cars in range.
  Rng rng(21);
  sim::Scene scene(sim::Road{});
  scene.addReader(makeReader(0.0, -6.0, 60.0));
  phy::EmpiricalCfoModel cfoModel;
  for (int i = 0; i < 4; ++i)
    scene.addCar(sim::Transponder::random(cfoModel, rng),
                 std::make_unique<sim::ParkedMobility>(
                     phy::Vec3{-14.0 + 7.0 * i, 2.0, 1.2}));

  apps::ReaderDaemonConfig config;
  config.uplinkPeriodSec = 10.0;
  apps::ReaderDaemon daemon(config, scene, 0, rng.fork());
  daemon.runUntil(30.0);

  // Close the loop: the backend ingests what the daemon uplinked, which
  // drives the net.backend.* counters.
  net::Backend backend;
  for (const auto& frame : daemon.takeUplink()) {
    const auto batch = net::decodeBatch(frame);
    if (!batch.ok()) continue;
    for (const auto& message : batch.value().messages) backend.ingest(message);
  }
  backend.fuse(30.0);

  obs::attachEventSink(nullptr);

  std::printf("# ---- global registry (process-wide instrumentation) ----\n");
  std::printf("%s", obs::globalRegistry().expositionText().c_str());
  std::printf("\n# ---- daemon registry (per-instance) ----\n");
  std::printf("%s", daemon.registry().expositionText().c_str());
  std::printf("\n# ---- profiler call paths (folded, self cycles) ----\n");
  std::printf("%s", obs::prof::foldedText().c_str());
  std::printf("\n# wrote %zu events to %s\n", eventFile.linesWritten(),
              eventsPath.c_str());

  // ---- self-checks ---------------------------------------------------
  int failures = 0;

  // (a) The combined exposition spans the four instrumented families,
  // and the profiler (when compiled in) timed the FFTs under them.
  std::set<std::string> names = metricNames(obs::globalRegistry().snapshot());
  names.merge(metricNames(daemon.registry().snapshot()));
  const char* families[] = {"counter.", "decoder.", "daemon.", "net."};
  std::size_t covered = 0;
  for (const char* family : families) {
    bool present = false;
    for (const auto& name : names)
      if (name.rfind(family, 0) == 0) present = true;
    if (present) {
      ++covered;
    } else {
      std::fprintf(stderr, "FAIL: no metrics in family %s\n", family);
      ++failures;
    }
  }
  if (obs::prof::kCompiledIn) {
    std::uint64_t fftCalls = 0;
    for (const auto& stage : obs::prof::snapshot().stages)
      if (stage.name == "dsp.fft") fftCalls = stage.calls;
    if (fftCalls == 0) {
      std::fprintf(stderr, "FAIL: the profiler recorded no dsp.fft calls\n");
      ++failures;
    }
  }
  if (names.size() < 12) {
    std::fprintf(stderr, "FAIL: only %zu distinct metric names (< 12)\n",
                 names.size());
    ++failures;
  }

  // (b) Every emitted event line parses back.
  std::FILE* f = std::fopen(eventsPath.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr, "FAIL: cannot re-open %s\n", eventsPath.c_str());
    ++failures;
  } else {
    char buf[4096];
    std::size_t lines = 0;
    std::size_t bad = 0;
    while (std::fgets(buf, sizeof buf, f) != nullptr) {
      std::string line(buf);
      while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
        line.pop_back();
      if (!obs::parseJsonLine(line).has_value()) {
        std::fprintf(stderr, "FAIL: unparseable event line: %s\n",
                     line.c_str());
        ++bad;
      }
      ++lines;
    }
    std::fclose(f);
    if (lines == 0 || lines != eventFile.linesWritten() || bad > 0)
      ++failures;
    std::printf("# validated %zu event lines (%zu bad)\n", lines, bad);
  }

  std::printf("# %zu distinct metrics across %zu/4 families\n", names.size(),
              covered);
  return failures == 0 ? 0 : 1;
}
