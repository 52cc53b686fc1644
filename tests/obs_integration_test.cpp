// End-to-end telemetry test: run the reader firmware loop against a
// simulated scene with an event sink attached and check that (a) the
// domain-event stream tells the §10 story in order — query burst, count,
// decode attempt, uplink flush — (b) DaemonStats is exactly the registry
// (it is a view, so any disagreement is a bug in the view), (c) the
// global registry and the profiler pick up the pipeline end to end
// through the backend, and (d) the trace spans nest like a window.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/reader_daemon.hpp"
#include "common/rng.hpp"
#include "net/backend.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"
#include "scenes_helpers.hpp"
#include "sim/scene.hpp"
#include "trace_helpers.hpp"

namespace caraoke {
namespace {

sim::Scene parkedScene(Rng& rng, std::size_t cars) {
  sim::Scene scene(sim::Road{});
  scene.addReader(testhelpers::makeReader(0.0, -6.0, 60.0));
  phy::EmpiricalCfoModel cfoModel;
  for (std::size_t i = 0; i < cars; ++i)
    scene.addCar(sim::Transponder::random(cfoModel, rng),
                 std::make_unique<sim::ParkedMobility>(phy::Vec3{
                     -12.0 + 8.0 * static_cast<double>(i), 2.0, 1.2}));
  return scene;
}

/// Calls the profiler has recorded for one stage so far (0 when the
/// profiler is compiled out).
std::uint64_t stageCalls(const std::string& stage) {
  for (const auto& s : obs::prof::snapshot().stages)
    if (s.name == stage) return s.calls;
  return 0;
}

double firstTs(const std::vector<obs::Event>& events, const std::string& type) {
  for (const auto& e : events)
    if (e.type == type) return e.ts;
  return -1.0;
}

std::size_t countType(const std::vector<obs::Event>& events,
                      const std::string& type) {
  std::size_t n = 0;
  for (const auto& e : events)
    if (e.type == type) ++n;
  return n;
}

TEST(ObsIntegration, DaemonEmitsPipelineEventSequence) {
  obs::MemoryEventSink sink;
  obs::ScopedEventSink scoped(&sink);

  Rng rng(11);
  sim::Scene scene = parkedScene(rng, 3);
  apps::ReaderDaemonConfig config;
  config.uplinkPeriodSec = 10.0;
  apps::ReaderDaemon daemon(config, scene, 0, rng.fork());
  daemon.runUntil(30.0);

  const auto events = sink.events();
  ASSERT_FALSE(events.empty());

  // Every stage of the pipeline shows up.
  const double queryTs = firstTs(events, "daemon.query_burst");
  const double countTs = firstTs(events, "daemon.count");
  const double decodeTs = firstTs(events, "daemon.decode_attempt");
  const double uplinkTs = firstTs(events, "daemon.uplink_flush");
  ASSERT_GE(queryTs, 0.0);
  ASSERT_GE(countTs, 0.0);
  ASSERT_GE(decodeTs, 0.0);  // needs a confirmed track: a few windows in
  ASSERT_GE(uplinkTs, 0.0);
  EXPECT_LE(queryTs, countTs);
  EXPECT_LE(countTs, decodeTs);

  // Within each measurement window (events sharing a sim-time "t") the
  // daemon stages appear in pipeline order: query burst, count, decode
  // attempt, uplink flush.
  const auto stageRank = [](const std::string& type) {
    if (type == "daemon.query_burst") return 0;
    if (type == "daemon.count") return 1;
    if (type == "daemon.decode_attempt") return 2;
    if (type == "daemon.uplink_flush") return 3;
    return -1;  // other event types are unordered w.r.t. the stages
  };
  double windowT = -1.0;
  int lastRank = -1;
  for (const auto& event : events) {
    const int rank = stageRank(event.type);
    if (rank < 0) continue;
    const obs::FieldValue* t = event.find("t");
    ASSERT_NE(t, nullptr) << event.type;
    const double simT = std::get<double>(*t);
    if (simT != windowT) {
      windowT = simT;
      lastRank = -1;
    }
    EXPECT_GE(rank, lastRank) << event.type << " out of order at t=" << simT;
    lastRank = rank;
  }

  // One query burst and one count per measurement window.
  EXPECT_EQ(countType(events, "daemon.query_burst"),
            daemon.stats().measurements);
  EXPECT_EQ(countType(events, "daemon.count"), daemon.stats().measurements);
  EXPECT_EQ(countType(events, "daemon.uplink_flush"),
            daemon.stats().uplinkFlushes);

  // Parked cars get tracks: the tracker narrates openings.
  EXPECT_GE(countType(events, "tracker.track_opened"), 3u);

  // Timestamps are monotone non-decreasing (single-threaded daemon).
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_GE(events[i].ts, events[i - 1].ts);

  // Event payloads carry the schema fields round-trippably.
  for (const auto& event : events) {
    const auto parsed = obs::parseJsonLine(obs::toJsonLine(event));
    ASSERT_TRUE(parsed.has_value()) << event.type;
    EXPECT_EQ(parsed->type, event.type);
    ASSERT_NE(event.find("t"), nullptr) << event.type;
  }
}

TEST(ObsIntegration, DaemonStatsAgreesWithRegistry) {
  Rng rng(12);
  sim::Scene scene = parkedScene(rng, 2);
  apps::ReaderDaemonConfig config;
  config.uplinkPeriodSec = 10.0;
  apps::ReaderDaemon daemon(config, scene, 0, rng.fork());
  daemon.runUntil(25.0);

  const apps::DaemonStats& stats = daemon.stats();
  obs::Registry& reg = daemon.registry();
  EXPECT_EQ(stats.measurements, reg.counter("daemon.measurements").value());
  EXPECT_EQ(stats.queriesSent, reg.counter("daemon.queries_sent").value());
  EXPECT_EQ(stats.decodedIds, reg.counter("daemon.decoded_ids").value());
  EXPECT_EQ(stats.uplinkFlushes, reg.counter("daemon.uplink_flushes").value());
  EXPECT_EQ(stats.uplinkBytes, reg.counter("daemon.uplink_bytes").value());
  EXPECT_DOUBLE_EQ(stats.energyJoules,
                   reg.gauge("daemon.energy_joules").value());

  // The window histogram saw one observation per measurement.
  EXPECT_EQ(reg.histogram("daemon.measurement_window.seconds").count(),
            stats.measurements);

  // Sanity: the run actually did work.
  EXPECT_GE(stats.measurements, 25u);
  EXPECT_GT(stats.queriesSent, 0u);
  EXPECT_GT(stats.energyJoules, 0.0);
}

TEST(ObsIntegration, TwoDaemonsDoNotAliasCounters) {
  Rng rng(13);
  sim::Scene scene = parkedScene(rng, 2);
  scene.addReader(testhelpers::makeReader(30.0, -6.0, 120.0));
  apps::ReaderDaemonConfig config;
  apps::ReaderDaemon a(config, scene, 0, rng.fork());
  apps::ReaderDaemon b(config, scene, 1, rng.fork());
  a.runUntil(10.0);
  b.runUntil(5.0);
  EXPECT_GE(a.stats().measurements, 10u);
  EXPECT_GE(b.stats().measurements, 5u);
  EXPECT_NE(a.stats().measurements, b.stats().measurements);
  EXPECT_NE(&a.registry().counter("daemon.measurements"),
            &b.registry().counter("daemon.measurements"));
}

TEST(ObsIntegration, GlobalRegistrySeesPipelineAndBackendCounters) {
  obs::Registry& global = obs::globalRegistry();
  const std::uint64_t fftBefore = stageCalls("dsp.fft");
  const std::uint64_t countBefore =
      global.counter("counter.count_calls").value();
  const std::uint64_t framesBefore =
      global.counter("net.backend.frames_ingested").value();
  const std::uint64_t countReportsBefore =
      global.counter("net.backend.count_reports").value();

  Rng rng(14);
  sim::Scene scene = parkedScene(rng, 3);
  apps::ReaderDaemonConfig config;
  config.uplinkPeriodSec = 10.0;
  apps::ReaderDaemon daemon(config, scene, 0, rng.fork());
  daemon.runUntil(20.0);

  net::Backend backend;
  std::size_t batches = 0;
  std::size_t reports = 0;
  for (const auto& frame : daemon.takeUplink()) {
    const auto messages = net::decodeBatch(frame);
    ASSERT_TRUE(messages.ok()) << messages.error();
    for (const auto& m : messages.value().messages) backend.ingest(m);
    reports += messages.value().messages.size();
    ++batches;
  }
  ASSERT_GT(batches, 0u);
  ASSERT_GT(reports, 0u);

  // Single-message frames go through ingestFrame, which also counts.
  const net::Message single{net::CountReport{config.readerId, 1.0, 3}};
  ASSERT_TRUE(backend.ingestFrame(net::encodeMessage(single)).ok());

  if (obs::prof::kCompiledIn) {
    EXPECT_GT(stageCalls("dsp.fft"), fftBefore);
  }
  EXPECT_GT(global.counter("counter.count_calls").value(), countBefore);
  EXPECT_EQ(global.counter("net.backend.frames_ingested").value(),
            framesBefore + 1);
  EXPECT_GT(global.counter("net.backend.count_reports").value(),
            countReportsBefore);

  // The CRC ledger moved: decode attempts ran against real collisions.
  EXPECT_GT(global.counter("decoder.crc_pass").value() +
                global.counter("decoder.crc_fail").value(),
            0u);
}

TEST(ObsIntegration, SpanTreeMirrorsWindowStructure) {
  testhelpers::RecordingTraceSink sink;
  const std::uint64_t multiCountBefore = stageCalls("core.multi_count");

  Rng rng(15);
  sim::Scene scene = parkedScene(rng, 2);
  apps::ReaderDaemonConfig config;
  apps::ReaderDaemon daemon(config, scene, 0, rng.fork());
  {
    testhelpers::ScopedTraceSink attached(&sink);
    daemon.runUntil(5.0);
  }

  // Each top-level span is a measurement window and its children are
  // the pipeline stages, in execution order.
  std::uint64_t windows = 0;
  bool inFirstWindow = false;
  std::vector<std::string> firstWindowChildren;
  for (const auto& event : sink.events()) {
    if (event.depth == 0) {
      EXPECT_EQ(event.name, "daemon.measurement_window");
      if (event.begin) ++windows;
      inFirstWindow = event.begin && windows == 1;
    } else if (inFirstWindow && event.begin && event.depth == 1) {
      firstWindowChildren.push_back(event.name);
    }
  }
  EXPECT_EQ(windows, daemon.stats().measurements);
  EXPECT_EQ(firstWindowChildren,
            (std::vector<std::string>{"daemon.query_burst", "daemon.count",
                                      "daemon.observe", "daemon.decode"}));

  // Counting itself is timed by the profiler, once per window.
  if (obs::prof::kCompiledIn) {
    EXPECT_EQ(stageCalls("core.multi_count") - multiCountBefore, windows);
  }
}

}  // namespace
}  // namespace caraoke
