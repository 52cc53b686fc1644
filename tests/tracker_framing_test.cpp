// Tests for the multi-target tracker, packet timing recovery, uplink
// batching, and the tolling application.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/tolling.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/decoder.hpp"
#include "core/tracker.hpp"
#include "net/framing.hpp"
#include "phy/sync.hpp"
#include "scenes_helpers.hpp"

namespace caraoke {
namespace {

TEST(Tracker, SingleTargetFollowsAngleSweep) {
  core::TransponderTracker tracker;
  // A car sweeping cosAlpha from +0.8 to -0.8 at CFO 500 kHz.
  for (int k = 0; k <= 40; ++k) {
    const double t = 0.05 * k;
    const double cosAlpha = 0.8 - 0.04 * k;
    tracker.update(t, {{500e3 + (k % 3) * 50.0, cosAlpha, 1.0}});
  }
  ASSERT_EQ(tracker.tracks().size(), 1u);
  const core::Track& track = tracker.tracks().front();
  EXPECT_GT(track.hits, 30u);
  EXPECT_NEAR(track.cfoHz, 500e3, 200.0);
  EXPECT_LT(track.cosAlphaRate, 0.0);

  const auto events = tracker.takeAbeamEvents();
  ASSERT_EQ(events.size(), 1u);
  // cosAlpha = 0.8 - 0.8*t crosses zero at t = 1.0.
  EXPECT_NEAR(events[0].crossingTime, 1.0, 0.1);
  // Events are consumed on read.
  EXPECT_TRUE(tracker.takeAbeamEvents().empty());
}

TEST(Tracker, TwoTargetsStaySeparate) {
  core::TransponderTracker tracker;
  for (int k = 0; k <= 20; ++k) {
    const double t = 0.1 * k;
    tracker.update(t, {{200e3, 0.5, 1.0}, {900e3, -0.5, 0.8}});
  }
  ASSERT_EQ(tracker.tracks().size(), 2u);
  const auto* low = tracker.findByCfo(200e3);
  const auto* high = tracker.findByCfo(900e3);
  ASSERT_NE(low, nullptr);
  ASSERT_NE(high, nullptr);
  EXPECT_GT(low->cosAlpha, 0.0);
  EXPECT_LT(high->cosAlpha, 0.0);
  EXPECT_EQ(tracker.findByCfo(550e3), nullptr);  // outside both gates
}

TEST(Tracker, StaleTracksAreDropped) {
  core::TrackerConfig config;
  config.dropAfterSec = 0.5;
  core::TransponderTracker tracker(config);
  tracker.update(0.0, {{300e3, 0.1, 1.0}});
  EXPECT_EQ(tracker.tracks().size(), 1u);
  tracker.update(1.0, {});  // silence past the timeout
  EXPECT_TRUE(tracker.tracks().empty());
}

TEST(Tracker, TentativeTracksEmitNoEvents) {
  core::TrackerConfig config;
  config.confirmHits = 5;
  core::TransponderTracker tracker(config);
  // A two-sample flash that crosses zero but never confirms.
  tracker.update(0.0, {{400e3, 0.4, 1.0}});
  tracker.update(0.1, {{400e3, -0.4, 1.0}});
  EXPECT_TRUE(tracker.takeAbeamEvents().empty());
}

TEST(Tracker, FollowsCfoDrift) {
  core::TransponderTracker tracker;
  double cfo = 600e3;
  for (int k = 0; k < 50; ++k) {
    cfo += 100.0;  // 5 kHz total drift, but only 100 Hz per step
    tracker.update(0.02 * k, {{cfo, 0.0, 1.0}});
  }
  ASSERT_EQ(tracker.tracks().size(), 1u);
  EXPECT_NEAR(tracker.tracks().front().cfoHz, cfo, 500.0);
}

TEST(Sync, SyncOffsetSearchRecoversShift) {
  Rng rng(2);
  const phy::SamplingParams params;
  const phy::BitVec bits = phy::Packet::encode(phy::Packet::randomId(rng));
  const dsp::CVec wave = phy::modulateResponse(bits, params, 0.0, 0.0);
  for (std::size_t shift : {0u, 2u, 5u, 7u}) {
    dsp::CVec shifted(wave.size() + 8, dsp::cdouble{});
    for (std::size_t t = 0; t < wave.size(); ++t)
      shifted[t + shift] = wave[t];
    const auto offset = phy::findSyncOffset(shifted, 8, params);
    ASSERT_TRUE(offset.has_value()) << shift;
    EXPECT_EQ(*offset, shift);
  }
}

TEST(Sync, DecoderRecoversJitteredResponses) {
  Rng rng(3);
  sim::ReaderNode reader = testhelpers::makeReader(0.0);
  reader.frontEnd.turnaroundJitterMaxSamples = 3;
  sim::MultipathConfig multipath;
  sim::Transponder device(phy::Packet::randomId(rng),
                          phy::kCarrierMinHz + 520e3, rng.fork());
  core::DecoderConfig config;
  config.timingSearchMaxSamples = 6;
  core::CollisionDecoder decoder(config);
  const auto outcome = decoder.decodeTarget(520e3, [&]() {
    return sim::captureIsolated(reader, device, {7, 3, 1.2}, multipath, rng)
        .antennaSamples.front();
  });
  ASSERT_TRUE(outcome.ok()) << outcome.error();
  EXPECT_EQ(outcome.value().id, device.id());
}

TEST(Framing, BatchRoundTrip) {
  Rng rng(4);
  net::FrameBatcher batcher;
  batcher.add(net::Message{net::CountReport{1, 10.0, 5}});
  batcher.add(net::Message{net::SightingReport{1, 10.1, 700e3, 2, 1.1,
                                               0.5}});
  net::DecodeReport decode;
  decode.readerId = 1;
  decode.id = phy::Packet::randomId(rng);
  batcher.add(net::Message{decode});
  EXPECT_EQ(batcher.pending(), 3u);
  const std::size_t predicted = batcher.byteSize();

  const auto bytes = batcher.flush();
  EXPECT_EQ(bytes.size(), predicted);
  EXPECT_EQ(batcher.pending(), 0u);

  const auto decoded = net::decodeBatch(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  const auto& messages = decoded.value().messages;
  ASSERT_EQ(messages.size(), 3u);
  EXPECT_EQ(decoded.value().droppedMessages, 0u);
  EXPECT_FALSE(decoded.value().hasHeader);  // legacy v1 frame
  EXPECT_TRUE(std::holds_alternative<net::CountReport>(messages[0]));
  EXPECT_TRUE(std::holds_alternative<net::SightingReport>(messages[1]));
  const auto& d = std::get<net::DecodeReport>(messages[2]);
  EXPECT_EQ(d.id, decode.id);
}

TEST(Framing, EnvelopeRoundTripCarriesHeaderAndCrc) {
  net::FrameBatcher batcher;
  batcher.add(net::Message{net::CountReport{9, 2.0, 4}});
  batcher.add(net::Message{net::SightingReport{9, 2.1, 640e3, 1, 0.8, 0.4}});
  const std::size_t v1Size = batcher.byteSize();
  const auto bytes = batcher.flush(net::BatchHeader{9, 77});
  EXPECT_EQ(bytes.size(),
            v1Size + net::FrameBatcher::kEnvelopeOverheadBytes);
  EXPECT_EQ(batcher.pending(), 0u);

  const auto decoded = net::decodeBatch(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_TRUE(decoded.value().hasHeader);
  EXPECT_EQ(decoded.value().header.readerId, 9u);
  EXPECT_EQ(decoded.value().header.seq, 77u);
  ASSERT_EQ(decoded.value().messages.size(), 2u);

  // Any single-bit corruption is caught by the CRC-32 trailer, in either
  // decode policy — the link model's bit flips cannot slip a damaged
  // frame through by parse luck.
  for (std::size_t byte :
       {std::size_t{0}, std::size_t{5}, std::size_t{12}, bytes.size() - 1}) {
    auto corrupt = bytes;
    corrupt[byte] ^= 0x10;
    EXPECT_FALSE(net::decodeBatch(corrupt).ok()) << byte;
  }
}

TEST(Framing, EmptyFlushEmitsNothing) {
  // Regression: flush() on an empty queue used to emit a header-only
  // batch; it must emit nothing (there is nothing to transmit).
  net::FrameBatcher batcher;
  EXPECT_TRUE(batcher.flush().empty());
  EXPECT_TRUE(batcher.flush(net::BatchHeader{1, 1}).empty());

  // encodeBatchV2 *does* allow an empty batch (the outbox needs count=0
  // frames to keep the seq space dense after shedding).
  const auto empty = net::encodeBatchV2(net::BatchHeader{1, 3}, {});
  const auto decoded = net::decodeBatch(empty);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_TRUE(decoded.value().messages.empty());
  EXPECT_EQ(decoded.value().header.seq, 3u);
}

TEST(Framing, SalvageSkipsCorruptInnerMessages) {
  // Build a v1 frame by hand with a poisoned middle message: salvage
  // returns the siblings, strict destroys the batch (the old
  // all-or-nothing behaviour, preserved as an opt-in).
  net::FrameBatcher batcher;
  batcher.add(net::Message{net::CountReport{1, 1.0, 1}});
  batcher.add(net::Message{net::CountReport{1, 2.0, 2}});
  batcher.add(net::Message{net::CountReport{1, 3.0, 3}});
  auto bytes = batcher.flush();
  bytes[4 + 2] ^= 0xFF;  // first message's type tag -> unknown

  const auto salvage = net::decodeBatch(bytes);
  ASSERT_TRUE(salvage.ok()) << salvage.error();
  EXPECT_EQ(salvage.value().messages.size(), 2u);
  EXPECT_EQ(salvage.value().droppedMessages, 1u);
  EXPECT_EQ(std::get<net::CountReport>(salvage.value().messages[0]).count,
            2u);

  EXPECT_FALSE(
      net::decodeBatch(bytes, net::BatchDecodePolicy::kStrict).ok());
}

TEST(Framing, RejectsCorruption) {
  net::FrameBatcher batcher;
  batcher.add(net::Message{net::CountReport{1, 1.0, 1}});
  batcher.add(net::Message{net::CountReport{1, 2.0, 2}});
  auto bytes = batcher.flush();
  auto badMagic = bytes;
  badMagic[0] ^= 0xFF;
  EXPECT_FALSE(net::decodeBatch(badMagic).ok());

  // Structural damage in strict mode: fatal.
  auto truncated = bytes;
  truncated.resize(truncated.size() - 3);
  EXPECT_FALSE(
      net::decodeBatch(truncated, net::BatchDecodePolicy::kStrict).ok());
  auto trailing = bytes;
  trailing.push_back(0x00);
  EXPECT_FALSE(
      net::decodeBatch(trailing, net::BatchDecodePolicy::kStrict).ok());

  // The same damage in salvage mode: earlier siblings survive and the
  // loss is reported.
  const auto salvaged = net::decodeBatch(truncated);
  ASSERT_TRUE(salvaged.ok());
  EXPECT_EQ(salvaged.value().messages.size(), 1u);
  EXPECT_EQ(salvaged.value().droppedMessages, 1u);
  const auto trailed = net::decodeBatch(trailing);
  ASSERT_TRUE(trailed.ok());
  EXPECT_EQ(trailed.value().messages.size(), 2u);
  EXPECT_EQ(trailed.value().droppedMessages, 1u);
}

TEST(Framing, AirTimeSupportsDutyCyclingClaim) {
  // A batch of 60 sighting reports (one per second for a minute) must fit
  // in well under 100 ms of LTE air time at 1 Mbps (paper footnote 15).
  net::FrameBatcher batcher;
  for (int i = 0; i < 60; ++i)
    batcher.add(net::Message{net::SightingReport{1, i * 1.0, 700e3, 0, 1.0,
                                                 0.3}});
  const double air = net::batchAirTimeSec(batcher.byteSize(), 1e6);
  EXPECT_LT(air, 0.1);
  EXPECT_GT(air, 0.0);
}

TEST(Tolling, ChargesOncePerPassage) {
  apps::TollPlaza plaza({2.0, 10.0});
  Rng rng(5);
  const auto vehicle = phy::Packet::randomId(rng);
  core::AbeamEvent crossing{1, 500e3, 100.0, -0.5};

  const auto charge = plaza.onCrossing(crossing, vehicle);
  ASSERT_TRUE(charge.has_value());
  EXPECT_DOUBLE_EQ(charge->amount, 2.0);
  EXPECT_TRUE(charge->northbound);

  // Stop-and-go re-crossing a second later: suppressed.
  crossing.crossingTime = 101.0;
  EXPECT_FALSE(plaza.onCrossing(crossing, vehicle).has_value());

  // Same car an hour later: new charge.
  crossing.crossingTime = 3700.0;
  EXPECT_TRUE(plaza.onCrossing(crossing, vehicle).has_value());
  EXPECT_DOUBLE_EQ(plaza.revenue(), 4.0);
  EXPECT_EQ(plaza.ledger().size(), 2u);
}

TEST(Tolling, DistinctVehiclesBothCharged) {
  apps::TollPlaza plaza;
  Rng rng(6);
  core::AbeamEvent crossing{1, 500e3, 50.0, 0.4};
  EXPECT_TRUE(plaza.onCrossing(crossing, phy::Packet::randomId(rng))
                  .has_value());
  crossing.crossingTime = 50.2;
  const auto second =
      plaza.onCrossing(crossing, phy::Packet::randomId(rng));
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(second->northbound);
}

}  // namespace
}  // namespace caraoke
