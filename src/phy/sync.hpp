// Packet timing recovery.
//
// The library's default model has every transponder answering exactly
// 100 us after the query (paper §3), so buffers are sample-aligned. Real
// tags have turn-around jitter of a few samples; these utilities recover
// the response start so the demodulator's bit boundaries line up.
//
// The packet starts with a known 16-bit sync word; trying a handful of
// sample offsets and scoring the demodulated sync bits pins the exact
// offset. This works on the decoder's combined waveform, where only the
// target survives.
#pragma once

#include <cstddef>
#include <optional>

#include "dsp/types.hpp"
#include "phy/packet.hpp"
#include "phy/protocol.hpp"

namespace caraoke::phy {

/// Score how well the demodulated bits starting at `sampleOffset` match
/// the sync word: returns the number of matching sync bits (0..16).
std::size_t syncWordScore(dsp::CSpan waveform, std::size_t sampleOffset,
                          const SamplingParams& params);

/// Search offsets [0, maxOffset] for the best sync-word alignment.
/// Returns the offset with the highest score, or nullopt if no offset
/// matches at least `minScore` of the 16 sync bits.
std::optional<std::size_t> findSyncOffset(dsp::CSpan waveform,
                                          std::size_t maxOffset,
                                          const SamplingParams& params,
                                          std::size_t minScore = 14);

}  // namespace caraoke::phy
