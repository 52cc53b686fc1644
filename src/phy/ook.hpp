// On-off-keying modulation and demodulation of the transponder response.
//
// The transponder transmits s(t) in {0,1}: carrier present for a "1" chip,
// silent for a "0" chip (paper §3, Eq. 1). At the reader the baseband is
// r(t) = h * s(t) * e^{j 2 pi df t} (Eq. 3). The demodulator here runs on
// the output of the decoder's coherent-combining stage, after CFO and
// channel compensation, where the signal is (approximately) N * s(t) plus
// residual interference.
#pragma once

#include "dsp/types.hpp"
#include "phy/manchester.hpp"
#include "phy/packet.hpp"
#include "phy/protocol.hpp"

namespace caraoke::phy {

/// Full transponder response waveform at complex baseband relative to the
/// reader LO: Manchester-encode the packet bits, shape to samples, apply
/// the CFO rotation and an initial oscillator phase.
///   y[t] = s[t] * e^{j (2 pi cfoHz t / fs + initialPhase)}
dsp::CVec modulateResponse(const BitVec& packetBits,
                           const SamplingParams& params, double cfoHz,
                           double initialPhase);

/// Demodulate an averaged, CFO/channel-compensated waveform back to bits.
/// Takes the real part (the combined target signal is real up to residual
/// interference), integrates each Manchester half-period, and decides each
/// bit by comparing halves. `waveform` must hold at least
/// bits * samplesPerBit samples.
BitVec demodulateOok(dsp::CSpan waveform, const SamplingParams& params,
                     std::size_t numBits = Packet::kBits);

/// Per-bit soft decision margin (|first half - second half| energy
/// difference, normalized); a confidence signal used by tests and by the
/// decoder's early-exit heuristic.
std::vector<double> ookBitMargins(dsp::CSpan waveform,
                                  const SamplingParams& params,
                                  std::size_t numBits = Packet::kBits);

}  // namespace caraoke::phy
