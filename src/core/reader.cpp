#include "core/reader.hpp"

#include <stdexcept>

namespace caraoke::core {

void ReaderConfig::harmonize() {
  counter.analysis.setSampling(sampling);
  decoder.sampling = sampling;
  analysis.setSampling(sampling);
}

CaraokeReader::CaraokeReader(ReaderConfig config)
    : config_([&config] {
        config.harmonize();
        return config;
      }()),
      analyzer_(config_.analysis),
      counter_(config_.counter),
      aoa_(config_.array) {}

CountResult CaraokeReader::count(
    const std::vector<dsp::CVec>& antennaSamples) const {
  if (antennaSamples.empty())
    throw std::invalid_argument("CaraokeReader::count: no antenna buffers");
  return counter_.count(antennaSamples.front());
}

std::vector<SightedTransponder> CaraokeReader::observe(
    const std::vector<dsp::CVec>& antennaSamples) const {
  std::vector<SightedTransponder> sightings;
  for (TransponderObservation& obs : analyzer_.analyze(antennaSamples)) {
    SightedTransponder s;
    s.aoa = aoa_.estimate(obs, config_.sampling.loFrequencyHz);
    s.observation = std::move(obs);
    sightings.push_back(std::move(s));
  }
  return sightings;
}

std::vector<MultiDecodeEntry> CaraokeReader::decodeAll(
    const std::vector<dsp::CVec>& collisions) const {
  return core::decodeAll(collisions, config_.decoder, config_.analysis);
}

ConeConstraint CaraokeReader::coneFor(const SightedTransponder& s) const {
  ConeConstraint cone;
  cone.apex = config_.array.center();
  cone.axis = config_.array.baselineDirection(s.aoa.bestPair);
  cone.angleRad = s.aoa.bestAngleRad;
  return cone;
}

}  // namespace caraoke::core
