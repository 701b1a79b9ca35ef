#pragma once

// The scaled "mesh M" Palu setup shared by the Fig. 4, Fig. 6, Sec. 5.3
// and Sec. 6.2 benches: the shipped palu.cfg preset with the thin, finely
// resolved water layer that spreads elements over many LTS clusters --
// five 140 m water cells over a 60 m shelf (the bay floor and the open
// ocean stay at 700 m).

#include "common/config.hpp"
#include "scenario/spec.hpp"

namespace tsg {

inline ScenarioSpec paluMeshMSpec() {
  ScenarioSpec spec =
      loadScenarioSpec(ConfigFile::load(TSG_PRESET_DIR "/palu.cfg"));
  spec.mesh.z.back().cells = 5;
  spec.bathymetry.baseDepth = 60;
  for (auto& feature : spec.bathymetry.features) {
    feature.amplitude = 640;
  }
  return spec;
}

}  // namespace tsg
