#pragma once

// Legacy-VTK output of tetrahedral wavefields and sea-surface point
// clouds -- the paper's production runs write free-surface and receiver
// output during the simulation (Sec. 6.2); this is the equivalent offline
// visualisation path for ParaView/VisIt.  Files are legacy-VTK BINARY:
// ASCII section headers, each followed by a big-endian array (`double`
// for points and fields, 32-bit `int` for connectivity and cell types),
// so every value is written exactly.

#include <map>
#include <string>
#include <vector>

#include "geometry/mesh.hpp"
#include "solver/simulation.hpp"

namespace tsg {

/// Write the tetrahedral mesh with per-cell scalar fields.
void writeVtkMesh(const std::string& path, const Mesh& mesh,
                  const std::map<std::string, std::vector<real>>& cellData);

/// Per-cell wavefield of a simulation: all nine quantities plus pressure,
/// evaluated at each element's centroid (bitwise equal to
/// Simulation::evaluate there).
std::map<std::string, std::vector<real>> wavefieldCellData(
    const Simulation& sim);

/// Write wavefieldCellData(sim) as cell data of the simulation's mesh.
void writeVtkWavefield(const std::string& path, const Simulation& sim);

/// Write scattered sea-surface samples as VTK polydata points with eta.
void writeVtkSurface(const std::string& path,
                     const std::vector<SurfaceSample>& samples);

}  // namespace tsg
