#pragma once

// Config-driven scenario DSL.
//
// loadScenarioSpec() turns a parsed ConfigFile with [section] /
// [[section]] blocks into a validated ScenarioSpec; buildScenario()
// turns the spec into a ScenarioBundle.  Everything a scenario
// contributes is declared in the file:
//
//   [scenario]            name
//   [[mesh.x]] [[mesh.y]] [[mesh.z]]
//                         grid-line segments (uniform | graded),
//                         concatenated in declaration order
//   [bathymetry]          base_depth, combine, optional sigma-stretch
//                         deformation onto the interface
//   [[bathymetry.feature]] shelf | bay | ridge | seamount primitives
//   [[material]]          declaration order = material index; cs = 0 or
//                         absent makes the layer acoustic (at most one)
//   [boundary]            top / sides / bottom condition
//   [fault]               friction law, background load, strengths;
//                         optional slip_file = <csv> appends a kinematic
//                         sub-event sequence (ramp patches) from a CSV
//                         (center_y,center_z,radius,tau,rise_time,
//                         onset[,segment]; relative paths resolve
//                         against the config file's directory)
//   [[fault.segment]]     mesh-conforming plane pieces (x | x-z)
//   [[fault.nucleation]]  overstress | ramp patches (ramp onsets give
//                         kinematic multi-subfault sources)
//   [[source]]            pressure_gaussian | eta_gaussian initial terms
//   [[receiver]]          named sample points
//   [solver]              gravity, cfl_fraction
//
// Validation is strict and typed: unknown sections, unknown keys,
// overlapping fault segments, non-monotone subfault onsets, and
// out-of-domain receivers / nucleation patches all throw ConfigError
// with the fully-qualified key path -- never a crash, never a silent
// default.  The shipped presets under examples/presets/ are the paper's
// workloads; tests/test_preset_equivalence.cpp pins digests of the
// bundles they build.

#include <string>
#include <vector>

#include "common/config.hpp"
#include "geometry/mesh.hpp"
#include "rupture/friction.hpp"
#include "scenario/bathymetry.hpp"
#include "scenario/scenario.hpp"

namespace tsg {

struct AxisSegmentSpec {
  enum class Kind { kUniform, kGraded };
  Kind kind = Kind::kUniform;
  real lo = 0, hi = 0;
  int cells = 1;  // uniform
  // graded (lineUniformGraded arguments)
  real uniformLo = 0, uniformHi = 0, h = 0, growth = 1.4, maxSpacing = 0;
};

struct MeshSpec {
  std::vector<AxisSegmentSpec> x, y, z;
};

struct BathymetrySpec {
  real baseDepth = 0;
  BathymetryCombine combine = BathymetryCombine::kMax;
  std::vector<BathymetryFeature> features;
  /// Sigma-stretch the grid so the material interface follows the
  /// bathymetry (bathymetryDeformation); without it the interface stays
  /// at the flat reference depth.
  bool deform = false;
  real deformZBottom = 0;
  real deformReference = 0;
  real deformZTop = 0;
};

struct MaterialSpec {
  std::string name;
  real rho = 0, cp = 0, cs = 0;
  bool acoustic = false;  // cs absent or 0
  /// Optional bottom of a solid layer; solids are declared top-down and
  /// classified by the first layer whose bottom lies below the centroid.
  bool hasBottomZ = false;
  real bottomZ = 0;
};

struct BoundarySpec {
  BoundaryType top = BoundaryType::kGravityFreeSurface;
  BoundaryType sides = BoundaryType::kAbsorbing;
  BoundaryType bottom = BoundaryType::kAbsorbing;
};

struct FaultSegmentSpec {
  /// kX: vertical plane x = offset.  kXZ: 45-degree dipping plane
  /// x - z = offset (along the Kuhn-cell diagonals).
  enum class Plane { kX, kXZ };
  Plane plane = Plane::kX;
  real offset = 0;
  real yMin = 0, yMax = 0;  // exclusive window
  real zMin = 0, zMax = 0;  // inclusive window
  real tol = 1e-3;          // plane-distance tolerance
};

struct NucleationSpec {
  /// kOverstress: static tau above the background inside the patch
  /// (LSW-style instant nucleation).  kRamp: traction forcing smoothly
  /// ramped in over riseTime starting at onset (rate-and-state faults;
  /// staggered onsets give a Vogl-LeVeque-style kinematic source).
  enum class Type { kOverstress, kRamp };
  Type type = Type::kOverstress;
  real centerY = 0, centerZ = 0;
  real radius = 0;
  real tau = 0;       // peak traction magnitude inside the patch [Pa]
  real riseTime = 0;  // ramp only
  real onset = 0;     // ramp only; forcing is zero before this time [s]
  int segment = 0;    // host segment (validates center in-window)
  /// In-plane distance metric weight for dz (2.0 on 45-degree dipping
  /// planes, 1.0 on vertical ones); resolved from the host segment.
  real dzScale = 1.0;
};

struct FaultSpec {
  bool present = false;
  FrictionLawType law = FrictionLawType::kLinearSlipWeakening;
  real sigmaN = 0;
  real tauBackground = 0;
  /// Background traction direction within the fault plane.
  enum class Load { kUpdip, kStrike };
  Load load = Load::kStrike;
  real strikeSign = -1.0;
  // linear slip weakening
  real muS = 0, muD = 0, dC = 0;
  real cohesion = 0;
  bool cohesionExp = false;  // exponential depth taper instead of constant
  real cohesionPeak = 0, cohesionDecay = 1, cohesionRefZ = 0;
  // rate-and-state fast velocity weakening
  real rsA = 0, rsB = 0, rsL = 0, rsF0 = 0, rsV0 = 0, rsFw = 0, rsVw = 0;
  real initialSlipRate = 1e-16;
  std::vector<FaultSegmentSpec> segments;
  std::vector<NucleationSpec> nucleation;
};

struct SourceSpec {
  enum class Type { kPressureGaussian, kEtaGaussian };
  Type type = Type::kPressureGaussian;
  Vec3 center{};
  real amplitude = 0;
  real sigma = 1;
};

struct ScenarioSpec {
  std::string name = "custom";
  MeshSpec mesh;
  BathymetrySpec bathymetry;
  std::vector<MaterialSpec> materials;
  BoundarySpec boundary;
  FaultSpec fault;
  std::vector<SourceSpec> sources;
  std::vector<ScenarioReceiver> receivers;
  real gravity = 9.81;
  real cflFraction = 0;  // 0 = solver default
};

/// Parse and validate every scenario section of `cfg`.  Throws
/// ConfigError with the offending key path on any problem.  Top-level
/// (non-section) keys are not touched -- the CLI owns those.
ScenarioSpec loadScenarioSpec(const ConfigFile& cfg);

/// Materialise the spec: build grid lines, mesh, material table, fault
/// and source closures.  Pure function of (spec, degree).
ScenarioBundle buildScenario(const ScenarioSpec& spec, int degree);

/// Load a preset file: a config whose content is purely scenario
/// sections.  Top-level run keys (end_time, kernel_path, ...) in a
/// preset are a layering error and throw ConfigError -- run options
/// belong to the run config that references the preset.  A preset
/// without a [scenario] name is named after its file stem.
ScenarioBundle loadPresetScenario(const std::string& path, int degree);

}  // namespace tsg
