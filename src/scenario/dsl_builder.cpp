// buildScenario(): materialise a validated ScenarioSpec into a
// ScenarioBundle.  The expression order of the closures below is pinned:
// tests/test_preset_equivalence commits digests of the shipped presets'
// meshes, fault initialisation and initial state, so any reassociation
// shows up there.

#include <cmath>

#include "geometry/mesh_builder.hpp"
#include "scenario/spec.hpp"

namespace tsg {

namespace {

std::vector<real> buildAxisLines(const std::vector<AxisSegmentSpec>& segs) {
  std::vector<real> lines;
  for (const auto& s : segs) {
    const std::vector<real> part =
        s.kind == AxisSegmentSpec::Kind::kUniform
            ? uniformLine(s.lo, s.hi, s.cells)
            : lineUniformGraded(s.lo, s.uniformLo, s.uniformHi, s.hi, s.h,
                                s.growth, s.maxSpacing);
    if (lines.empty()) {
      lines = part;
    } else {
      // The first knot duplicates the previous segment's last (validated
      // lo == hi).
      lines.insert(lines.end(), part.begin() + 1, part.end());
    }
  }
  return lines;
}

struct SolidLayer {
  int index;
  bool hasBottomZ;
  real bottomZ;
};

}  // namespace

ScenarioBundle buildScenario(const ScenarioSpec& spec, int degree) {
  ScenarioBundle bundle;
  bundle.name = spec.name;

  const BathymetryField bathy(spec.bathymetry.baseDepth,
                              spec.bathymetry.combine,
                              spec.bathymetry.features);

  BoxMeshSpec mesh;
  mesh.xLines = buildAxisLines(spec.mesh.x);
  mesh.yLines = buildAxisLines(spec.mesh.y);
  mesh.zLines = buildAxisLines(spec.mesh.z);
  if (spec.bathymetry.deform) {
    mesh.deformZ = bathymetryDeformation(
        spec.bathymetry.deformZBottom, spec.bathymetry.deformReference,
        spec.bathymetry.deformZTop,
        [bathy](real x, real y) { return bathy.z(x, y); });
  }

  int acousticIdx = -1;
  std::vector<SolidLayer> solids;
  for (std::size_t i = 0; i < spec.materials.size(); ++i) {
    const auto& m = spec.materials[i];
    if (m.acoustic) {
      acousticIdx = static_cast<int>(i);
    } else {
      solids.push_back({static_cast<int>(i), m.hasBottomZ, m.bottomZ});
    }
    bundle.materials.push_back(m.acoustic
                                   ? Material::acoustic(m.rho, m.cp)
                                   : Material::fromVelocities(m.rho, m.cp,
                                                              m.cs));
  }
  mesh.material = [bathy, acousticIdx, solids](const Vec3& c) {
    if (acousticIdx >= 0 && c[2] > bathy.z(c[0], c[1])) {
      return acousticIdx;
    }
    for (const auto& s : solids) {
      if (s.hasBottomZ && c[2] <= s.bottomZ) {
        continue;  // centroid below this layer: try the next one down
      }
      return s.index;
    }
    return solids.back().index;
  };

  const BoundarySpec bc = spec.boundary;
  mesh.boundary = [bc](const Vec3&, const Vec3& n) {
    if (n[2] > 0.5) {
      return bc.top;
    }
    if (n[2] < -0.5) {
      return bc.bottom;
    }
    return bc.sides;
  };

  if (spec.fault.present) {
    const std::vector<FaultSegmentSpec> segs = spec.fault.segments;
    const real diag = 1.0 / std::sqrt(2.0);
    mesh.faultFace = [segs, diag](const Vec3& c, const Vec3& n) {
      for (const auto& s : segs) {
        if (s.plane == FaultSegmentSpec::Plane::kX) {
          if (std::abs(std::abs(n[0]) - 1.0) > 1e-6) {
            continue;
          }
          if (std::abs(c[0] - s.offset) > s.tol) {
            continue;
          }
        } else {
          if (std::abs(std::abs(n[0] - n[2]) * diag - 1.0) > 1e-6) {
            continue;
          }
          if (std::abs((c[0] - c[2]) - s.offset) > s.tol) {
            continue;
          }
        }
        if (c[2] < s.zMin || c[2] > s.zMax) {
          continue;
        }
        if (c[1] > s.yMin && c[1] < s.yMax) {
          return true;
        }
      }
      return false;
    };
  }

  bundle.mesh = buildBoxMesh(mesh);

  if (spec.fault.present) {
    const FaultSpec f = spec.fault;
    bundle.faultInit = [f](const Vec3& x, const Vec3& n, const Vec3& t1,
                           const Vec3& t2) {
      FaultPointInit fp;
      fp.sigmaN0 = f.sigmaN;
      if (f.law == FrictionLawType::kLinearSlipWeakening) {
        fp.lsw.muS = f.muS;
        fp.lsw.muD = f.muD;
        fp.lsw.dC = f.dC;
        if (f.cohesionExp) {
          const real depthBelow = f.cohesionRefZ - x[2];
          fp.lsw.cohesion =
              f.cohesionPeak * std::exp(-depthBelow / f.cohesionDecay);
        } else {
          fp.lsw.cohesion = f.cohesion;
        }
      } else {
        fp.rs.a = f.rsA;
        fp.rs.b = f.rsB;
        fp.rs.L = f.rsL;
        fp.rs.f0 = f.rsF0;
        fp.rs.v0 = f.rsV0;
        fp.rs.fw = f.rsFw;
        fp.rs.vw = f.rsVw;
      }
      fp.initialSlipRate = f.initialSlipRate;
      Vec3 dir;
      if (f.load == FaultSpec::Load::kUpdip) {
        dir = {1.0 / std::sqrt(2.0), 0.0, 1.0 / std::sqrt(2.0)};
        if (n[0] < 0) {
          dir = {-dir[0], 0.0, -dir[2]};
        }
      } else {
        dir = {0.0, f.strikeSign, 0.0};
        if (n[0] < 0) {
          dir = {0.0, -f.strikeSign, 0.0};
        }
      }
      real tau0 = f.tauBackground;
      for (const auto& p : f.nucleation) {
        if (p.type != NucleationSpec::Type::kOverstress) {
          continue;
        }
        const real dy = x[1] - p.centerY;
        const real dz = x[2] - p.centerZ;
        const real r = std::sqrt(dy * dy + p.dzScale * dz * dz);
        if (r < p.radius) {
          tau0 = p.tau;
        }
      }
      fp.tau10 = tau0 * dot(dir, t1);
      fp.tau20 = tau0 * dot(dir, t2);
      for (const auto& p : f.nucleation) {
        if (p.type != NucleationSpec::Type::kRamp) {
          continue;
        }
        const real dy = x[1] - p.centerY;
        const real dz = x[2] - p.centerZ;
        const real r = std::sqrt(dy * dy + p.dzScale * dz * dz);
        const real extra = (p.tau - f.tauBackground) *
                           smooth01((p.radius - r) / (0.5 * p.radius) + 1.0);
        if (extra > 0) {
          fp.tauNucl1 = extra * dot(dir, t1);
          fp.tauNucl2 = extra * dot(dir, t2);
          fp.nucleationRiseTime = p.riseTime;
          fp.nucleationStartTime = p.onset;
        }
      }
      return fp;
    };
  }

  std::vector<SourceSpec> pressure, eta;
  for (const auto& s : spec.sources) {
    (s.type == SourceSpec::Type::kPressureGaussian ? pressure : eta)
        .push_back(s);
  }
  if (!pressure.empty()) {
    bundle.initial = [pressure, acousticIdx](const Vec3& x, int material) {
      std::array<real, kNumQuantities> q{};
      if (material == acousticIdx) {
        real p = 0;
        for (const auto& s : pressure) {
          const real r2 = norm2(x - s.center);
          p += s.amplitude * std::exp(-r2 / (2 * s.sigma * s.sigma));
        }
        q[kSxx] = q[kSyy] = q[kSzz] = -p;
      }
      return q;
    };
  }
  if (!eta.empty()) {
    bundle.initialEta = [eta](real x, real y) {
      real e = 0;
      for (const auto& s : eta) {
        const real dx = x - s.center[0];
        const real dy = y - s.center[1];
        e += s.amplitude *
             std::exp(-(dx * dx + dy * dy) / (2 * s.sigma * s.sigma));
      }
      return e;
    };
  }

  bundle.receivers = spec.receivers;

  SolverConfig sc;
  sc.degree = degree;
  sc.gravity = spec.gravity;
  if (spec.fault.present) {
    sc.frictionLaw = spec.fault.law;
  }
  if (spec.cflFraction > 0) {
    sc.cflFraction = spec.cflFraction;
  }
  bundle.solver = sc;
  return bundle;
}

}  // namespace tsg
