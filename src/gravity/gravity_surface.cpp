#include "gravity/gravity_surface.hpp"

#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/flops.hpp"
#include "geometry/reference_tet.hpp"
#include "gravity/boundary_ode.hpp"
#include "kernels/element_kernels.hpp"

namespace tsg {

GravityBoundary::GravityBoundary(int degree, real gravity)
    : degree_(degree), gravity_(gravity) {}

int GravityBoundary::addFace(const Mesh& mesh, int elem, int face,
                             const Material& mat) {
  if (!mat.isAcoustic()) {
    throw std::invalid_argument(
        "GravityBoundary: gravity free surface requires an acoustic element");
  }
  const auto& rm = referenceMatrices(degree_);
  GravityFace gf;
  gf.elem = elem;
  gf.face = face;
  gf.bulkModulus = mat.lambda;
  gf.rho = mat.rho;
  gf.impedance = mat.zP();
  gf.normal = mesh.faceNormal(elem, face);
  gf.eta.assign(rm.nq, 0.0);
  gf.qpX.resize(rm.nq);
  gf.qpY.resize(rm.nq);
  for (int i = 0; i < rm.nq; ++i) {
    const Vec3 xi = refFacePoint(face, rm.faceQuadS[i], rm.faceQuadT[i]);
    const Vec3 x = mesh.toPhysical(elem, xi);
    gf.qpX[i] = x[0];
    gf.qpY[i] = x[1];
  }
  faces_.push_back(std::move(gf));
  return numFaces() - 1;
}

void GravityBoundary::computeFlux(int i, const ReferenceMatrices& rm,
                                  const real* stack, real dt, real* fluxQP,
                                  real* scratch) {
  GravityFace& gf = faces_[i];
  const int nq = rm.nq;
  const int nbq = dofCount(rm);

  // Trace of each Taylor coefficient on the face: scratch[k] is nq x 9.
  const int traceSize = nq * kNumQuantities;
  for (int k = 0; k <= rm.degree; ++k) {
    real* dst = scratch + static_cast<std::size_t>(k) * traceSize;
    std::memset(dst, 0, sizeof(real) * traceSize);
    gemmAccRaw(nq, kNumQuantities, rm.nb, rm.faceEval[gf.face].data(),
               stack + static_cast<std::size_t>(k) * nbq, dst);
  }

  const real b = gf.rho * gravity_ / gf.impedance;
  const Vec3& n = gf.normal;
  for (int qp = 0; qp < nq; ++qp) {
    // Taylor coefficients of the forcing a(t) = v_n(t) + p(t)/Z.
    real aCoeff[kMaxDegree + 1];
    for (int k = 0; k <= rm.degree; ++k) {
      const real* row =
          scratch + static_cast<std::size_t>(k) * traceSize + qp * kNumQuantities;
      const real vn = n[0] * row[kVx] + n[1] * row[kVy] + n[2] * row[kVz];
      const real p = -(row[kSxx] + row[kSyy] + row[kSzz]) / 3.0;
      aCoeff[k] = vn + p / gf.impedance;
    }
    const auto rhs = [&](real t, const std::array<real, 2>& y) {
      real a = 0;
      real tk = 1.0;
      real factorial = 1.0;
      for (int k = 0; k <= rm.degree; ++k) {
        a += aCoeff[k] * tk / factorial;
        tk *= t;
        factorial *= (k + 1);
      }
      return std::array<real, 2>{a - b * y[0], y[0]};
    };
    const std::array<real, 2> y =
        integrateBoundaryOde(rhs, {gf.eta[qp], 0.0}, dt);
    const real dEta = y[0] - gf.eta[qp];
    const real h = y[1];
    gf.eta[qp] = y[0];

    real* flux = fluxQP + qp * kNumQuantities;
    flux[kSxx] = -gf.bulkModulus * dEta;
    flux[kSyy] = flux[kSxx];
    flux[kSzz] = flux[kSxx];
    flux[kSxy] = 0;
    flux[kSyz] = 0;
    flux[kSxz] = 0;
    flux[kVx] = gravity_ * h * n[0];
    flux[kVy] = gravity_ * h * n[1];
    flux[kVz] = gravity_ * h * n[2];
  }
  countFlops(static_cast<std::uint64_t>(nq) * (rm.degree + 1) * 60);
}

void GravityBoundary::setEta(const std::function<real(real, real)>& f) {
  for (auto& gf : faces_) {
    for (std::size_t i = 0; i < gf.eta.size(); ++i) {
      gf.eta[i] = f(gf.qpX[i], gf.qpY[i]);
    }
  }
}

std::vector<SurfaceSample> GravityBoundary::allSamples() const {
  std::vector<SurfaceSample> out;
  for (const auto& gf : faces_) {
    for (std::size_t i = 0; i < gf.eta.size(); ++i) {
      out.push_back({gf.qpX[i], gf.qpY[i], gf.eta[i]});
    }
  }
  return out;
}

void GravityBoundary::saveState(BinaryWriter& w) const {
  w.writeU64(faces_.size());
  for (const auto& gf : faces_) {
    w.writeRealVec(gf.eta);
  }
}

void GravityBoundary::restoreState(BinaryReader& r) {
  const std::uint64_t n = r.readU64();
  if (n != faces_.size()) {
    throw CheckpointError(
        "checkpoint: gravity-surface face count mismatch (file " +
        std::to_string(n) + ", live " + std::to_string(faces_.size()) + ")");
  }
  for (auto& gf : faces_) {
    r.readRealVecInto(gf.eta, "gravity-surface quadrature size");
  }
}

int GravityBoundary::firstNonFiniteFace() const {
  for (std::size_t f = 0; f < faces_.size(); ++f) {
    for (real e : faces_[f].eta) {
      if (!std::isfinite(e)) {
        return static_cast<int>(f);
      }
    }
  }
  return -1;
}

real GravityBoundary::sampleEtaNearest(real x, real y) const {
  real best = 1e300;
  real eta = 0;
  for (const auto& gf : faces_) {
    for (std::size_t i = 0; i < gf.eta.size(); ++i) {
      const real dx = gf.qpX[i] - x;
      const real dy = gf.qpY[i] - y;
      const real d2 = dx * dx + dy * dy;
      if (d2 < best) {
        best = d2;
        eta = gf.eta[i];
      }
    }
  }
  return eta;
}

}  // namespace tsg
