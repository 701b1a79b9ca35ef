#include "kernels/reference_matrices.hpp"

#include <cassert>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>

#include "basis/dubiner.hpp"
#include "basis/quadrature.hpp"
#include "geometry/mesh.hpp"
#include "geometry/reference_tet.hpp"

namespace tsg {

namespace {

ReferenceMatrices build(int degree) {
  ReferenceMatrices rm;
  rm.degree = degree;
  rm.nb = basisSize(degree);

  // Volume quadrature exact to 2*degree+1.
  const auto volPts = tetrahedronQuadrature(degree + 1);
  rm.volQuadXi.reserve(volPts.size());
  rm.volQuadW.reserve(volPts.size());
  for (const auto& p : volPts) {
    rm.volQuadXi.push_back(p.xi);
    rm.volQuadW.push_back(p.weight);
  }
  const int nvq = static_cast<int>(volPts.size());
  rm.volEval = Matrix(nvq, rm.nb);
  Matrix volGrad[3] = {Matrix(nvq, rm.nb), Matrix(nvq, rm.nb),
                       Matrix(nvq, rm.nb)};
  for (int i = 0; i < nvq; ++i) {
    for (int l = 0; l < rm.nb; ++l) {
      rm.volEval(i, l) = dubinerTet(l, degree, rm.volQuadXi[i]);
      const Vec3 g = dubinerTetGradient(l, degree, rm.volQuadXi[i]);
      for (int c = 0; c < 3; ++c) {
        volGrad[c](i, l) = g[c];
      }
    }
  }

  for (int c = 0; c < 3; ++c) {
    rm.kXi[c] = Matrix(rm.nb, rm.nb);
    for (int k = 0; k < rm.nb; ++k) {
      for (int l = 0; l < rm.nb; ++l) {
        real s = 0;
        for (int i = 0; i < nvq; ++i) {
          s += rm.volQuadW[i] * volGrad[c](i, k) * rm.volEval(i, l);
        }
        rm.kXi[c](k, l) = s;
      }
    }
    rm.dXi[c] = rm.kXi[c].transposed();
  }

  // Face quadrature.
  const auto facePts = triangleQuadrature(degree + 2);
  rm.nq = static_cast<int>(facePts.size());
  assert(rm.nq == faceQuadSize(degree));
  for (const auto& p : facePts) {
    rm.faceQuadS.push_back(p.xi);
    rm.faceQuadT.push_back(p.eta);
    rm.faceQuadW.push_back(p.weight);
  }

  for (int f = 0; f < 4; ++f) {
    rm.faceEval[f] = Matrix(rm.nq, rm.nb);
    for (int i = 0; i < rm.nq; ++i) {
      const Vec3 xi = refFacePoint(f, rm.faceQuadS[i], rm.faceQuadT[i]);
      for (int l = 0; l < rm.nb; ++l) {
        rm.faceEval[f](i, l) = dubinerTet(l, degree, xi);
      }
    }
    rm.faceEvalTW[f] = Matrix(rm.nb, rm.nq);
    for (int i = 0; i < rm.nq; ++i) {
      for (int k = 0; k < rm.nb; ++k) {
        rm.faceEvalTW[f](k, i) = rm.faceQuadW[i] * rm.faceEval[f](i, k);
      }
    }
    rm.fluxLocal[f] = rm.faceEvalTW[f] * rm.faceEval[f];
  }

  for (int f = 0; f < 4; ++f) {
    for (int g = 0; g < 4; ++g) {
      for (int perm = 0; perm < 6; ++perm) {
        const auto& sigma = permutation3(perm);
        Matrix eval(rm.nq, rm.nb);
        for (int i = 0; i < rm.nq; ++i) {
          // Barycentric coords of the point w.r.t. the own face's ordered
          // vertices, re-ordered for the neighbour's vertex ordering.
          const real l[3] = {1.0 - rm.faceQuadS[i] - rm.faceQuadT[i],
                             rm.faceQuadS[i], rm.faceQuadT[i]};
          real ln[3] = {0, 0, 0};
          for (int v = 0; v < 3; ++v) {
            ln[sigma[v]] = l[v];
          }
          const Vec3 xi = refFacePointBary(g, ln[0], ln[1], ln[2]);
          for (int col = 0; col < rm.nb; ++col) {
            eval(i, col) = dubinerTet(col, degree, xi);
          }
        }
        rm.fluxNeighbor[f][g][perm] = rm.faceEvalTW[f] * eval;
        Matrix tw(rm.nb, rm.nq);
        for (int i = 0; i < rm.nq; ++i) {
          for (int k = 0; k < rm.nb; ++k) {
            tw(k, i) = rm.faceQuadW[i] * eval(i, k);
          }
        }
        rm.faceEvalNeighborTW[f][g][perm] = std::move(tw);
        rm.faceEvalNeighbor[f][g][perm] = std::move(eval);
      }
    }
  }

  // Time quadrature on [0, 1].
  rm.nt = degree + 1;
  const auto tq = gaussLegendre(rm.nt, 0.0, 1.0);
  rm.timeQuadTau = tq.points;
  rm.timeQuadW = tq.weights;

  return rm;
}

}  // namespace

const ReferenceMatrices& referenceMatrices(int degree) {
  // Fixed-size buffers (gravity's Taylor coefficients) and the batched
  // kernels' compile-time shapes cover exactly these degrees.
  if (degree < 1 || degree > kMaxDegree) {
    throw std::invalid_argument("degree must be in 1.." +
                                std::to_string(kMaxDegree) + ", got " +
                                std::to_string(degree));
  }
  static std::mutex mutex;
  static std::map<int, ReferenceMatrices> cache;
  std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(degree);
  if (it == cache.end()) {
    it = cache.emplace(degree, build(degree)).first;
  }
  return it->second;
}

}  // namespace tsg
