#pragma once

// Exact (Godunov) interface Riemann solvers for every combination of
// elastic and acoustic media (paper Sec. 4.2, Eqs. 13-20).
//
// The middle state adjacent to the minus side is linear in the two traces,
//   q^{b-} = G^- q^- + G^+ q^+   (face-aligned frame),
// and the numerical flux into the minus element is
//   Ahat^- q^* = F^- q^- + F^+ q^+  (global frame, Eq. 20),
// with F^∓ precomputed per face.  Interface conditions: continuity of
// traction and of all (elastic-elastic) or only the normal (fluid-solid)
// velocity components; tangential tractions vanish on fluid-solid faces.

#include "common/matrix.hpp"
#include "geometry/mesh.hpp"
#include "physics/material.hpp"

namespace tsg {

struct FluxMatrices {
  Matrix fMinus;  // applied to the minus-side trace
  Matrix fPlus;   // applied to the plus-side trace
};

/// The face-frame part of a face's flux, which does not depend on the face
/// normal: F^∓ = R(n) * (aFace * (g^∓ * R(n)^{-1})).  It depends only on
/// the material pair (interior faces) or the material and boundary
/// condition (boundary faces), so a mesh needs one per pair, not per face.
struct GodunovOperators {
  Matrix gMinus;  // middle state from the minus-side trace
  Matrix gPlus;   // middle state from the plus-side trace
  Matrix aFace;   // minus side's face-normal Jacobian
};

/// Face-frame middle-state operators: q^{b-} = gMinus q^-_face + gPlus q^+_face.
void godunovStateOperators(const Material& matMinus, const Material& matPlus,
                           Matrix& gMinus, Matrix& gPlus);

/// Face-frame operators of an interior face between the two materials.
GodunovOperators godunovOperators(const Material& matMinus,
                                  const Material& matPlus);

/// Face-frame operators of a boundary face (free surface, absorbing or
/// rigid wall): the ghost state is folded into gMinus and gPlus is zero.
/// Throws std::invalid_argument for any other boundary type.
GodunovOperators boundaryOperators(const Material& mat, BoundaryType bc);

/// Global-frame flux matrices of a face with unit normal n pointing from
/// the minus to the plus side.
FluxMatrices faceFluxMatrices(const GodunovOperators& ops, const Vec3& n);

/// Global-frame flux matrices for an interior face with unit normal n
/// pointing from the minus to the plus side.
FluxMatrices interfaceFluxMatrices(const Material& matMinus,
                                   const Material& matPlus, const Vec3& n);

/// Global-frame flux matrix for a boundary face (free surface or
/// absorbing); flux = F q^-.  The gravitational free surface is handled
/// separately (time-dependent, see gravity/).
Matrix boundaryFluxMatrix(const Material& mat, BoundaryType bc, const Vec3& n);

/// Face-frame ghost-state mirror for a (traction-free) surface:
/// q^+ = mirror * q^-.
Matrix freeSurfaceMirror();

/// Face-frame ghost-state mirror for a free-slip rigid wall (normal
/// velocity and tangential tractions flip; used as reflecting tank walls).
Matrix rigidWallMirror();

}  // namespace tsg
