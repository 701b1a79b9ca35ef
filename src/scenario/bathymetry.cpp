#include "scenario/bathymetry.hpp"

#include <algorithm>
#include <cmath>

namespace tsg {

real smooth01(real t) {
  t = std::clamp(t, real(0), real(1));
  return t * t * (3 - 2 * t);
}

real smooth01Deriv(real t) {
  if (t <= 0 || t >= 1) {
    return 0;
  }
  return 6 * t * (1 - t);
}

real BathymetryFeature::shape(real x, real y) const {
  switch (kind) {
    case Kind::kShelf:
      return smooth01((y - start) / length);
    case Kind::kBay: {
      // Expression order is pinned: the Palu preset's deformed mesh (and
      // with it the committed preset digests) depends on it bitwise.
      const real flankX =
          smooth01((halfWidth - std::abs(x - centerX)) / (0.5 * halfWidth));
      const real flankS = smooth01((y - southEnd) / flankRamp);
      return flankX * flankS;
    }
    case Kind::kRidge:
      return smooth01((halfWidth - std::abs(x - centerX)) / (0.5 * halfWidth));
    case Kind::kSeamount: {
      const real dx = x - centerX;
      const real dy = y - centerY;
      return std::exp(-(dx * dx + dy * dy) / (2 * sigma * sigma));
    }
  }
  return 0;
}

std::array<real, 2> BathymetryFeature::shapeGradient(real x, real y) const {
  switch (kind) {
    case Kind::kShelf:
      return {0, smooth01Deriv((y - start) / length) / length};
    case Kind::kBay: {
      const real tx = (halfWidth - std::abs(x - centerX)) / (0.5 * halfWidth);
      const real ty = (y - southEnd) / flankRamp;
      const real sx = smooth01(tx);
      const real sy = smooth01(ty);
      // d|x - cx|/dx is the sign; at x == cx the smoothstep argument is 2
      // (clamped), so the derivative factor is 0 and the kink is invisible.
      const real sign = x >= centerX ? 1.0 : -1.0;
      const real dsx = smooth01Deriv(tx) * (-sign / (0.5 * halfWidth));
      const real dsy = smooth01Deriv(ty) / flankRamp;
      return {dsx * sy, sx * dsy};
    }
    case Kind::kRidge: {
      const real tx = (halfWidth - std::abs(x - centerX)) / (0.5 * halfWidth);
      const real sign = x >= centerX ? 1.0 : -1.0;
      return {smooth01Deriv(tx) * (-sign / (0.5 * halfWidth)), 0};
    }
    case Kind::kSeamount: {
      const real dx = x - centerX;
      const real dy = y - centerY;
      const real s = std::exp(-(dx * dx + dy * dy) / (2 * sigma * sigma));
      const real f = -1.0 / (sigma * sigma);
      return {s * f * dx, s * f * dy};
    }
  }
  return {0, 0};
}

real BathymetryField::depth(real x, real y) const {
  if (features_.empty()) {
    return baseDepth_ + 0.0;
  }
  if (combine_ == BathymetryCombine::kMax) {
    real combined = features_.front().amplitude * features_.front().shape(x, y);
    for (std::size_t i = 1; i < features_.size(); ++i) {
      combined =
          std::max(combined, features_[i].amplitude * features_[i].shape(x, y));
    }
    return baseDepth_ + combined;
  }
  real combined = 0;
  for (const auto& f : features_) {
    combined += f.amplitude * f.shape(x, y);
  }
  return baseDepth_ + combined;
}

std::array<real, 2> BathymetryField::gradient(real x, real y) const {
  if (features_.empty()) {
    return {0, 0};
  }
  if (combine_ == BathymetryCombine::kMax) {
    // Gradient of the winning feature (the field is C^1 wherever the
    // winner is unique; on ties the subgradient of the first winner).
    std::size_t best = 0;
    real bestVal = features_[0].amplitude * features_[0].shape(x, y);
    for (std::size_t i = 1; i < features_.size(); ++i) {
      const real v = features_[i].amplitude * features_[i].shape(x, y);
      if (v > bestVal) {
        bestVal = v;
        best = i;
      }
    }
    const auto g = features_[best].shapeGradient(x, y);
    // z = -(base + amp * s): dz = -amp * ds
    return {-features_[best].amplitude * g[0],
            -features_[best].amplitude * g[1]};
  }
  real gx = 0, gy = 0;
  for (const auto& f : features_) {
    const auto g = f.shapeGradient(x, y);
    gx -= f.amplitude * g[0];
    gy -= f.amplitude * g[1];
  }
  return {gx, gy};
}

std::array<real, 2> BathymetryField::depthBounds() const {
  if (features_.empty()) {
    return {baseDepth_, baseDepth_};
  }
  real lo = 0, hi = 0;
  if (combine_ == BathymetryCombine::kMax) {
    // Each contribution lies in [min(0, amp), max(0, amp)]; the max over
    // features is bounded by the extremes of those intervals.
    lo = std::min(real(0), features_.front().amplitude);
    hi = std::max(real(0), features_.front().amplitude);
    for (const auto& f : features_) {
      lo = std::min(lo, std::min(real(0), f.amplitude));
      hi = std::max(hi, std::max(real(0), f.amplitude));
    }
  } else {
    for (const auto& f : features_) {
      lo += std::min(real(0), f.amplitude);
      hi += std::max(real(0), f.amplitude);
    }
  }
  return {baseDepth_ + lo, baseDepth_ + hi};
}

}  // namespace tsg
