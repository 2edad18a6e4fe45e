// Poincaré ball model of hyperbolic space (curvature -1).
//
// P^d = { x in R^d : ||x|| < 1 }. Used for tag embeddings and taxonomy
// construction (§IV-C of the paper): distances, the Möbius exponential map
// used by Riemannian SGD (Eq. 21–22), and the closed-form distance gradient
// from Nickel & Kiela (2017).
#ifndef TAXOREC_HYPERBOLIC_POINCARE_H_
#define TAXOREC_HYPERBOLIC_POINCARE_H_

#include <span>
#include <vector>

#include "math/rng.h"

namespace taxorec::poincare {

using Span = std::span<double>;
using ConstSpan = std::span<const double>;

/// Points are kept at Euclidean norm <= 1 - kBallEps for stability.
inline constexpr double kBallEps = 1e-5;

/// Rescales x into the ball of radius 1 - kBallEps if it escaped. This is
/// the guard entry point for the Poincaré model: every RSGD update
/// (poincare::RsgdStep via ExpMap, and optim::PoincareRsgdUpdate) must end
/// with it so one drifting step cannot push a point to the boundary where
/// distances and gradients blow up. The HealthMonitor flags rows whose
/// norm exceeds 1 - kBallEps (plus rounding slack) as off-manifold drift.
void ProjectToBall(Span x);

/// The conformal term 1 - ||x||^2 of the Poincaré formulas below, floored
/// at 1e-10 so distances and gradients stay finite at the boundary.
double SafeAlpha(ConstSpan x);

/// Poincaré distance d_P(x, y) = acosh(1 + 2||x-y||^2 / ((1-||x||^2)(1-||y||^2))).
double Distance(ConstSpan x, ConstSpan y);

/// Euclidean gradient of Distance(x, y) with respect to x, accumulated as
/// grad_x += scale * d Distance / d x. (Nickel & Kiela 2017, Eq. 4.)
void DistanceGradX(ConstSpan x, ConstSpan y, double scale, Span grad_x);

/// Möbius addition x ⊕ y (Eq. 22).
void MobiusAdd(ConstSpan x, ConstSpan y, Span out);

/// Möbius exponential map exp_x(eta) = x ⊕ (tanh(||eta||/2) eta/||eta||)
/// (Eq. 21). Result is projected back into the ball.
void ExpMap(ConstSpan x, ConstSpan eta, Span out);

/// Logarithmic map at x: the tangent vector v with exp_x(v) = y,
/// log_x(y) = (1 - ||x||^2) * atanh(||u||) * u/||u||  with  u = (-x) ⊕ y.
void LogMap(ConstSpan x, ConstSpan y, Span out);

/// Point at parameter t ∈ [0,1] along the geodesic from x to y:
/// geo(x, y, t) = exp_x(t * log_x(y)). t=0 → x, t=1 → y.
void Geodesic(ConstSpan x, ConstSpan y, double t, Span out);

/// Conformal factor scaling: converts a Euclidean gradient at x into the
/// Riemannian gradient, grad_R = ((1 - ||x||^2)^2 / 4) * grad_E, in place.
void EuclideanToRiemannianGrad(ConstSpan x, Span grad);

/// Riemannian SGD step: x <- exp_x(-lr * grad_R(x)), where grad is the
/// *Euclidean* gradient (converted internally). Projects to the ball.
void RsgdStep(Span x, ConstSpan euclidean_grad, double lr);

/// Fills x with a uniform point in the ball of radius `radius`
/// (component-wise Gaussian direction, norm ~ U^(1/d) * radius).
void RandomPoint(Rng* rng, double radius, Span x);

}  // namespace taxorec::poincare

#endif  // TAXOREC_HYPERBOLIC_POINCARE_H_
