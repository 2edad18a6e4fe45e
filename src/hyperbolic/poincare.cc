#include "hyperbolic/poincare.h"

#include <cmath>

#include "common/check.h"
#include "math/vec_ops.h"

namespace taxorec::poincare {
namespace {

// Floor on (1 - ||x||^2) factors so gradients stay finite at the boundary.
constexpr double kAlphaFloor = 1e-10;
// acosh'(z) = 1/sqrt(z^2-1) blows up at z=1; floor the radicand.
constexpr double kAcoshRadicandFloor = 1e-15;

}  // namespace

double SafeAlpha(ConstSpan x) {
  const double a = 1.0 - vec::SqNorm(x);
  return a < kAlphaFloor ? kAlphaFloor : a;
}

void ProjectToBall(Span x) {
  const double max_norm = 1.0 - kBallEps;
  const double n = vec::Norm(x);
  if (n > max_norm) vec::Scale(x, max_norm / n);
}

double Distance(ConstSpan x, ConstSpan y) {
  const double alpha = SafeAlpha(x);
  const double beta = SafeAlpha(y);
  const double arg = 1.0 + 2.0 * vec::SqDist(x, y) / (alpha * beta);
  return std::acosh(arg < 1.0 ? 1.0 : arg);
}

void DistanceGradX(ConstSpan x, ConstSpan y, double scale, Span grad_x) {
  TAXOREC_DCHECK(x.size() == y.size() && x.size() == grad_x.size());
  const double alpha = SafeAlpha(x);
  const double beta = SafeAlpha(y);
  const double sq = vec::SqDist(x, y);
  const double gamma = 1.0 + 2.0 * sq / (alpha * beta);
  double radicand = gamma * gamma - 1.0;
  if (radicand < kAcoshRadicandFloor) radicand = kAcoshRadicandFloor;
  const double c = 4.0 / (beta * std::sqrt(radicand));
  const double xy = vec::Dot(x, y);
  const double ysq = vec::SqNorm(y);
  const double cx = (ysq - 2.0 * xy + 1.0) / (alpha * alpha);
  const double cy = -1.0 / alpha;
  for (size_t i = 0; i < x.size(); ++i) {
    grad_x[i] += scale * c * (cx * x[i] + cy * y[i]);
  }
}

void MobiusAdd(ConstSpan x, ConstSpan y, Span out) {
  TAXOREC_DCHECK(x.size() == y.size() && x.size() == out.size());
  const double xy = vec::Dot(x, y);
  const double xsq = vec::SqNorm(x);
  const double ysq = vec::SqNorm(y);
  double den = 1.0 + 2.0 * xy + xsq * ysq;
  if (std::abs(den) < 1e-15) den = den < 0 ? -1e-15 : 1e-15;
  const double cx = (1.0 + 2.0 * xy + ysq) / den;
  const double cy = (1.0 - xsq) / den;
  vec::Combine(cx, x, cy, y, out);
}

void ExpMap(ConstSpan x, ConstSpan eta, Span out) {
  TAXOREC_DCHECK(x.size() == eta.size() && x.size() == out.size());
  const double n = vec::Norm(eta);
  if (n < 1e-15) {
    vec::Copy(x, out);
    ProjectToBall(out);
    return;
  }
  std::vector<double> y(eta.size());
  vec::ScaleTo(eta, std::tanh(n / 2.0) / n, Span(y));
  MobiusAdd(x, ConstSpan(y), out);
  ProjectToBall(out);
}

void LogMap(ConstSpan x, ConstSpan y, Span out) {
  TAXOREC_DCHECK(x.size() == y.size() && x.size() == out.size());
  std::vector<double> neg_x(x.size());
  vec::ScaleTo(x, -1.0, Span(neg_x));
  std::vector<double> u(x.size());
  MobiusAdd(ConstSpan(neg_x), y, Span(u));
  double n = vec::Norm(u);
  if (n < 1e-15) {
    vec::Zero(out);
    return;
  }
  if (n > 1.0 - 1e-12) n = 1.0 - 1e-12;
  const double scale = SafeAlpha(x) * std::atanh(n) / vec::Norm(u);
  vec::ScaleTo(ConstSpan(u), scale, out);
}

void Geodesic(ConstSpan x, ConstSpan y, double t, Span out) {
  std::vector<double> v(x.size());
  LogMap(x, y, Span(v));
  vec::Scale(Span(v), t);
  // exp_x expects the tangent vector pre-scaled by the conformal factor
  // lambda_x = 2/(1-||x||^2): ExpMap's tanh(||eta||/2) convention matches
  // tangent vectors measured with lambda included, so rescale.
  vec::Scale(Span(v), 2.0 / SafeAlpha(x));
  ExpMap(x, ConstSpan(v), out);
}

void EuclideanToRiemannianGrad(ConstSpan x, Span grad) {
  const double a = SafeAlpha(x);
  vec::Scale(grad, a * a / 4.0);
}

void RsgdStep(Span x, ConstSpan euclidean_grad, double lr) {
  std::vector<double> eta(euclidean_grad.begin(), euclidean_grad.end());
  EuclideanToRiemannianGrad(x, Span(eta));
  vec::Scale(Span(eta), -lr);
  std::vector<double> out(x.size());
  ExpMap(x, ConstSpan(eta), Span(out));
  vec::Copy(ConstSpan(out), x);
}

void RandomPoint(Rng* rng, double radius, Span x) {
  TAXOREC_CHECK(radius > 0.0 && radius < 1.0);
  for (double& v : x) v = rng->NextGaussian();
  const double n = vec::Norm(x);
  if (n < 1e-15) {
    vec::Zero(x);
    return;
  }
  const double d = static_cast<double>(x.size());
  const double target = radius * std::pow(rng->NextDouble(), 1.0 / d);
  vec::Scale(x, target / n);
}

}  // namespace taxorec::poincare
