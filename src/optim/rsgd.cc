#include "optim/rsgd.h"

#include <vector>

#include "common/check.h"
#include "hyperbolic/lorentz.h"
#include "hyperbolic/poincare.h"
#include "math/vec_ops.h"

namespace taxorec::optim {
namespace {

bool IsZeroRow(vec::ConstSpan row) {
  for (double v : row) {
    if (v != 0.0) return false;
  }
  return true;
}

}  // namespace

void PoincareRsgdUpdate(Matrix* params, const Matrix& grads, double lr,
                        double grad_clip) {
  TAXOREC_CHECK(params->rows() == grads.rows() &&
                params->cols() == grads.cols());
  std::vector<double> g(params->cols());
  for (size_t r = 0; r < params->rows(); ++r) {
    const auto grow = grads.row(r);
    if (IsZeroRow(grow)) continue;
    vec::Copy(grow, vec::Span(g));
    if (grad_clip > 0.0) vec::ClipNorm(vec::Span(g), grad_clip);
    poincare::RsgdStepInPlace(params->row(r), vec::Span(g), lr);
    // Guard entry point: keep the stepped row strictly inside the ball even
    // if a future RsgdStep variant skips its internal projection. A no-op
    // (bit-identical) for rows RsgdStep already projected.
    poincare::ProjectToBall(params->row(r));
  }
}

void LorentzRsgdUpdate(Matrix* params, const Matrix& grads, double lr,
                       double grad_clip) {
  TAXOREC_CHECK(params->rows() == grads.rows() &&
                params->cols() == grads.cols());
  std::vector<double> g(params->cols());
  for (size_t r = 0; r < params->rows(); ++r) {
    const auto grow = grads.row(r);
    if (IsZeroRow(grow)) continue;
    vec::Copy(grow, vec::Span(g));
    if (grad_clip > 0.0) vec::ClipNorm(vec::Span(g), grad_clip);
    lorentz::RsgdStepInPlace(params->row(r), vec::Span(g), lr);
    // Guard entry point: recompute the time coordinate so the row sits
    // exactly on the hyperboloid. Bit-identical for rows RsgdStep already
    // projected (same formula over the same spatial values).
    lorentz::ProjectToHyperboloid(params->row(r));
  }
}

}  // namespace taxorec::optim
