#include "nn/gcn.h"

#include <cmath>
#include <tuple>
#include <vector>

#include "common/check.h"

namespace taxorec::nn {

BipartiteGcn::BipartiteGcn(const CsrMatrix& interactions, int num_layers)
    : num_layers_(num_layers),
      pui_(interactions.RowNormalized()),
      piu_(interactions.Transposed().RowNormalized()),
      pui_t_(pui_.Transposed()),
      piu_t_(piu_.Transposed()) {
  TAXOREC_CHECK(num_layers >= 1);
}

void BipartiteGcn::Forward(const Matrix& zu0, const Matrix& zv0,
                           GcnContext* ctx, Matrix* out_u,
                           Matrix* out_v) const {
  TAXOREC_CHECK(zu0.rows() == num_users() && zv0.rows() == num_items());
  TAXOREC_CHECK(zu0.cols() == zv0.cols());
  const size_t d = zu0.cols();
  out_u->Resize(num_users(), d);
  out_v->Resize(num_items(), d);
  // Layer l reads Z^l (the inputs, then slot (l-1) % 2) and writes Z^{l+1}
  // to slot l % 2; the last layer only feeds the sums. The first layer
  // starts each sum at 0.0 + Z^1, the value a zeroed sum plus Axpy gives.
  const Matrix* zu = &zu0;
  const Matrix* zv = &zv0;
  for (int l = 0; l < num_layers_; ++l) {
    const bool last = l + 1 == num_layers_;
    Matrix* next_u = last ? nullptr : &ctx->zu[l % 2];
    Matrix* next_v = last ? nullptr : &ctx->zv[l % 2];
    if (!last) {
      next_u->Resize(num_users(), d);
      next_v->Resize(num_items(), d);
    }
    RowPass pass;
    pass.scale = 0.5;
    pass.sum = l == 0 ? RowPass::Sum::kFromZero : RowPass::Sum::kAdd;
    pass.dense = zv;
    pass.self = zu;
    pass.next = next_u;
    pass.add = out_u;
    pass.out = out_u;
    pui_.RunPass(pass);
    pass.dense = zu;
    pass.self = zv;
    pass.next = next_v;
    pass.add = out_v;
    pass.out = out_v;
    piu_.RunPass(pass);
    zu = next_u;
    zv = next_v;
  }
}

void BipartiteGcn::Backward(const Matrix& up_u, const Matrix& up_v,
                            GcnContext* work, Matrix* grad_u0,
                            Matrix* grad_v0) const {
  TAXOREC_CHECK(up_u.rows() == num_users() && up_v.rows() == num_items());
  TAXOREC_CHECK(up_u.cols() == up_v.cols());
  const size_t d = up_u.cols();
  // Adjoint recursion: a^L = upstream; for l = L-1 .. 0:
  //   au^l = (au^{l+1} + Piu^T av^{l+1}) / 2 + [l >= 1] * up_u
  //   av^l = (av^{l+1} + Pui^T au^{l+1}) / 2 + [l >= 1] * up_v
  // Step s = L-1-l writes slot s % 2, the last step the gradients.
  const Matrix* au = &up_u;
  const Matrix* av = &up_v;
  for (int l = num_layers_ - 1; l >= 0; --l) {
    const int slot = (num_layers_ - 1 - l) % 2;
    Matrix* next_u = l == 0 ? grad_u0 : &work->zu[slot];
    Matrix* next_v = l == 0 ? grad_v0 : &work->zv[slot];
    next_u->Resize(num_users(), d);
    next_v->Resize(num_items(), d);
    RowPass pass;
    pass.scale = 0.5;
    pass.sum = l >= 1 ? RowPass::Sum::kAdd : RowPass::Sum::kStore;
    pass.dense = av;
    pass.self = au;
    pass.add = &up_u;
    pass.out = next_u;
    piu_t_.RunPass(pass);
    pass.dense = au;
    pass.self = av;
    pass.add = &up_v;
    pass.out = next_v;
    pui_t_.RunPass(pass);
    au = next_u;
    av = next_v;
  }
}

void BipartiteGcn::Backward(const Matrix& up_u, const Matrix& up_v,
                            Matrix* grad_u0, Matrix* grad_v0) const {
  GcnContext work;
  Backward(up_u, up_v, &work, grad_u0, grad_v0);
}

namespace {

// Â = D_u^{-1/2} X D_v^{-1/2} from the binary interaction matrix.
CsrMatrix SymmetricNormalized(const CsrMatrix& x) {
  std::vector<double> du(x.rows(), 0.0), dv(x.cols(), 0.0);
  for (size_t r = 0; r < x.rows(); ++r) {
    for (uint32_t c : x.RowCols(r)) {
      du[r] += 1.0;
      dv[c] += 1.0;
    }
  }
  std::vector<std::tuple<uint32_t, uint32_t, double>> triplets;
  triplets.reserve(x.nnz());
  for (size_t r = 0; r < x.rows(); ++r) {
    for (uint32_t c : x.RowCols(r)) {
      const double w = 1.0 / std::sqrt(du[r] * dv[c]);
      triplets.emplace_back(static_cast<uint32_t>(r), c, w);
    }
  }
  return CsrMatrix::FromTriplets(x.rows(), x.cols(), std::move(triplets));
}

}  // namespace

LightGcnPropagation::LightGcnPropagation(const CsrMatrix& interactions,
                                         int num_layers)
    : num_layers_(num_layers),
      a_(SymmetricNormalized(interactions)),
      a_t_(a_.Transposed()) {
  TAXOREC_CHECK(num_layers >= 1);
}

void LightGcnPropagation::Forward(const Matrix& zu0, const Matrix& zv0,
                                  GcnContext* ctx, Matrix* out_u,
                                  Matrix* out_v) const {
  TAXOREC_CHECK(zu0.rows() == num_users() && zv0.rows() == num_items());
  *out_u = zu0;
  *out_v = zv0;
  // Z^{l+1} goes to slot l % 2, Z^l is the inputs or the other slot.
  const Matrix* zu = &zu0;
  const Matrix* zv = &zv0;
  for (int l = 0; l < num_layers_; ++l) {
    Matrix* next_u = &ctx->zu[l % 2];
    Matrix* next_v = &ctx->zv[l % 2];
    a_.Multiply(*zv, next_u);
    a_t_.Multiply(*zu, next_v);
    out_u->Axpy(1.0, *next_u);
    out_v->Axpy(1.0, *next_v);
    zu = next_u;
    zv = next_v;
  }
  const double inv = 1.0 / static_cast<double>(num_layers_ + 1);
  for (double& x : out_u->flat()) x *= inv;
  for (double& x : out_v->flat()) x *= inv;
}

void LightGcnPropagation::Backward(const Matrix& up_u, const Matrix& up_v,
                                   Matrix* grad_u0, Matrix* grad_v0) const {
  // out = (1/(L+1)) * sum_l Z^l with Z^{l+1} = op(Z^l) and op swapping
  // sides; adjoint: a^L = up/(L+1); a^l = up/(L+1) + op^T(a^{l+1}).
  const double inv = 1.0 / static_cast<double>(num_layers_ + 1);
  Matrix au = up_u;
  Matrix av = up_v;
  for (double& x : au.flat()) x *= inv;
  for (double& x : av.flat()) x *= inv;
  for (int l = num_layers_ - 1; l >= 0; --l) {
    Matrix next_au, next_av;
    // Z_u^{l+1} = Â Z_v^l → contributes Â^T a_u^{l+1} to a_v^l, and
    // Z_v^{l+1} = Â^T Z_u^l → contributes Â a_v^{l+1} to a_u^l.
    a_.Multiply(av, &next_au);
    a_t_.Multiply(au, &next_av);
    for (size_t i = 0; i < next_au.flat().size(); ++i) {
      next_au.flat()[i] += inv * up_u.flat()[i];
    }
    for (size_t i = 0; i < next_av.flat().size(); ++i) {
      next_av.flat()[i] += inv * up_v.flat()[i];
    }
    au = std::move(next_au);
    av = std::move(next_av);
  }
  *grad_u0 = std::move(au);
  *grad_v0 = std::move(av);
}

}  // namespace taxorec::nn
