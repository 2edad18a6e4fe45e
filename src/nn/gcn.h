// Bipartite graph-convolution propagation (Eq. 13–14) with exact backward.
//
// Forward per layer (simultaneous update from layer-l values):
//   Zu^{l+1} = (Zu^l + Pui Zv^l) / 2   (Pui: row-normalized user→item)
//   Zv^{l+1} = (Zv^l + Piu Zu^l) / 2   (Piu: row-normalized item→user)
// Outputs are the layer sums  out = sum_{l=1..L} Z^l.
//
// The 1/2 normalizes the residual mix (Eq. 13 as written has per-layer gain
// up to 2, i.e. 2^L overall, which in the Lorentz pipeline pushes points far
// from the origin and collapses training — see DESIGN.md §4). Since both
// terms are row-stochastic-weighted, layer magnitudes stay bounded by the
// inputs' and the paper's margin grid m ∈ [0.1, 0.4] stays meaningful.
// All operations are linear, so the backward pass is the adjoint recursion
// with the transposed operators.
#ifndef TAXOREC_NN_GCN_H_
#define TAXOREC_NN_GCN_H_

#include "math/csr.h"
#include "math/matrix.h"

namespace taxorec::nn {

/// Propagation workspace: two ping-pong layer buffers per side, resized on
/// first use and reused by every later call. Forward writes Z^{l+1} into
/// slot l % 2 while reading Z^l from the other slot (or from the inputs);
/// the last layer goes straight into the layer sum and is not stored.
/// Backward reuses the slots for its adjoint recursion. Nothing reads a
/// layer after the call that wrote it — the backward of a linear operator
/// needs only the upstream gradients — so the context keeps no per-layer
/// activations and one context can serve a channel's forward and backward.
struct GcnContext {
  Matrix zu[2];
  Matrix zv[2];
};

/// Bipartite LightGCN-style propagation operator.
class BipartiteGcn {
 public:
  /// `interactions` is the binary user×item matrix X (training split).
  BipartiteGcn(const CsrMatrix& interactions, int num_layers);

  int num_layers() const { return num_layers_; }

  /// Computes out_u = sum_{l=1..L} Zu^l (and likewise out_v) from inputs
  /// Zu0 (users × D), Zv0 (items × D), using ctx as layer workspace. One
  /// fused CsrMatrix::RunPass per layer and side computes
  /// Z^{l+1} = 0.5·(Z^l + P Z^l_other) and adds it to the layer sum.
  /// Outputs are resized on demand and must not alias the inputs.
  void Forward(const Matrix& zu0, const Matrix& zv0, GcnContext* ctx,
               Matrix* out_u, Matrix* out_v) const;

  /// Computes grad wrt the inputs: grad_u0/grad_v0 are *overwritten* with
  /// the adjoints of upstream gradients on (out_u, out_v), using `work`'s
  /// slots as scratch (a channel's forward context can be passed: Backward
  /// does not read the forward's layers). Outputs are resized on demand
  /// and must not alias the inputs.
  void Backward(const Matrix& up_u, const Matrix& up_v, GcnContext* work,
                Matrix* grad_u0, Matrix* grad_v0) const;

  /// Backward with a call-local workspace.
  void Backward(const Matrix& up_u, const Matrix& up_v, Matrix* grad_u0,
                Matrix* grad_v0) const;

  size_t num_users() const { return pui_.rows(); }
  size_t num_items() const { return piu_.rows(); }

 private:
  int num_layers_;
  CsrMatrix pui_;    // user → item, rows sum to 1
  CsrMatrix piu_;    // item → user, rows sum to 1
  CsrMatrix pui_t_;  // transpose of pui_
  CsrMatrix piu_t_;  // transpose of piu_
};

/// Faithful LightGCN propagation: symmetric-normalized pure neighbour
/// aggregation WITHOUT self-connections,
///   Zu^{l+1} = Â Zv^l,   Zv^{l+1} = Â^T Zu^l,   Â = D_u^{-1/2} X D_v^{-1/2},
/// and the final representation is the mean of layers 0..L. This is
/// deliberately distinct from BipartiteGcn: TaxoRec's Eq. 13 carries a
/// residual self-term; LightGCN's defining design drops self-connections.
class LightGcnPropagation {
 public:
  LightGcnPropagation(const CsrMatrix& interactions, int num_layers);

  int num_layers() const { return num_layers_; }

  /// out = mean(Z^0 .. Z^L), using ctx as layer workspace.
  void Forward(const Matrix& zu0, const Matrix& zv0, GcnContext* ctx,
               Matrix* out_u, Matrix* out_v) const;

  /// Overwrites grad_u0/grad_v0 with the adjoints of upstream gradients on
  /// the outputs.
  void Backward(const Matrix& up_u, const Matrix& up_v, Matrix* grad_u0,
                Matrix* grad_v0) const;

  size_t num_users() const { return a_.rows(); }
  size_t num_items() const { return a_.cols(); }

 private:
  int num_layers_;
  CsrMatrix a_;    // Â, user × item
  CsrMatrix a_t_;  // Â^T
};

}  // namespace taxorec::nn

#endif  // TAXOREC_NN_GCN_H_
