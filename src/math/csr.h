// Compressed sparse row matrix over binary/weighted relations.
//
// Used for the user-item interaction matrix X, the item-tag matrix A (Ψ in
// the paper), and the normalized bipartite propagation operators of the GCN.
#ifndef TAXOREC_MATH_CSR_H_
#define TAXOREC_MATH_CSR_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "math/matrix.h"

namespace taxorec {

/// One fused SpMM pass over the rows of a CsrMatrix (CsrMatrix::RunPass),
/// the kernel under MultiplyAccum and the bipartite GCN layers
/// (nn/gcn.cc). For every row r and column i it computes, per element and
/// in this order,
///   h  = self(r, i)                      (out(r, i) when self is null)
///   h += (alpha * w_k) * dense(c_k, i)   for each nonzero k, ascending
///   h *= scale
///   next(r, i) = h                       when next is not null
///   out(r, i)  = h | 0.0 + h | h + add(r, i)       (per `sum`)
/// holding the row (a block of its columns in the portable backend) in
/// registers across its nonzeros. Every step is one
/// IEEE multiply or add (never an FMA), so each backend returns the bits of
/// the unfused copy → MultiplyAccum → scale → Axpy sequence, at any thread
/// count. next and out must not alias self or dense; add may be out.
struct RowPass {
  enum class Sum { kStore, kFromZero, kAdd };
  const Matrix* dense = nullptr;
  const Matrix* self = nullptr;
  double alpha = 1.0;
  double scale = 1.0;
  Matrix* next = nullptr;
  Sum sum = Sum::kStore;
  const Matrix* add = nullptr;
  Matrix* out = nullptr;
};

/// Row-kernel backend RowPass runs on: "avx2" (binaries built with
/// TAXOREC_ENABLE_AVX2 on CPUs that have it) or "portable".
const char* SpmmBackend();

/// Test hook: forces the portable row kernel even where AVX2 runs. Not
/// thread-safe against in-flight passes.
void ForcePortableSpmmForTest(bool force);

/// Immutable CSR matrix built from (row, col[, weight]) triplets.
class CsrMatrix {
 public:
  CsrMatrix() : rows_(0), cols_(0) {}

  /// Builds from unweighted edges (all weights 1.0). Duplicate edges are
  /// collapsed (weights summed).
  static CsrMatrix FromPairs(size_t rows, size_t cols,
                             std::vector<std::pair<uint32_t, uint32_t>> edges);

  /// Builds from weighted triplets (row, col, weight); duplicates summed.
  static CsrMatrix FromTriplets(
      size_t rows, size_t cols,
      std::vector<std::tuple<uint32_t, uint32_t, double>> triplets);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return col_idx_.size(); }

  /// Column indices of row r (sorted ascending).
  std::span<const uint32_t> RowCols(size_t r) const {
    TAXOREC_DCHECK(r < rows_);
    return std::span<const uint32_t>(col_idx_.data() + row_ptr_[r],
                                     row_ptr_[r + 1] - row_ptr_[r]);
  }
  /// Weights of row r, aligned with RowCols(r).
  std::span<const double> RowWeights(size_t r) const {
    TAXOREC_DCHECK(r < rows_);
    return std::span<const double>(weights_.data() + row_ptr_[r],
                                   row_ptr_[r + 1] - row_ptr_[r]);
  }

  size_t RowNnz(size_t r) const {
    TAXOREC_DCHECK(r < rows_);
    return row_ptr_[r + 1] - row_ptr_[r];
  }

  /// True if (r, c) is an explicit entry (binary membership test).
  bool Contains(uint32_t r, uint32_t c) const;

  /// Transposed copy (cols × rows).
  CsrMatrix Transposed() const;

  /// out = this * dense  (rows × d). dense must have cols() rows.
  void Multiply(const Matrix& dense, Matrix* out) const;

  /// out += alpha * this * dense.
  void MultiplyAccum(const Matrix& dense, double alpha, Matrix* out) const;

  /// Runs one fused pass (see RowPass). next and out must already have
  /// rows() rows and dense's width; nothing is resized.
  void RunPass(const RowPass& pass) const;

  /// Returns a copy whose rows are L1-normalized (each nonzero row sums
  /// to 1) — the 1/|N| propagation operator of Eq. 13.
  CsrMatrix RowNormalized() const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<size_t> row_ptr_;     // size rows_+1
  std::vector<uint32_t> col_idx_;   // size nnz
  std::vector<double> weights_;     // size nnz
};

}  // namespace taxorec

#endif  // TAXOREC_MATH_CSR_H_
