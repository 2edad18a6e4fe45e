#include "math/csr.h"

#include <algorithm>
#include <atomic>
#include <tuple>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"

#if defined(TAXOREC_ENABLE_AVX2) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define TAXOREC_HAVE_AVX2_BUILD 1
#include <immintrin.h>
#else
#define TAXOREC_HAVE_AVX2_BUILD 0
#endif

namespace taxorec {
namespace {

// One output row of a RowPass, as raw pointers.
struct RowArgs {
  const uint32_t* cols;
  const double* w;
  size_t nnz;
  const double* dense;  // row c of the dense operand starts at dense + c * d
  size_t d;
  double alpha;
  double scale;
  RowPass::Sum sum;
  const double* self;
  double* next;  // null: not stored
  const double* add;
  double* out;
};

// ---------------------------------------------------------------------------
// Portable backend (sanitizer builds, non-x86, CPUs without AVX2): columns
// in blocks of N held in a local array across the row's nonzeros.
// ---------------------------------------------------------------------------

template <size_t N>
inline void PortableBlock(const RowArgs& a, size_t i) {
  double h[N];
#pragma GCC unroll 8
  for (size_t j = 0; j < N; ++j) h[j] = a.self[i + j];
  for (size_t k = 0; k < a.nnz; ++k) {
    const double s = a.alpha * a.w[k];
    const double* x = a.dense + a.cols[k] * a.d + i;
#pragma GCC unroll 8
    for (size_t j = 0; j < N; ++j) h[j] += s * x[j];
  }
#pragma GCC unroll 8
  for (size_t j = 0; j < N; ++j) {
    h[j] *= a.scale;
    if (a.next != nullptr) a.next[i + j] = h[j];
    switch (a.sum) {
      case RowPass::Sum::kStore:
        break;
      case RowPass::Sum::kFromZero:
        h[j] = 0.0 + h[j];
        break;
      case RowPass::Sum::kAdd:
        h[j] += a.add[i + j];
        break;
    }
    a.out[i + j] = h[j];
  }
}

void RowPortable(const RowArgs& a) {
  size_t i = 0;
  for (; i + 8 <= a.d; i += 8) PortableBlock<8>(a, i);
  for (; i + 4 <= a.d; i += 4) PortableBlock<4>(a, i);
  for (; i < a.d; ++i) PortableBlock<1>(a, i);
}

// ---------------------------------------------------------------------------
// AVX2 backend: the same per-element steps on 4-double vectors. A block
// holds V full vectors plus, with kTail, one masked vector for the last
// 1-3 columns, so rows up to 56 wide (TaxoRec's 53 and 13) take a single
// block: one pass over the nonzeros, the whole row in registers. Separate
// vmulpd/vaddpd only — the target deliberately omits "fma", so the
// compiler cannot contract them and the bits match the portable backend.
// ---------------------------------------------------------------------------

#if TAXOREC_HAVE_AVX2_BUILD

// The per-element epilogue on the vector of columns [off, off + 4); `mask`
// selects the lanes of a tail vector.
template <bool kMasked>
__attribute__((target("avx2"), always_inline)) inline void Avx2Finish(
    const RowArgs& a, size_t off, __m256d h, __m256i mask) {
  h = _mm256_mul_pd(h, _mm256_set1_pd(a.scale));
  if (a.next != nullptr) {
    if constexpr (kMasked) {
      _mm256_maskstore_pd(a.next + off, mask, h);
    } else {
      _mm256_storeu_pd(a.next + off, h);
    }
  }
  switch (a.sum) {
    case RowPass::Sum::kStore:
      break;
    case RowPass::Sum::kFromZero:
      h = _mm256_add_pd(_mm256_setzero_pd(), h);
      break;
    case RowPass::Sum::kAdd:
      h = _mm256_add_pd(h, kMasked ? _mm256_maskload_pd(a.add + off, mask)
                                   : _mm256_loadu_pd(a.add + off));
      break;
  }
  if constexpr (kMasked) {
    _mm256_maskstore_pd(a.out + off, mask, h);
  } else {
    _mm256_storeu_pd(a.out + off, h);
  }
}

// Takes no vector arguments on purpose: gcc then ends the function with
// vzeroupper, so the SSE code the caller returns to (libm, the maps, RSGD)
// does not run with a dirty upper register state. A vector argument would
// suppress the vzeroupper; the dirty state made the rest of a training
// epoch about 2× slower on an AVX-512 Xeon.
template <size_t V, bool kTail>
__attribute__((target("avx2"))) void Avx2Block(const RowArgs& a, size_t i,
                                               size_t tail) {
  // Lanes [0, tail) of the tail vector.
  const __m256i mask =
      _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(tail)),
                         _mm256_setr_epi64x(0, 1, 2, 3));
  __m256d h[V + kTail];
#pragma GCC unroll 16
  for (size_t v = 0; v < V; ++v) h[v] = _mm256_loadu_pd(a.self + i + 4 * v);
  if constexpr (kTail) h[V] = _mm256_maskload_pd(a.self + i + 4 * V, mask);
  for (size_t k = 0; k < a.nnz; ++k) {
    const __m256d s = _mm256_set1_pd(a.alpha * a.w[k]);
    const double* x = a.dense + a.cols[k] * a.d + i;
#pragma GCC unroll 16
    for (size_t v = 0; v < V; ++v) {
      h[v] = _mm256_add_pd(h[v], _mm256_mul_pd(s, _mm256_loadu_pd(x + 4 * v)));
    }
    if constexpr (kTail) {
      h[V] = _mm256_add_pd(
          h[V], _mm256_mul_pd(s, _mm256_maskload_pd(x + 4 * V, mask)));
    }
  }
#pragma GCC unroll 16
  for (size_t v = 0; v < V; ++v) {
    Avx2Finish<false>(a, i + 4 * v, h[v], mask);
  }
  if constexpr (kTail) Avx2Finish<true>(a, i + 4 * V, h[V], mask);
}

using Avx2BlockFn = void (*)(const RowArgs&, size_t, size_t);

// Blocks by width: kAvx2Blocks[n] covers n = 4·V + tail columns, n ≤ 56
// (V + kTail ≤ 14 accumulators, leaving two of the 16 ymm registers for
// the broadcast weight and the product).
#define TAXOREC_BLOCKS(V) \
  &Avx2Block<V, false>, &Avx2Block<V, true>, &Avx2Block<V, true>, \
      &Avx2Block<V, true>
constexpr Avx2BlockFn kAvx2Blocks[57] = {
    nullptr,           &Avx2Block<0, true>, &Avx2Block<0, true>,
    &Avx2Block<0, true>, TAXOREC_BLOCKS(1),  TAXOREC_BLOCKS(2),
    TAXOREC_BLOCKS(3),   TAXOREC_BLOCKS(4),  TAXOREC_BLOCKS(5),
    TAXOREC_BLOCKS(6),   TAXOREC_BLOCKS(7),  TAXOREC_BLOCKS(8),
    TAXOREC_BLOCKS(9),   TAXOREC_BLOCKS(10), TAXOREC_BLOCKS(11),
    TAXOREC_BLOCKS(12),  TAXOREC_BLOCKS(13), &Avx2Block<14, false>,
};
#undef TAXOREC_BLOCKS

__attribute__((target("avx2"))) void RowAvx2(const RowArgs& a) {
  constexpr size_t kMaxBlock = 56;
  size_t i = 0;
  // Wider rows: 48-column blocks until one block covers the rest.
  for (; a.d - i > kMaxBlock; i += 48) Avx2Block<12, false>(a, i, 0);
  const size_t n = a.d - i;
  kAvx2Blocks[n](a, i, n % 4);
}
#endif  // TAXOREC_HAVE_AVX2_BUILD

std::atomic<bool> g_force_portable{false};

using RowKernel = void (*)(const RowArgs&);

RowKernel ActiveRowKernel() {
#if TAXOREC_HAVE_AVX2_BUILD
  static const bool avx2 = __builtin_cpu_supports("avx2");
  if (avx2 && !g_force_portable.load(std::memory_order_relaxed)) {
    return RowAvx2;
  }
#endif
  return RowPortable;
}

}  // namespace

const char* SpmmBackend() {
  return ActiveRowKernel() == RowPortable ? "portable" : "avx2";
}

void ForcePortableSpmmForTest(bool force) {
  g_force_portable.store(force, std::memory_order_relaxed);
}

CsrMatrix CsrMatrix::FromPairs(
    size_t rows, size_t cols,
    std::vector<std::pair<uint32_t, uint32_t>> edges) {
  std::vector<std::tuple<uint32_t, uint32_t, double>> triplets;
  triplets.reserve(edges.size());
  for (const auto& [r, c] : edges) triplets.emplace_back(r, c, 1.0);
  return FromTriplets(rows, cols, std::move(triplets));
}

CsrMatrix CsrMatrix::FromTriplets(
    size_t rows, size_t cols,
    std::vector<std::tuple<uint32_t, uint32_t, double>> triplets) {
  std::sort(triplets.begin(), triplets.end(),
            [](const auto& a, const auto& b) {
              return std::tie(std::get<0>(a), std::get<1>(a)) <
                     std::tie(std::get<0>(b), std::get<1>(b));
            });
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.reserve(triplets.size());
  m.weights_.reserve(triplets.size());
  for (size_t i = 0; i < triplets.size();) {
    const uint32_t r = std::get<0>(triplets[i]);
    const uint32_t c = std::get<1>(triplets[i]);
    TAXOREC_CHECK(r < rows && c < cols);
    double w = 0.0;
    while (i < triplets.size() && std::get<0>(triplets[i]) == r &&
           std::get<1>(triplets[i]) == c) {
      w += std::get<2>(triplets[i]);
      ++i;
    }
    m.col_idx_.push_back(c);
    m.weights_.push_back(w);
    m.row_ptr_[r + 1] = m.col_idx_.size();
  }
  // Rows with no entries inherit the running prefix.
  for (size_t r = 1; r <= rows; ++r) {
    if (m.row_ptr_[r] < m.row_ptr_[r - 1]) m.row_ptr_[r] = m.row_ptr_[r - 1];
  }
  return m;
}

bool CsrMatrix::Contains(uint32_t r, uint32_t c) const {
  if (r >= rows_) return false;
  const auto cols = RowCols(r);
  return std::binary_search(cols.begin(), cols.end(), c);
}

CsrMatrix CsrMatrix::Transposed() const {
  std::vector<std::tuple<uint32_t, uint32_t, double>> triplets;
  triplets.reserve(nnz());
  for (size_t r = 0; r < rows_; ++r) {
    const auto cols = RowCols(r);
    const auto w = RowWeights(r);
    for (size_t k = 0; k < cols.size(); ++k) {
      triplets.emplace_back(cols[k], static_cast<uint32_t>(r), w[k]);
    }
  }
  return FromTriplets(cols_, rows_, std::move(triplets));
}

void CsrMatrix::Multiply(const Matrix& dense, Matrix* out) const {
  TAXOREC_CHECK(dense.rows() == cols_);
  if (out->rows() != rows_ || out->cols() != dense.cols()) {
    *out = Matrix(rows_, dense.cols());
  } else {
    out->SetZero();
  }
  MultiplyAccum(dense, 1.0, out);
}

void CsrMatrix::MultiplyAccum(const Matrix& dense, double alpha,
                              Matrix* out) const {
  RowPass pass;
  pass.dense = &dense;
  pass.alpha = alpha;
  pass.out = out;
  RunPass(pass);
}

void CsrMatrix::RunPass(const RowPass& p) const {
  TAXOREC_CHECK(p.dense != nullptr && p.out != nullptr);
  const size_t d = p.dense->cols();
  auto shaped = [&](const Matrix* m) {
    return m->rows() == rows_ && m->cols() == d;
  };
  TAXOREC_CHECK(p.dense->rows() == cols_ && shaped(p.out));
  TAXOREC_CHECK(p.self == nullptr || shaped(p.self));
  TAXOREC_CHECK(p.next == nullptr || shaped(p.next));
  TAXOREC_CHECK(p.sum != RowPass::Sum::kAdd ||
                (p.add != nullptr && shaped(p.add)));
  // Whole-call instruments only: per-row updates would put an atomic RMW in
  // the innermost loop (the <3% armed-overhead budget of
  // bench_micro_kernels is measured against this placement).
  TraceSpan span("spmm");
  static Counter* calls =
      MetricsRegistry::Instance().GetCounter("taxorec.spmm.calls");
  static Counter* row_count =
      MetricsRegistry::Instance().GetCounter("taxorec.spmm.rows");
  calls->Increment();
  row_count->Increment(rows_);
  if (d == 0) return;
  // The loop body captures two pointers, which std::function stores
  // without allocating.
  struct Job {
    const RowPass* pass;
    const Matrix* self;
    RowKernel kernel;
  } const job{&p, p.self != nullptr ? p.self : p.out, ActiveRowKernel()};
  // Row-parallel: every output row is owned by exactly one worker, so the
  // result is bit-identical at any thread count. Small grain + static
  // round-robin chunks balance the power-law row lengths.
  ParallelFor(0, rows_, /*grain=*/32, [this, &job](size_t r0, size_t r1) {
    const RowPass& p = *job.pass;
    RowArgs a{};
    a.dense = p.dense->flat().data();
    a.d = p.dense->cols();
    a.alpha = p.alpha;
    a.scale = p.scale;
    a.sum = p.sum;
    for (size_t r = r0; r < r1; ++r) {
      a.cols = col_idx_.data() + row_ptr_[r];
      a.w = weights_.data() + row_ptr_[r];
      a.nnz = row_ptr_[r + 1] - row_ptr_[r];
      a.self = job.self->row(r).data();
      a.next = p.next != nullptr ? p.next->row(r).data() : nullptr;
      a.add = p.sum == RowPass::Sum::kAdd ? p.add->row(r).data() : nullptr;
      a.out = p.out->row(r).data();
      job.kernel(a);
    }
  });
}

CsrMatrix CsrMatrix::RowNormalized() const {
  CsrMatrix m = *this;
  for (size_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) sum += weights_[k];
    if (sum <= 0.0) continue;
    for (size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      m.weights_[k] = weights_[k] / sum;
    }
  }
  return m;
}

}  // namespace taxorec
