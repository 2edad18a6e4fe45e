// Reference checkers of the benchmark. They share no scoring, ranking or
// metric code with the library: distances, Eq. 17 scores, top-K selection,
// Recall/NDCG and the manifold residuals are written here from their
// definitions, in double precision, and only read the library's plain data
// (matrices, CSR rows, per-user alpha).
#ifndef TAXOREC_PERFBENCH_REFERENCE_H_
#define TAXOREC_PERFBENCH_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "math/matrix.h"
#include "serve/snapshot.h"

namespace perfbench::ref {

/// <x, y>_L = -x0*y0 + sum_{i>=1} xi*yi.
double LorentzInner(std::span<const double> x, std::span<const double> y);

/// d_H(x, y)^2 = acosh(max(1, -<x, y>_L))^2.
double LorentzSqDist(std::span<const double> x, std::span<const double> y);

/// Eq. 17 for a two-channel Lorentz snapshot:
///   -(d_H^2(u_ir, v_ir) + alpha_u * d_H^2(u_tg, v_tg)),
/// the tag term only when alpha_u > 0.
double Eq17Score(const taxorec::ScoringSnapshot& s, uint32_t user,
                 uint32_t item);

/// Eq. 17 scores of every item for `user` (excluded items are not masked).
void Eq17Row(const taxorec::ScoringSnapshot& s, uint32_t user,
             std::vector<double>* out);

struct Ranked {
  uint32_t item = 0;
  double score = 0.0;
};

/// The k best entries of `scores`, skipping the items in `exclude` (any
/// order) and non-finite scores; score descending, item id ascending on
/// ties.
std::vector<Ranked> TopK(std::span<const double> scores, size_t k,
                         std::span<const uint32_t> exclude);

/// Checks one served list against the reference scores of its user:
///   - no excluded item and no repeated item,
///   - the list holds min(k, number of allowed items) entries, best first,
///   - every served score is within `tol` of the reference score,
///   - no unlisted allowed item beats the last listed reference score by
///     more than `tol`.
/// Returns "" on success, else what failed.
std::string CheckServedList(std::span<const uint32_t> items,
                            std::span<const double> served_scores, size_t k,
                            std::span<const double> ref_scores,
                            std::span<const uint32_t> exclude, double tol);

/// Share of `want` found in `got` (|want| > 0).
double Overlap(std::span<const uint32_t> want, std::span<const uint32_t> got);

/// Recall@k = |top-k ∩ T| / |T|.
double RecallAt(std::span<const uint32_t> ranked,
                std::span<const uint32_t> targets, size_t k);

/// NDCG@k with binary relevance: sum over hits at rank r (0-based) of
/// 1/log2(r+2), over the ideal DCG of min(k, |T|) hits.
double NdcgAt(std::span<const uint32_t> ranked,
              std::span<const uint32_t> targets, size_t k);

/// Expected NDCG@k of a uniformly random ranking of `candidates` items of
/// which `targets` are relevant.
double RandomNdcgAt(size_t candidates, size_t targets, size_t k);

/// max over rows of |<x,x>_L + 1| / max(1, x0^2); +Inf when some row has
/// x0 <= 0 or a non-finite entry.
double HyperboloidResidual(const taxorec::Matrix& rows);

/// max over rows of the Euclidean norm (Poincaré-ball points need < 1);
/// +Inf on a non-finite entry.
double MaxBallNorm(const taxorec::Matrix& rows);

}  // namespace perfbench::ref

#endif  // TAXOREC_PERFBENCH_REFERENCE_H_
