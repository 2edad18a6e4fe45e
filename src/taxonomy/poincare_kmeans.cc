#include "taxonomy/poincare_kmeans.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>

#include "common/check.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "hyperbolic/klein.h"
#include "hyperbolic/maps.h"
#include "hyperbolic/poincare.h"
#include "math/vec_ops.h"

namespace taxorec {
namespace {

constexpr size_t kLanes = CentroidBlocks::kLanes;
constexpr double kInf = std::numeric_limits<double>::infinity();

// A lazy acosh scan evaluates acosh for every argument within this relative
// margin of the best argument so far and keeps `acosh(arg) < best` as the
// deciding test. Skipping an argument beyond the margin is then exact as
// long as acosh is monotone across relative gaps of 2^-40 — far wider than
// its rounding error — without relying on libm's acosh being exactly
// monotone.
constexpr double kAcoshMargin = 1.0 + 0x1p-40;

// Two doubles in one SSE2 register (GCC/Clang vector extension). Each lane
// runs the scalar IEEE operation, and there is no fused multiply-add on the
// default -O2 target to contract into.
typedef double Pair __attribute__((vector_size(2 * sizeof(double))));
static_assert(kLanes == 8, "BlockSqDist keeps four Pair accumulators");

Pair LoadPair(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Squared distances from x to the kLanes centroids of one block. Lane l sums
// (x_j - c_j)^2 from +0.0 in ascending j with a separate multiply and add,
// the exact operation sequence of vec::SqDist(x, c_l). The accumulators are
// four register-sized locals: one 8-wide vector (or an array) is kept in
// memory by GCC and runs about twice as slow.
void BlockSqDist(const double* x, const double* block, size_t d,
                 double* out) {
  Pair a0 = {}, a1 = {}, a2 = {}, a3 = {};
  for (size_t j = 0; j < d; ++j, block += kLanes) {
    const Pair xj = {x[j], x[j]};
    const Pair t0 = xj - LoadPair(block);
    const Pair t1 = xj - LoadPair(block + 2);
    const Pair t2 = xj - LoadPair(block + 4);
    const Pair t3 = xj - LoadPair(block + 6);
    a0 += t0 * t0;
    a1 += t1 * t1;
    a2 += t2 * t2;
    a3 += t3 * t3;
  }
  std::memcpy(out, &a0, sizeof(a0));
  std::memcpy(out + 2, &a1, sizeof(a1));
  std::memcpy(out + 4, &a2, sizeof(a2));
  std::memcpy(out + 6, &a3, sizeof(a3));
}

// The IVF quantizer's conformal term: 1 - |x|^2 with a positive floor
// (points are ProjectToBall-clamped, so the floor only guards accumulated
// rounding).
double ConformalAlpha(vec::ConstSpan x) {
  const double a = 1.0 - vec::SqNorm(x);
  return a > 1e-12 ? a : 1e-12;
}

// acosh argument of poincare::Distance for a squared distance and the two
// conformal terms, clamped as Distance clamps it.
double AcoshArg(double sq, double alpha, double beta) {
  const double arg = 1.0 + 2.0 * sq / (alpha * beta);
  return arg < 1.0 ? 1.0 : arg;
}

// Centroid of the member points in Klein coordinates (Einstein midpoint),
// mapped back to the ball. Members accumulate in the order given.
void KleinCentroid(const Matrix& points, std::span<const uint32_t> members,
                   vec::Span centroid) {
  const size_t d = points.cols();
  std::vector<double> klein(d);
  std::vector<double> acc(d, 0.0);
  double denom = 0.0;
  for (uint32_t row : members) {
    hyper::PoincareToKlein(points.row(row), vec::Span(klein));
    const double g = klein::LorentzFactor(vec::ConstSpan(klein));
    vec::Axpy(g, vec::ConstSpan(klein), vec::Span(acc));
    denom += g;
  }
  if (denom <= 0.0) {
    vec::Zero(centroid);
    return;
  }
  vec::Scale(vec::Span(acc), 1.0 / denom);
  hyper::KleinToPoincare(vec::ConstSpan(acc), centroid);
  poincare::ProjectToBall(centroid);
}

// Centroid via Euclidean mean in the tangent space at the origin:
// log_0(p) = 2 artanh(||p||) p/||p||, exp_0(v) = tanh(||v||/2) v/||v||.
void TangentCentroid(const Matrix& points, std::span<const uint32_t> members,
                     vec::Span centroid) {
  const size_t d = points.cols();
  std::vector<double> acc(d, 0.0);
  double count = 0.0;
  for (uint32_t row : members) {
    const auto p = points.row(row);
    const double n = vec::Norm(p);
    if (n > 1e-15) {
      const double clipped = n > 1.0 - 1e-10 ? 1.0 - 1e-10 : n;
      vec::Axpy(2.0 * std::atanh(clipped) / n, p, vec::Span(acc));
    }
    count += 1.0;
  }
  if (count <= 0.0) {
    vec::Zero(centroid);
    return;
  }
  vec::Scale(vec::Span(acc), 1.0 / count);
  const double vn = vec::Norm(vec::ConstSpan(acc));
  if (vn < 1e-15) {
    vec::Zero(centroid);
    return;
  }
  vec::ScaleTo(vec::ConstSpan(acc), std::tanh(vn / 2.0) / vn, centroid);
  poincare::ProjectToBall(centroid);
}

}  // namespace

CentroidBlocks::CentroidBlocks(const Matrix& centroids, NearestRule rule)
    : rule_(rule), count_(centroids.rows()), dim_(centroids.cols()) {
  const size_t padded = (count_ + kLanes - 1) / kLanes * kLanes;
  // Padding lanes hold the origin with factor 1: finite, never compared.
  lanes_.assign(padded * dim_, 0.0);
  factor_.assign(padded, 1.0);
  for (size_t k = 0; k < count_; ++k) {
    const auto c = centroids.row(k);
    double* lane = lanes_.data() + (k / kLanes) * dim_ * kLanes + k % kLanes;
    for (size_t j = 0; j < dim_; ++j) lane[j * kLanes] = c[j];
    factor_[k] = rule == NearestRule::kPoincareDistance
                     ? poincare::SafeAlpha(c)
                     : 1.0 / ConformalAlpha(c);
  }
}

uint32_t CentroidBlocks::Nearest(vec::ConstSpan x) const {
  TAXOREC_DCHECK(x.size() == dim_);
  const bool poincare_rule = rule_ == NearestRule::kPoincareDistance;
  const double x_factor =
      poincare_rule ? poincare::SafeAlpha(x) : 1.0 / ConformalAlpha(x);
  double best = kInf;
  double bound = kInf;  // kAcoshMargin above the best acosh argument
  uint32_t best_k = 0;
  const double* block = lanes_.data();
  for (size_t k0 = 0; k0 < count_; k0 += kLanes, block += dim_ * kLanes) {
    double sq[kLanes];
    BlockSqDist(x.data(), block, dim_, sq);
    const size_t lanes = std::min(kLanes, count_ - k0);
    for (size_t l = 0; l < lanes; ++l) {
      const double factor = factor_[k0 + l];
      if (poincare_rule) {
        // Distance = acosh(arg) is monotone in arg: compare arguments and
        // evaluate acosh only for candidates within the margin.
        const double arg = AcoshArg(sq[l], x_factor, factor);
        if (!(arg <= bound)) continue;  // NaN never passes
        const double dd = std::acosh(arg);
        if (dd < best) {
          best = dd;
          bound = arg * kAcoshMargin;
          best_k = static_cast<uint32_t>(k0 + l);
        }
      } else {
        const double delta = sq[l] * x_factor * factor;
        if (delta < best) {
          best = delta;
          best_k = static_cast<uint32_t>(k0 + l);
        }
      }
    }
  }
  return best_k;
}

std::vector<size_t> KMeansPlusPlusSeeds(const Matrix& points,
                                        const std::vector<uint32_t>& subset,
                                        int K, Rng* rng) {
  TAXOREC_CHECK(K >= 1);
  TAXOREC_CHECK(subset.size() >= static_cast<size_t>(K));
  const size_t n = subset.size();
  const size_t d = points.cols();
  std::vector<size_t> seeds;
  seeds.reserve(K);
  std::vector<char> chosen(n, 0);
  std::vector<double> alpha(n);
  ParallelFor(0, n, /*grain=*/1024, [&](size_t i0, size_t i1) {
    for (size_t i = i0; i < i1; ++i) {
      alpha[i] = poincare::SafeAlpha(points.row(subset[i]));
    }
  });
  // min_dist[i] is the Poincaré distance to the nearest seed so far,
  // bound[i] the lazy-acosh margin above its argument, and weights[i] the
  // D² draw weight (zero once chosen), kept current across seeds. Chosen
  // indices get weight zero — a residual epsilon here let the draw re-pick
  // an already-selected point, duplicating centroids when the D² mass of
  // the remaining points was comparably tiny.
  std::vector<double> min_dist(n, kInf);
  std::vector<double> bound(n, kInf);
  std::vector<double> weights(n, kInf);
  const size_t first = rng->Uniform(n);
  chosen[first] = 1;
  weights[first] = 0.0;
  seeds.push_back(first);
  for (int k = 1; k < K; ++k) {
    const double* seed = points.row(subset[seeds[k - 1]]).data();
    const double seed_alpha = alpha[seeds[k - 1]];
    // Folds poincare::Distance(point i, seed), given its squared distance.
    auto relax = [&](size_t i, double sq) {
      const double arg = AcoshArg(sq, alpha[i], seed_alpha);
      if (!(arg <= bound[i])) return;
      const double dd = std::acosh(arg);
      if (dd < min_dist[i]) {
        min_dist[i] = dd;
        bound[i] = arg * kAcoshMargin;
        weights[i] = chosen[i] ? 0.0 : dd * dd;
      }
    };
    // Per-point updates are independent (one writer per index). Four points
    // run interleaved so their sums overlap; each sums in vec::SqDist's
    // order.
    ParallelFor(0, n, /*grain=*/128, [&](size_t i0, size_t i1) {
      size_t i = i0;
      for (; i + 4 <= i1; i += 4) {
        const double* r0 = points.row(subset[i]).data();
        const double* r1 = points.row(subset[i + 1]).data();
        const double* r2 = points.row(subset[i + 2]).data();
        const double* r3 = points.row(subset[i + 3]).data();
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        for (size_t j = 0; j < d; ++j) {
          const double t0 = r0[j] - seed[j];
          const double t1 = r1[j] - seed[j];
          const double t2 = r2[j] - seed[j];
          const double t3 = r3[j] - seed[j];
          s0 += t0 * t0;
          s1 += t1 * t1;
          s2 += t2 * t2;
          s3 += t3 * t3;
        }
        relax(i, s0);
        relax(i + 1, s1);
        relax(i + 2, s2);
        relax(i + 3, s3);
      }
      for (; i < i1; ++i) {
        relax(i, vec::SqDist(points.row(subset[i]),
                             vec::ConstSpan(seed, d)));
      }
    });
    double total = 0.0;
    for (double w : weights) total += w;
    size_t pick = total > 0.0 ? rng->Categorical(weights) : n;
    if (pick >= n || chosen[pick]) {
      // Every unchosen point duplicates a chosen one (or the draw landed
      // on a zero-weight bin through floating-point remainder): take the
      // first unchosen index, which exists because k < K <= n.
      pick = 0;
      while (chosen[pick]) ++pick;
    }
    TAXOREC_DCHECK(!chosen[pick]);
    chosen[pick] = 1;
    weights[pick] = 0.0;
    seeds.push_back(pick);
  }
  return seeds;
}

void ReseedEmptyClusters(const Matrix& points,
                         const std::vector<uint32_t>& subset, int K,
                         std::vector<int>* assignment, Matrix* centroids) {
  const size_t n = subset.size();
  TAXOREC_CHECK(assignment->size() == n);
  TAXOREC_CHECK(n >= static_cast<size_t>(K));
  std::vector<size_t> counts(K, 0);
  for (int a : *assignment) ++counts[a];
  for (int k = 0; k < K; ++k) {
    if (counts[k] > 0) continue;
    // Farthest point from its own centroid, excluding sole-member donors:
    // stealing a cluster's last member would leave it empty with a stale
    // centroid behind the scan (for j < k, never re-checked). The counts
    // are kept live so clusters reseeded earlier in this pass are also
    // protected; a multi-member donor exists whenever a cluster is empty.
    double worst = -1.0;
    size_t worst_i = n;
    for (size_t i = 0; i < n; ++i) {
      if (counts[(*assignment)[i]] <= 1) continue;
      const double dd = poincare::Distance(
          points.row(subset[i]), centroids->row((*assignment)[i]));
      if (dd > worst) {
        worst = dd;
        worst_i = i;
      }
    }
    TAXOREC_DCHECK(worst_i < n);
    if (worst_i >= n) continue;
    --counts[(*assignment)[worst_i]];
    ++counts[k];
    vec::Copy(points.row(subset[worst_i]), centroids->row(k));
    (*assignment)[worst_i] = k;
  }
}

KMeansResult PoincareKMeans(const Matrix& points,
                            const std::vector<uint32_t>& subset, int K,
                            Rng* rng, const KMeansOptions& opts) {
  TAXOREC_CHECK(K >= 1);
  TAXOREC_CHECK(subset.size() >= static_cast<size_t>(K));
  TraceSpan span("poincare_kmeans");
  const size_t n = subset.size();
  const size_t d = points.cols();

  KMeansResult result;
  result.centroids = Matrix(K, d);
  result.assignment.assign(n, 0);

  // K-means++ seeding under the Poincaré metric.
  {
    TraceSpan seed_span("kmeans_seed");
    const std::vector<size_t> seeds = KMeansPlusPlusSeeds(points, subset, K, rng);
    for (int k = 0; k < K; ++k) {
      vec::Copy(points.row(subset[seeds[k]]), result.centroids.row(k));
    }
  }

  std::vector<int> prev(n, -1);
  std::vector<size_t> member_begin(K + 1);
  std::vector<uint32_t> members(n);
  for (int iter = 0; iter < opts.max_iters; ++iter) {
    result.iterations = iter + 1;
    {
      // Assignment step: each point's nearest centroid is independent, so
      // the parallel result is bit-identical to the sequential scan.
      TraceSpan assign_span("kmeans_assign");
      const CentroidBlocks blocks(result.centroids,
                                  NearestRule::kPoincareDistance);
      ParallelFor(0, n, /*grain=*/64, [&](size_t i0, size_t i1) {
        for (size_t i = i0; i < i1; ++i) {
          result.assignment[i] =
              static_cast<int>(blocks.Nearest(points.row(subset[i])));
        }
      });
    }
    if (result.assignment == prev) break;
    prev = result.assignment;

    TraceSpan update_span("kmeans_update");
    // Bucket the members of every cluster in ascending subset order
    // (counting sort), the order a per-cluster scan of the assignment
    // visits them in.
    std::fill(member_begin.begin(), member_begin.end(), 0);
    for (int a : result.assignment) ++member_begin[a + 1];
    for (int k = 0; k < K; ++k) member_begin[k + 1] += member_begin[k];
    {
      std::vector<size_t> cursor(member_begin.begin(), member_begin.end() - 1);
      for (size_t i = 0; i < n; ++i) {
        members[cursor[result.assignment[i]]++] = subset[i];
      }
    }
    // Update step: re-centering fans out over clusters; each cluster's
    // Klein-midpoint (or tangent-mean) scan is sequential in member order,
    // so the centroids match the sequential update bit for bit.
    ParallelFor(0, static_cast<size_t>(K), /*grain=*/1,
                [&](size_t k0, size_t k1) {
                  for (size_t k = k0; k < k1; ++k) {
                    const std::span<const uint32_t> cluster(
                        members.data() + member_begin[k],
                        member_begin[k + 1] - member_begin[k]);
                    if (opts.centroid == CentroidMethod::kKleinMidpoint) {
                      KleinCentroid(points, cluster, result.centroids.row(k));
                    } else {
                      TangentCentroid(points, cluster,
                                      result.centroids.row(k));
                    }
                  }
                });

    // Reseed empty clusters with the farthest point from a multi-member
    // donor (see ReseedEmptyClusters for the sole-member cascade this
    // ordering prevents).
    ReseedEmptyClusters(points, subset, K, &result.assignment,
                        &result.centroids);
  }
  static Counter* calls =
      MetricsRegistry::Instance().GetCounter("taxorec.kmeans.calls");
  static Counter* iterations =
      MetricsRegistry::Instance().GetCounter("taxorec.kmeans.iterations");
  calls->Increment();
  iterations->Increment(result.iterations);
  return result;
}

}  // namespace taxorec
