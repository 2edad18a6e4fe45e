// Tests for taxonomy construction: scoring (Eq. 4–7), Poincaré K-means,
// Algorithm 1 / the recursive builder, the regularizer (Eq. 8), and the
// ground-truth quality metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>
#include <string>

#include "common/parallel.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "hyperbolic/klein.h"
#include "hyperbolic/maps.h"
#include "hyperbolic/poincare.h"
#include "math/vec_ops.h"
#include "taxonomy/builder.h"
#include "taxonomy/metrics.h"
#include "taxonomy/poincare_kmeans.h"
#include "taxonomy/regularizer.h"
#include "taxonomy/scoring.h"
#include "taxonomy/tree.h"

namespace taxorec {
namespace {

// Two well-separated clusters in the ball.
Matrix TwoClusterPoints(Rng* rng, size_t per_cluster, size_t d) {
  Matrix pts(2 * per_cluster, d);
  for (size_t i = 0; i < per_cluster; ++i) {
    pts.at(i, 0) = 0.6 + 0.05 * rng->NextGaussian();
    pts.at(i, 1) = 0.02 * rng->NextGaussian();
    pts.at(per_cluster + i, 0) = -0.6 + 0.05 * rng->NextGaussian();
    pts.at(per_cluster + i, 1) = 0.02 * rng->NextGaussian();
    poincare::ProjectToBall(pts.row(i));
    poincare::ProjectToBall(pts.row(per_cluster + i));
  }
  return pts;
}

TEST(PoincareKmeansTest, SeparatesObviousClusters) {
  Rng rng(41);
  const size_t per = 8;
  Matrix pts = TwoClusterPoints(&rng, per, 3);
  std::vector<uint32_t> subset(2 * per);
  for (size_t i = 0; i < subset.size(); ++i) {
    subset[i] = static_cast<uint32_t>(i);
  }
  const KMeansResult r = PoincareKMeans(pts, subset, 2, &rng);
  // All first-half points share a label; all second-half share the other.
  for (size_t i = 1; i < per; ++i) EXPECT_EQ(r.assignment[i], r.assignment[0]);
  for (size_t i = per + 1; i < 2 * per; ++i) {
    EXPECT_EQ(r.assignment[i], r.assignment[per]);
  }
  EXPECT_NE(r.assignment[0], r.assignment[per]);
}

TEST(PoincareKmeansTest, CentroidsInsideBall) {
  Rng rng(42);
  Matrix pts = TwoClusterPoints(&rng, 10, 3);
  std::vector<uint32_t> subset(20);
  for (size_t i = 0; i < 20; ++i) subset[i] = static_cast<uint32_t>(i);
  for (auto method :
       {CentroidMethod::kKleinMidpoint, CentroidMethod::kTangentMean}) {
    KMeansOptions opts;
    opts.centroid = method;
    const KMeansResult r = PoincareKMeans(pts, subset, 3, &rng, opts);
    for (size_t k = 0; k < 3; ++k) {
      EXPECT_LT(vec::Norm(r.centroids.row(k)), 1.0);
    }
  }
}

TEST(PoincareKmeansTest, HandlesKEqualsSubsetSize) {
  Rng rng(43);
  Matrix pts = TwoClusterPoints(&rng, 2, 3);
  std::vector<uint32_t> subset = {0, 1, 2, 3};
  const KMeansResult r = PoincareKMeans(pts, subset, 4, &rng);
  // Every cluster non-empty (reseeding rule).
  std::set<int> labels(r.assignment.begin(), r.assignment.end());
  EXPECT_EQ(labels.size(), 4u);
}

TEST(PoincareKmeansTest, SeedingNeverRepicksAChosenIndex) {
  // Three exact duplicates plus one distant point, K = 3: after the far
  // point and one duplicate are chosen, every remaining point has D² mass
  // zero. The old seeding gave chosen indices a residual 1e-12 weight, so
  // the third draw was uniform over ALL indices — re-picking a chosen one
  // (duplicate centroid) with probability 1/2 per trial. The fixed seeding
  // must return K distinct indices for every seed.
  Matrix pts(4, 2);
  pts.at(3, 0) = 0.8;
  std::vector<uint32_t> subset = {0, 1, 2, 3};
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    Rng rng(seed);
    const std::vector<size_t> seeds = KMeansPlusPlusSeeds(pts, subset, 3, &rng);
    ASSERT_EQ(seeds.size(), 3u);
    const std::set<size_t> distinct(seeds.begin(), seeds.end());
    EXPECT_EQ(distinct.size(), 3u) << "seed " << seed;
  }
}

TEST(PoincareKmeansTest, ReseedSkipsSoleMemberDonors) {
  // Adversarial hand-built state: clusters 2 and 3 empty, cluster 0 holds
  // the far pair {p0, p1} around a stale midpoint centroid, cluster 1
  // holds the tight pair {p2, p3}. The pre-fix reseed scanned for the
  // globally farthest point with no donor-size check: k=2 stole p0, k=3
  // then stole p1 — by then the sole member of cluster 0, whose distance
  // to the stale midpoint was still the global max — leaving cluster 0
  // empty with no re-check (the j < k cascade). The fix skips sole-member
  // donors, so k=3 must take from cluster 1 instead.
  Matrix pts(4, 2);
  pts.at(0, 0) = 0.8;
  pts.at(1, 0) = -0.8;
  pts.at(2, 0) = 0.05;
  pts.at(3, 0) = -0.05;
  std::vector<uint32_t> subset = {0, 1, 2, 3};
  std::vector<int> assignment = {0, 0, 1, 1};
  Matrix centroids(4, 2);  // c0 = mid(p0,p1) = origin, c1 = mid(p2,p3) = origin
  ReseedEmptyClusters(pts, subset, 4, &assignment, &centroids);
  std::vector<int> counts(4, 0);
  for (int a : assignment) ++counts[a];
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(counts[k], 1) << "cluster " << k;
  }
}

TEST(PoincareKmeansTest, ReseedCascadeLeavesNoEmptyCluster) {
  // End-to-end regression forcing the cascade through the public API:
  // four exact duplicates at the origin plus one distant point with K = 4.
  // Seeding can produce at most two distinct centroid VALUES (the
  // duplicates tie), so the assignment step leaves two clusters empty and
  // the reseed pass must fill both. Every point sits at distance zero from
  // its centroid, so the pre-fix globally-farthest scan picked index 0 for
  // BOTH empty clusters — the second steal took the sole member of the
  // cluster reseeded moments before, which stayed empty in the returned
  // result. max_iters = 1 exposes the post-reseed state directly.
  Matrix pts(5, 2);
  pts.at(4, 0) = 0.8;
  std::vector<uint32_t> subset = {0, 1, 2, 3, 4};
  KMeansOptions opts;
  opts.max_iters = 1;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed);
    const KMeansResult r = PoincareKMeans(pts, subset, 4, &rng, opts);
    std::vector<int> counts(4, 0);
    for (int a : r.assignment) ++counts[a];
    for (int k = 0; k < 4; ++k) {
      EXPECT_GT(counts[k], 0) << "seed " << seed << " cluster " << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Equivalence of the blocked k-means kernel with the scalar algorithm.
//
// The reference below is the straightforward k-means the library ran before
// the blocked kernel: every distance a full poincare::Distance call, seeding
// with a fresh D² weight vector per seed, and each centroid recomputed by a
// scan of the whole assignment. The library must equal it bit for bit.

class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(GetNumThreads()) {}
  ~ThreadCountGuard() { SetNumThreads(saved_); }

 private:
  int saved_;
};

std::vector<size_t> NaiveSeeds(const Matrix& points,
                               const std::vector<uint32_t>& subset, int K,
                               Rng* rng) {
  const size_t n = subset.size();
  std::vector<size_t> seeds;
  std::vector<char> chosen(n, 0);
  std::vector<double> min_dist(n, std::numeric_limits<double>::infinity());
  const size_t first = rng->Uniform(n);
  chosen[first] = 1;
  seeds.push_back(first);
  for (int k = 1; k < K; ++k) {
    std::vector<double> weights(n);
    for (size_t i = 0; i < n; ++i) {
      const double dd = poincare::Distance(points.row(subset[i]),
                                           points.row(subset[seeds[k - 1]]));
      if (dd < min_dist[i]) min_dist[i] = dd;
      weights[i] = chosen[i] ? 0.0 : min_dist[i] * min_dist[i];
    }
    double total = 0.0;
    for (double w : weights) total += w;
    size_t pick = total > 0.0 ? rng->Categorical(weights) : n;
    if (pick >= n || chosen[pick]) {
      pick = 0;
      while (chosen[pick]) ++pick;
    }
    chosen[pick] = 1;
    seeds.push_back(pick);
  }
  return seeds;
}

void NaiveCentroid(const Matrix& points, const std::vector<uint32_t>& subset,
                   const std::vector<int>& assignment, int k,
                   CentroidMethod method, vec::Span centroid) {
  const size_t d = points.cols();
  std::vector<double> acc(d, 0.0);
  std::vector<double> klein(d);
  double denom = 0.0;
  for (size_t i = 0; i < subset.size(); ++i) {
    if (assignment[i] != k) continue;
    const auto p = points.row(subset[i]);
    if (method == CentroidMethod::kKleinMidpoint) {
      hyper::PoincareToKlein(p, vec::Span(klein));
      const double g = klein::LorentzFactor(vec::ConstSpan(klein));
      vec::Axpy(g, vec::ConstSpan(klein), vec::Span(acc));
      denom += g;
    } else {
      const double n = vec::Norm(p);
      if (n > 1e-15) {
        const double clipped = n > 1.0 - 1e-10 ? 1.0 - 1e-10 : n;
        vec::Axpy(2.0 * std::atanh(clipped) / n, p, vec::Span(acc));
      }
      denom += 1.0;
    }
  }
  if (denom <= 0.0) {
    vec::Zero(centroid);
    return;
  }
  vec::Scale(vec::Span(acc), 1.0 / denom);
  if (method == CentroidMethod::kKleinMidpoint) {
    hyper::KleinToPoincare(vec::ConstSpan(acc), centroid);
  } else {
    const double vn = vec::Norm(vec::ConstSpan(acc));
    if (vn < 1e-15) {
      vec::Zero(centroid);
      return;
    }
    vec::ScaleTo(vec::ConstSpan(acc), std::tanh(vn / 2.0) / vn, centroid);
  }
  poincare::ProjectToBall(centroid);
}

KMeansResult NaiveKMeans(const Matrix& points,
                         const std::vector<uint32_t>& subset, int K, Rng* rng,
                         const KMeansOptions& opts) {
  const size_t n = subset.size();
  KMeansResult result;
  result.centroids = Matrix(K, points.cols());
  result.assignment.assign(n, 0);
  const std::vector<size_t> seeds = NaiveSeeds(points, subset, K, rng);
  for (int k = 0; k < K; ++k) {
    vec::Copy(points.row(subset[seeds[k]]), result.centroids.row(k));
  }
  std::vector<int> prev(n, -1);
  for (int iter = 0; iter < opts.max_iters; ++iter) {
    result.iterations = iter + 1;
    for (size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::infinity();
      int best_k = 0;
      for (int k = 0; k < K; ++k) {
        const double dd = poincare::Distance(points.row(subset[i]),
                                             result.centroids.row(k));
        if (dd < best) {
          best = dd;
          best_k = k;
        }
      }
      result.assignment[i] = best_k;
    }
    if (result.assignment == prev) break;
    prev = result.assignment;
    for (int k = 0; k < K; ++k) {
      NaiveCentroid(points, subset, result.assignment, k, opts.centroid,
                    result.centroids.row(k));
    }
    ReseedEmptyClusters(points, subset, K, &result.assignment,
                        &result.centroids);
  }
  return result;
}

// Uniform points in the ball of radius 0.9.
Matrix RandomBallPoints(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Matrix pts(n, d);
  for (size_t i = 0; i < n; ++i) poincare::RandomPoint(&rng, 0.9, pts.row(i));
  return pts;
}

// Points at norm 1 - 1e-5, the ProjectToBall radius, where the conformal
// factors are ~2e-5 and the acosh arguments are largest.
Matrix BoundaryPoints(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Matrix pts(n, d);
  for (size_t i = 0; i < n; ++i) {
    auto row = pts.row(i);
    for (double& v : row) v = rng.NextGaussian();
    vec::Scale(row, (1.0 - 1e-5) / vec::Norm(vec::ConstSpan(row)));
  }
  return pts;
}

// Six distinct points, each repeated: every distance to a centroid ties
// exactly with the repeats', and K > 6 forces coinciding centroids.
Matrix DuplicatePoints(size_t n, size_t d, uint64_t seed) {
  const Matrix base = RandomBallPoints(6, d, seed);
  Matrix pts(n, d);
  for (size_t i = 0; i < n; ++i) vec::Copy(base.row(i % 6), pts.row(i));
  return pts;
}

struct PointSet {
  std::string name;
  Matrix points;
};

std::vector<PointSet> EquivalencePointSets(size_t n, size_t d, uint64_t seed) {
  std::vector<PointSet> sets;
  sets.push_back({"random", RandomBallPoints(n, d, seed)});
  sets.push_back({"boundary", BoundaryPoints(n, d, seed + 1)});
  sets.push_back({"duplicates", DuplicatePoints(n, d, seed + 2)});
  return sets;
}

void ExpectSameKMeans(const KMeansResult& want, const KMeansResult& got,
                      const std::string& what) {
  EXPECT_EQ(want.assignment, got.assignment) << what;
  EXPECT_EQ(want.iterations, got.iterations) << what;
  const auto w = want.centroids.flat();
  const auto g = got.centroids.flat();
  ASSERT_EQ(w.size(), g.size()) << what;
  EXPECT_EQ(std::memcmp(w.data(), g.data(), w.size() * sizeof(double)), 0)
      << what;
}

TEST(PoincareKmeansEquivalenceTest, MatchesScalarReferenceBitForBit) {
  ThreadCountGuard guard;
  // K below, at and above one kLanes = 8 block, plus K = n; two point
  // counts so the four-point seeding interleave runs with and without a
  // remainder, and an odd dimension.
  for (const size_t n : {size_t{40}, size_t{203}}) {
    for (PointSet& set : EquivalencePointSets(n, 7, 100 + n)) {
      std::vector<uint32_t> subset(n);
      std::iota(subset.begin(), subset.end(), 0u);
      for (const int K : {1, 3, 8, 9, static_cast<int>(n)}) {
        for (const auto method :
             {CentroidMethod::kKleinMidpoint, CentroidMethod::kTangentMean}) {
          KMeansOptions opts;
          opts.centroid = method;
          Rng ref_rng(K * 31 + n);
          const KMeansResult want =
              NaiveKMeans(set.points, subset, K, &ref_rng, opts);
          for (const int threads : {1, 4}) {
            SetNumThreads(threads);
            Rng rng(K * 31 + n);
            const std::string what =
                set.name + " n=" + std::to_string(n) + " K=" +
                std::to_string(K) + " method=" +
                std::to_string(static_cast<int>(method)) +
                " threads=" + std::to_string(threads);
            ExpectSameKMeans(want, PoincareKMeans(set.points, subset, K, &rng,
                                                  opts),
                             what);
          }
        }
      }
    }
  }
}

TEST(PoincareKmeansEquivalenceTest, SeedsMatchScalarReference) {
  ThreadCountGuard guard;
  for (PointSet& set : EquivalencePointSets(157, 5, 7)) {
    // A strided subset, so subset positions and point rows differ.
    std::vector<uint32_t> subset;
    for (uint32_t i = 0; i < 157; i += 2) subset.push_back(i);
    for (const int K : {1, 3, 8, 9, static_cast<int>(subset.size())}) {
      Rng ref_rng(K);
      const std::vector<size_t> want =
          NaiveSeeds(set.points, subset, K, &ref_rng);
      for (const int threads : {1, 4}) {
        SetNumThreads(threads);
        Rng rng(K);
        EXPECT_EQ(want, KMeansPlusPlusSeeds(set.points, subset, K, &rng))
            << set.name << " K=" << K << " threads=" << threads;
      }
    }
  }
}

// Index of the smallest key, first on ties, NaN never selected: the scalar
// scan CentroidBlocks::Nearest must reproduce.
template <typename KeyFn>
uint32_t NaiveNearest(size_t count, KeyFn key) {
  double best = std::numeric_limits<double>::infinity();
  uint32_t best_k = 0;
  for (size_t k = 0; k < count; ++k) {
    const double v = key(k);
    if (v < best) {
      best = v;
      best_k = static_cast<uint32_t>(k);
    }
  }
  return best_k;
}

double NaiveInvAlpha(vec::ConstSpan x) {
  const double a = 1.0 - vec::SqNorm(x);
  return 1.0 / (a > 1e-12 ? a : 1e-12);
}

TEST(CentroidBlocksTest, NearestMatchesScalarScans) {
  // Centroid counts below, at and above one and two blocks; the centroids
  // come from the same sets as the points, so duplicates make exact ties
  // and boundary points stress the conformal factors. Every point is also
  // queried shrunk 100-fold toward the origin, where the zero padding of a
  // partial block would win if its lanes were ever compared.
  for (PointSet& set : EquivalencePointSets(120, 13, 21)) {
    for (size_t i = 0; i < 120; i += 2) vec::Scale(set.points.row(i), 0.01);
    for (const size_t count : {size_t{1}, size_t{7}, size_t{8}, size_t{9},
                               size_t{16}, size_t{17}}) {
      Matrix centroids(count, 13);
      for (size_t k = 0; k < count; ++k) {
        vec::Copy(set.points.row((k * 7 + 1) % 120), centroids.row(k));
      }
      const CentroidBlocks poincare_blocks(centroids,
                                           NearestRule::kPoincareDistance);
      const CentroidBlocks delta_blocks(centroids,
                                        NearestRule::kConformalDelta);
      ASSERT_EQ(poincare_blocks.size(), count);
      for (size_t i = 0; i < 120; ++i) {
        const auto x = set.points.row(i);
        EXPECT_EQ(poincare_blocks.Nearest(x),
                  NaiveNearest(count,
                               [&](size_t k) {
                                 return poincare::Distance(x,
                                                           centroids.row(k));
                               }))
            << set.name << " count=" << count << " point " << i;
        // The IVF bulk pass (IvfIndex::Build's AssignAll): |x-c|^2 scaled
        // by both inverse conformal factors, in that order.
        const double inv_x = NaiveInvAlpha(x);
        EXPECT_EQ(delta_blocks.Nearest(x),
                  NaiveNearest(count,
                               [&](size_t k) {
                                 return vec::SqDist(x, centroids.row(k)) *
                                        inv_x *
                                        NaiveInvAlpha(centroids.row(k));
                               }))
            << set.name << " count=" << count << " point " << i;
      }
    }
  }
}

TEST(CentroidBlocksTest, NaNKeysAreNeverSelected) {
  // A NaN coordinate makes that centroid's key NaN under both rules; the
  // scalar `key < best` scan skips it, and so must the blocked scan.
  Matrix centroids(10, 3);
  centroids.at(0, 0) = std::numeric_limits<double>::quiet_NaN();
  centroids.at(1, 0) = 0.5;
  centroids.at(9, 1) = 0.1;
  const std::vector<double> x = {0.0, 0.1, 0.0};
  for (const auto rule :
       {NearestRule::kPoincareDistance, NearestRule::kConformalDelta}) {
    EXPECT_EQ(CentroidBlocks(centroids, rule).Nearest(vec::ConstSpan(x)), 9u);
  }
}

// Item-tag fixture: tag 0 is "general" (on every item); tags 1..3 are each
// the core tag of a 4-item group (12 items, K=3 structure — the paper's
// optimal K).
struct ScoringFixture {
  CsrMatrix item_tags;
  CsrMatrix tag_items;
  ScoringFixture() {
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    for (uint32_t v = 0; v < 12; ++v) {
      edges.emplace_back(v, 0);           // general everywhere
      edges.emplace_back(v, 1 + v / 4);   // group core tag 1, 2 or 3
    }
    item_tags = CsrMatrix::FromPairs(12, 4, edges);
    tag_items = item_tags.Transposed();
  }
};

TEST(ScoringTest, ScoresAreInUnitRange) {
  ScoringFixture fx;
  TagScoringContext ctx{&fx.item_tags, &fx.tag_items};
  const std::vector<std::vector<uint32_t>> partition = {{0, 1}, {2}, {3}};
  const auto scores = ScorePartition(ctx, partition);
  ASSERT_EQ(scores.size(), 3u);
  for (size_t k = 0; k < 3; ++k) {
    ASSERT_EQ(scores[k].size(), partition[k].size());
    for (double s : scores[k]) {
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
    }
  }
}

TEST(ScoringTest, GeneralTagScoresLowerThanSpecific) {
  // Tag 0 appears in every sibling's item set, so its stru factor is split
  // ~1/K ways; each group's core tag concentrates in one cluster and must
  // clearly outscore it — this is the separation δ≈0.5 relies on.
  ScoringFixture fx;
  TagScoringContext ctx{&fx.item_tags, &fx.tag_items};
  const std::vector<std::vector<uint32_t>> partition = {{0, 1}, {2}, {3}};
  const auto scores = ScorePartition(ctx, partition);
  const double s_general = scores[0][0];   // tag 0
  const double s_specific = scores[0][1];  // tag 1
  EXPECT_GT(s_specific, s_general);
  // The paper's default threshold should separate them.
  EXPECT_LT(s_general, 0.5);
  EXPECT_GT(s_specific, 0.5);
}

TEST(ScoringTest, EmptyClusterTagsScoreZeroish) {
  ScoringFixture fx;
  TagScoringContext ctx{&fx.item_tags, &fx.tag_items};
  // A cluster whose tags attract no items (tag ids exist but unassigned
  // cluster stays empty after partitioning).
  const std::vector<std::vector<uint32_t>> partition = {{0, 1, 2, 3}, {}};
  const auto scores = ScorePartition(ctx, partition);
  ASSERT_EQ(scores[1].size(), 0u);
  for (double s : scores[0]) EXPECT_GE(s, 0.0);
}

// Builder fixture: 12 items in two 6-item groups; tag 0 is general, tags
// 1-2 live on group A, tags 3-4 on group B.
struct BuilderFixture {
  CsrMatrix item_tags;
  CsrMatrix tag_items;
  BuilderFixture() {
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    for (uint32_t v = 0; v < 12; ++v) {
      edges.emplace_back(v, 0);
      const uint32_t base = v < 6 ? 1u : 3u;
      edges.emplace_back(v, base);
      if (v % 2 == 1) edges.emplace_back(v, base + 1);
    }
    item_tags = CsrMatrix::FromPairs(12, 5, edges);
    tag_items = item_tags.Transposed();
  }
};

TEST(BuilderTest, BuildsNonTrivialTree) {
  BuilderFixture fx;
  Rng rng(44);
  Matrix tags(5, 3);
  // Embed group tags in two lobes, the general near the origin.
  for (size_t t = 0; t < 5; ++t) {
    poincare::RandomPoint(&rng, 0.1, tags.row(t));
  }
  tags.at(1, 0) += 0.6;
  tags.at(2, 0) += 0.6;
  tags.at(3, 0) -= 0.6;
  tags.at(4, 0) -= 0.6;
  for (size_t t = 0; t < 5; ++t) poincare::ProjectToBall(tags.row(t));

  TaxonomyBuildConfig cfg;
  cfg.K = 2;
  cfg.delta = 0.2;
  cfg.min_node_size = 2;
  const Taxonomy taxo = BuildTaxonomy(tags, fx.item_tags, fx.tag_items, cfg);
  EXPECT_GE(taxo.num_nodes(), 3u);  // root + at least two children
  EXPECT_GE(taxo.MaxDepth(), 1);
  // Root members = all tags.
  EXPECT_EQ(taxo.node(taxo.root()).member_tags.size(), 5u);
  // Children partition a subset of the root's tags disjointly.
  std::set<uint32_t> seen;
  for (int32_t c : taxo.node(taxo.root()).children) {
    for (uint32_t t : taxo.node(c).member_tags) {
      EXPECT_TRUE(seen.insert(t).second) << "tag in two children";
    }
  }
}

TEST(BuilderTest, RetainedPlusChildrenEqualsMembers) {
  BuilderFixture fx;
  Rng rng(45);
  Matrix tags(5, 3);
  for (size_t t = 0; t < 5; ++t) poincare::RandomPoint(&rng, 0.7, tags.row(t));
  TaxonomyBuildConfig cfg;
  cfg.K = 2;
  cfg.delta = 0.3;
  cfg.min_node_size = 2;
  const Taxonomy taxo = BuildTaxonomy(tags, fx.item_tags, fx.tag_items, cfg);
  for (size_t id = 0; id < taxo.num_nodes(); ++id) {
    const auto& node = taxo.node(static_cast<int32_t>(id));
    const auto retained = taxo.RetainedTags(static_cast<int32_t>(id));
    std::set<uint32_t> acc(retained.begin(), retained.end());
    for (int32_t c : node.children) {
      for (uint32_t t : taxo.node(c).member_tags) acc.insert(t);
    }
    EXPECT_EQ(acc.size(), node.member_tags.size());
  }
}

TEST(TreeTest, PathOfTagWalksMemberSets) {
  Taxonomy taxo({0, 1, 2, 3});
  const int32_t a = taxo.AddNode(0, {0, 1}, {1.0, 1.0});
  taxo.AddNode(0, {2, 3}, {1.0, 1.0});
  const int32_t c = taxo.AddNode(a, {1}, {1.0});
  const auto path = taxo.PathOfTag(1);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], 0);
  EXPECT_EQ(path[1], a);
  EXPECT_EQ(path[2], c);
  // Retained at node a is {0} (tag 1 went deeper).
  const auto retained = taxo.RetainedTags(a);
  ASSERT_EQ(retained.size(), 1u);
  EXPECT_EQ(retained[0], 0u);
}

TEST(TreeTest, ToStringShowsRetainedTagNames) {
  Taxonomy taxo({0, 1, 2});
  taxo.AddNode(0, {1, 2}, {0.9, 0.8});
  const std::vector<std::string> names = {"food", "sushi", "ramen"};
  const std::string s = taxo.ToString(names);
  EXPECT_NE(s.find("food"), std::string::npos);   // retained at root
  EXPECT_NE(s.find("sushi"), std::string::npos);  // leaf member
  EXPECT_NE(s.find("root"), std::string::npos);
}

TEST(TreeTest, PathOfUnknownTagIsEmpty) {
  Taxonomy taxo({0, 1});
  EXPECT_TRUE(taxo.PathOfTag(99).empty());
}

// Builder property sweep over K: children never overlap, members conserved.
class BuilderKTest : public ::testing::TestWithParam<int> {};

TEST_P(BuilderKTest, ChildrenDisjointAndWithinParent) {
  const int K = GetParam();
  SyntheticConfig scfg;
  scfg.num_users = 40;
  scfg.num_items = 120;
  scfg.num_tags = 30;
  scfg.seed = 21;
  const Dataset data = GenerateSynthetic(scfg);
  const DataSplit split = TemporalSplit(data);
  const CsrMatrix tag_items = split.item_tags.Transposed();
  Rng rng(50 + K);
  Matrix tags(30, 6);
  for (size_t t = 0; t < 30; ++t) {
    poincare::RandomPoint(&rng, 0.8, tags.row(t));
  }
  TaxonomyBuildConfig cfg;
  cfg.K = K;
  const Taxonomy taxo = BuildTaxonomy(tags, split.item_tags, tag_items, cfg);
  for (size_t id = 0; id < taxo.num_nodes(); ++id) {
    const auto& node = taxo.node(static_cast<int32_t>(id));
    const std::set<uint32_t> parent_set(node.member_tags.begin(),
                                        node.member_tags.end());
    std::set<uint32_t> seen;
    for (int32_t c : node.children) {
      for (uint32_t t : taxo.node(c).member_tags) {
        EXPECT_TRUE(parent_set.count(t)) << "child tag outside parent";
        EXPECT_TRUE(seen.insert(t).second) << "tag in two children";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, BuilderKTest, ::testing::Values(2, 3, 4));

TEST(RegularizerTest, LossZeroWhenTagsAtCenter) {
  Taxonomy taxo({0, 1});
  Matrix tags(2, 3);  // Both at the origin → center is the origin.
  EXPECT_NEAR(TaxonomyRegLoss(taxo, tags), 0.0, 1e-9);
}

TEST(RegularizerTest, GradMatchesFiniteDifference) {
  Rng rng(46);
  Taxonomy taxo({0, 1, 2, 3, 4});
  taxo.AddNode(0, {0, 1, 2}, {0.9, 0.5, 0.7});
  taxo.AddNode(0, {3, 4}, {0.8, 0.6});
  Matrix tags(5, 3);
  for (size_t t = 0; t < 5; ++t) poincare::RandomPoint(&rng, 0.7, tags.row(t));

  Matrix grad(5, 3);
  TaxonomyRegLossAndGrad(taxo, tags, 1.0, &grad);
  // Stop-gradient centers: the analytic gradient treats centers as
  // constant, so compare against finite differences of a loss that also
  // freezes the centers. Rebuild centers per node once.
  const double eps = 1e-6;
  for (size_t t = 0; t < 5; ++t) {
    for (size_t c = 0; c < 3; ++c) {
      auto perturbed_loss = [&](double delta) {
        Matrix tp = tags;
        tp.at(t, c) += delta;
        double loss = 0.0;
        std::vector<double> center(3);
        for (const auto& node : taxo.nodes()) {
          if (node.member_tags.size() < 2) continue;
          // Center from the *unperturbed* embeddings (stop-gradient).
          vec::Zero(vec::Span(center));
          double tot = 0.0;
          for (size_t i = 0; i < node.member_tags.size(); ++i) {
            vec::Axpy(node.tag_scores[i], tags.row(node.member_tags[i]),
                      vec::Span(center));
            tot += node.tag_scores[i];
          }
          vec::Scale(vec::Span(center), 1.0 / tot);
          for (uint32_t mt : node.member_tags) {
            loss += poincare::Distance(tp.row(mt), vec::ConstSpan(center));
          }
        }
        return loss;
      };
      const double fd =
          (perturbed_loss(eps) - perturbed_loss(-eps)) / (2.0 * eps);
      EXPECT_NEAR(grad.at(t, c), fd, 1e-4 * std::max(1.0, std::abs(fd)));
    }
  }
}

TEST(RegularizerTest, FullGradientVariantRuns) {
  Rng rng(47);
  Taxonomy taxo({0, 1, 2});
  taxo.AddNode(0, {0, 1}, {0.9, 0.8});
  Matrix tags(3, 3);
  for (size_t t = 0; t < 3; ++t) poincare::RandomPoint(&rng, 0.6, tags.row(t));
  Matrix grad(3, 3);
  RegularizerOptions opts;
  opts.center_stop_gradient = false;
  const double loss = TaxonomyRegLossAndGrad(taxo, tags, 1.0, &grad, opts);
  EXPECT_GT(loss, 0.0);
  EXPECT_GT(grad.FrobeniusNorm(), 0.0);
}

TEST(RegularizerTest, GradientStepReducesLoss) {
  Rng rng(48);
  Taxonomy taxo({0, 1, 2, 3});
  taxo.AddNode(0, {0, 1}, {1.0, 1.0});
  taxo.AddNode(0, {2, 3}, {1.0, 1.0});
  Matrix tags(4, 3);
  for (size_t t = 0; t < 4; ++t) poincare::RandomPoint(&rng, 0.8, tags.row(t));
  double prev = TaxonomyRegLoss(taxo, tags);
  for (int iter = 0; iter < 30; ++iter) {
    Matrix grad(4, 3);
    TaxonomyRegLossAndGrad(taxo, tags, 1.0, &grad);
    for (size_t t = 0; t < 4; ++t) {
      poincare::RsgdStep(tags.row(t), grad.row(t), 0.05);
    }
  }
  EXPECT_LT(TaxonomyRegLoss(taxo, tags), prev);
}

TEST(MetricsTest, PerfectReconstructionScoresOne) {
  // Ground truth: tags 0,1 under root A (tag 0), tags 2,3 under root B.
  const std::vector<int32_t> parent = {-1, 0, -1, 2};
  Taxonomy taxo({0, 1, 2, 3});
  const int32_t a = taxo.AddNode(0, {0, 1}, {0.9, 0.9});
  const int32_t b = taxo.AddNode(0, {2, 3}, {0.9, 0.9});
  taxo.AddNode(a, {1}, {0.9});  // tag 0 retained at a → ancestor of 1
  taxo.AddNode(b, {3}, {0.9});
  const TaxonomyQuality q = EvaluateTaxonomy(taxo, parent);
  EXPECT_NEAR(q.top_level_purity, 1.0, 1e-12);
  EXPECT_NEAR(q.pair_f1, 1.0, 1e-12);
  EXPECT_NEAR(q.ancestor_precision, 1.0, 1e-12);
  EXPECT_NEAR(q.ancestor_recall, 1.0, 1e-12);
}

TEST(MetricsTest, ShuffledClustersScoreLow) {
  const std::vector<int32_t> parent = {-1, 0, -1, 2};
  Taxonomy taxo({0, 1, 2, 3});
  taxo.AddNode(0, {0, 2}, {0.9, 0.9});  // mixes the two subtrees
  taxo.AddNode(0, {1, 3}, {0.9, 0.9});
  const TaxonomyQuality q = EvaluateTaxonomy(taxo, parent);
  EXPECT_LT(q.pair_f1, 0.5);
}

TEST(TreeTest, TaxonomyFromParentsReconstructsSubtrees) {
  // 0 -> {1, 2}; 2 -> {3}; 4 top-level leaf.
  const std::vector<int32_t> parent = {-1, 0, 0, 2, -1};
  const Taxonomy taxo = TaxonomyFromParents(parent);
  // Root holds all 5 tags.
  EXPECT_EQ(taxo.node(taxo.root()).member_tags.size(), 5u);
  // Tag 0's node contains its whole subtree {0,1,2,3}.
  const auto path0 = taxo.PathOfTag(3);
  ASSERT_GE(path0.size(), 3u);  // root, node(0), node(2)
  const auto& node0 = taxo.node(path0[1]);
  EXPECT_EQ(node0.member_tags.size(), 4u);
  // Tag 0 is retained at its own node (it is the subtree's general tag).
  const auto retained = taxo.RetainedTags(path0[1]);
  EXPECT_TRUE(std::find(retained.begin(), retained.end(), 0u) !=
              retained.end());
  // Perfect reconstruction scores perfectly against itself.
  const TaxonomyQuality q = EvaluateTaxonomy(taxo, parent);
  EXPECT_NEAR(q.ancestor_recall, 1.0, 1e-12);
  EXPECT_NEAR(q.ancestor_precision, 1.0, 1e-12);
}

TEST(MetricsTest, EmptyGroundTruthHandled) {
  Taxonomy taxo({0, 1});
  const TaxonomyQuality q = EvaluateTaxonomy(taxo, {});
  EXPECT_EQ(q.pair_f1, 0.0);
}

TEST(BuilderTest, RecoversPlantedTaxonomyFromOracleEmbeddings) {
  // Embed tags by their planted top-level subtree in well-separated lobes;
  // the builder should produce a high-purity depth-1 split.
  SyntheticConfig scfg;
  scfg.num_users = 50;
  scfg.num_items = 120;
  scfg.num_tags = 24;
  scfg.num_roots = 3;
  scfg.seed = 9;
  const Dataset data = GenerateSynthetic(scfg);
  const DataSplit split = TemporalSplit(data);
  const CsrMatrix tag_items = split.item_tags.Transposed();

  Rng rng(49);
  Matrix tags(24, 4);
  // Top-level root of each tag.
  for (size_t t = 0; t < 24; ++t) {
    int32_t root = static_cast<int32_t>(t);
    while (data.tag_parent[root] >= 0) root = data.tag_parent[root];
    poincare::RandomPoint(&rng, 0.08, tags.row(t));
    tags.at(t, 0) += (root == 0 ? 0.7 : root == 1 ? -0.7 : 0.0);
    tags.at(t, 1) += (root == 2 ? 0.7 : 0.0);
    poincare::ProjectToBall(tags.row(t));
  }
  TaxonomyBuildConfig cfg;
  cfg.K = 3;
  cfg.delta = 0.15;
  const Taxonomy taxo = BuildTaxonomy(tags, split.item_tags, tag_items, cfg);
  const TaxonomyQuality q = EvaluateTaxonomy(taxo, data.tag_parent);
  EXPECT_GT(q.top_level_purity, 0.8);
}

}  // namespace
}  // namespace taxorec
