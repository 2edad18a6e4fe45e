// K-means clustering in the Poincaré ball (the Poincaré-KMEANS step of
// Algorithm 1). Assignment uses the Poincaré distance; centroid updates use
// the Einstein midpoint computed in the Klein model (the standard fast
// approximation of the Fréchet mean), with a tangent-space-mean alternative
// kept for the design-ablation bench.
//
// The nearest-centroid scans (the assignment step here and the IVF
// quantizer's bulk pass) run on one blocked kernel, CentroidBlocks, whose
// results equal the scalar poincare::Distance / vec::SqDist scans bit for
// bit (DESIGN.md §15).
#ifndef TAXOREC_TAXONOMY_POINCARE_KMEANS_H_
#define TAXOREC_TAXONOMY_POINCARE_KMEANS_H_

#include <cstdint>
#include <vector>

#include "math/matrix.h"
#include "math/rng.h"
#include "math/vec_ops.h"

namespace taxorec {

enum class CentroidMethod {
  kKleinMidpoint,  // map to Klein, Lorentz-factor-weighted mean, map back
  kTangentMean,    // log-map at origin, Euclidean mean, exp-map back
};

struct KMeansOptions {
  int max_iters = 50;
  CentroidMethod centroid = CentroidMethod::kKleinMidpoint;
};

struct KMeansResult {
  /// assignment[i] in [0, K) for subset[i].
  std::vector<int> assignment;
  /// K × d centroids (Poincaré points).
  Matrix centroids;
  int iterations = 0;
};

/// What CentroidBlocks::Nearest minimises. Both rules return the first
/// index among equal minima and never select a centroid whose key is NaN,
/// exactly as a scalar `key < best` scan from best = +Inf does.
enum class NearestRule {
  /// poincare::Distance(x, c): the k-means assignment step.
  kPoincareDistance,
  /// |x - c|^2 * (1/a_x) * (1/a_c) with a = max(1 - |.|^2, 1e-12): the IVF
  /// bulk pass's transcendental-free surrogate, monotone in the distance.
  kConformalDelta,
};

/// Centroids packed for the blocked nearest-centroid kernel: blocks of
/// kLanes centroids, each block d × kLanes doubles with the lane index
/// fastest, the last block zero-padded. The kernel sums the kLanes squared
/// distances of a block in vector registers, each lane in vec::SqDist's
/// coordinate order and without fused multiply-adds, so every distance
/// equals the scalar one bit for bit. Immutable after construction; Nearest
/// is safe to call from many threads.
class CentroidBlocks {
 public:
  static constexpr size_t kLanes = 8;

  CentroidBlocks(const Matrix& centroids, NearestRule rule);

  size_t size() const { return count_; }

  /// Index of the centroid nearest to x under the rule.
  uint32_t Nearest(vec::ConstSpan x) const;

 private:
  NearestRule rule_;
  size_t count_;
  size_t dim_;
  std::vector<double> lanes_;   // blocks × dim_ × kLanes
  std::vector<double> factor_;  // per lane: a_c (Poincaré) or 1/a_c (delta)
};

/// K-means++ seed selection under the Poincaré metric: K distinct indices
/// into `subset`, drawn D²-weighted. Already-chosen indices carry zero
/// weight so no index can be selected twice (duplicate centroids collapse
/// the assignment step); when every unchosen point coincides with a chosen
/// one (total weight zero) the draw falls back to the first unchosen index.
/// Exposed so the distinctness invariant is directly testable.
std::vector<size_t> KMeansPlusPlusSeeds(const Matrix& points,
                                        const std::vector<uint32_t>& subset,
                                        int K, Rng* rng);

/// Reseeds every empty cluster in place: cluster k with no members takes
/// the point farthest from its current centroid, drawn only from donor
/// clusters that keep at least one member afterwards. Skipping sole-member
/// donors makes one pass a fixed point — no reseed can empty a cluster
/// j < k behind the scan, and while any cluster is empty a multi-member
/// donor must exist (pigeonhole, subset.size() >= K). Exposed for the
/// regression tests; PoincareKMeans runs it after every update step.
void ReseedEmptyClusters(const Matrix& points,
                         const std::vector<uint32_t>& subset, int K,
                         std::vector<int>* assignment, Matrix* centroids);

/// Clusters points.row(t) for t in subset into K groups. K-means++ seeding
/// under the Poincaré metric; empty clusters are reseeded with the point
/// farthest from its centroid. Requires subset.size() >= K >= 1.
KMeansResult PoincareKMeans(const Matrix& points,
                            const std::vector<uint32_t>& subset, int K,
                            Rng* rng, const KMeansOptions& opts = {});

}  // namespace taxorec

#endif  // TAXOREC_TAXONOMY_POINCARE_KMEANS_H_
