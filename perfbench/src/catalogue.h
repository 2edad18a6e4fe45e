// Synthetic two-channel Lorentz catalogue for the serving workloads, and
// the traffic profile its users come from.
//
// The users and their activity are the `train` workload's: the users of
// its yelp-shaped `GenerateSynthetic` set (TrainDataConfig), each with the
// number of interactions the generator gave it and the number of those the
// temporal split put in training (the items a server must mask).
//
// Item rows form a hyperboloid mixture: spatial concept centers with tight
// clouds around them, lifted to the Lorentz model, in both the
// tag-irrelevant channel (TaxoRec's D - D_t + 1 = 53 columns) and the tag
// channel (D_t + 1 = 13 columns) — the shape trained TaxoRec embeddings
// take, and the structure the IVF quantizer exploits. Users sit near a
// blend of a primary and a second concept center, so their nearest items
// spread over several IVF cells; alpha_u is uniform in [0, 1] with a tenth
// of the users at 0, so both branches of Eq. 17 are served. Each user's
// already-seen items (as many as the profile's training interactions) are
// drawn from its own concept, so exclusions hit items that would otherwise
// rank high.
#ifndef TAXOREC_PERFBENCH_CATALOGUE_H_
#define TAXOREC_PERFBENCH_CATALOGUE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "serve/snapshot.h"

namespace perfbench {

/// Per-user activity of the `train` workload's data set for one seed.
struct TrafficProfile {
  /// All of a user's interactions (the request weight of the user).
  std::vector<double> interactions;
  /// The user's training-split interactions (its exclusion-set size).
  std::vector<uint32_t> seen;

  size_t num_users() const { return seen.size(); }
};

TrafficProfile MakeTrafficProfile(uint64_t seed);

struct CatalogueConfig {
  size_t num_items = 200000;
  /// Items per concept (the mixture has num_items / items_per_concept
  /// concepts).
  size_t items_per_concept = 2000;
  size_t ir_spatial = 52;  // D - D_t
  size_t tg_spatial = 12;  // D_t
  double center_stddev = 0.5;
  double item_cloud = 0.08;
  double user_cloud = 0.12;
  /// Weight of a user's primary concept in its center (uniform in
  /// [min_primary_weight, 1]); the rest goes to a second concept.
  double min_primary_weight = 0.5;
  uint64_t seed = 1;
};

struct Catalogue {
  taxorec::ScoringSnapshot snapshot;
  /// (user, item) pairs each user has already seen.
  std::vector<std::pair<uint32_t, uint32_t>> seen;
};

/// One user row per profile user.
Catalogue MakeCatalogue(const CatalogueConfig& config,
                        const TrafficProfile& profile);

/// The split a server masks with: `train` built from the catalogue's seen
/// pairs (consumed) and the shape fields; nothing else is filled.
taxorec::DataSplit TakeExclusionSplit(Catalogue* cat);

}  // namespace perfbench

#endif  // TAXOREC_PERFBENCH_CATALOGUE_H_
