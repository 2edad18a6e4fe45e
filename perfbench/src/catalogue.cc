#include "catalogue.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "data/split.h"
#include "math/matrix.h"
#include "math/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Writes center + cloud * N(0, 1) into the spatial coordinates of `row`
/// and sets x0 so the row lies on the hyperboloid.
void MixtureRow(std::span<const double> center, double cloud,
                taxorec::Rng* rng, std::span<double> row) {
  double sq = 0.0;
  for (size_t d = 1; d < row.size(); ++d) {
    row[d] = center[d - 1] + cloud * rng->NextGaussian();
    sq += row[d] * row[d];
  }
  row[0] = std::sqrt(1.0 + sq);
}

}  // namespace

TrafficProfile MakeTrafficProfile(uint64_t seed) {
  const taxorec::Dataset data =
      taxorec::GenerateSynthetic(TrainDataConfig(seed));
  const taxorec::DataSplit split = taxorec::TemporalSplit(data);
  TrafficProfile p;
  p.interactions.assign(split.num_users, 0.0);
  p.seen.resize(split.num_users);
  for (const taxorec::Interaction& x : data.interactions) {
    p.interactions[x.user] += 1.0;
  }
  for (size_t u = 0; u < split.num_users; ++u) {
    p.seen[u] = static_cast<uint32_t>(split.train.RowCols(u).size());
  }
  return p;
}

Catalogue MakeCatalogue(const CatalogueConfig& config,
                        const TrafficProfile& profile) {
  using taxorec::Matrix;
  taxorec::Rng rng(config.seed * 0x9E3779B97F4A7C15ULL + 17);
  const size_t concepts =
      std::max<size_t>(1, config.num_items / config.items_per_concept);
  Matrix centers_ir(concepts, config.ir_spatial);
  Matrix centers_tg(concepts, config.tg_spatial);
  centers_ir.FillGaussian(&rng, config.center_stddev);
  centers_tg.FillGaussian(&rng, config.center_stddev);

  Catalogue cat;
  taxorec::ScoringSnapshot& s = cat.snapshot;
  s.kernel = taxorec::ScoreKernel::kTwoChannelLorentz;
  const size_t num_users = profile.num_users();
  s.num_users = num_users;
  s.num_items = config.num_items;
  s.items = Matrix(config.num_items, config.ir_spatial + 1);
  s.items_tg = Matrix(config.num_items, config.tg_spatial + 1);
  s.users = Matrix(num_users, config.ir_spatial + 1);
  s.users_tg = Matrix(num_users, config.tg_spatial + 1);
  s.alpha.resize(num_users);

  std::vector<std::vector<uint32_t>> members(concepts);
  for (size_t v = 0; v < config.num_items; ++v) {
    const size_t c = rng.Uniform(concepts);
    members[c].push_back(static_cast<uint32_t>(v));
    MixtureRow(centers_ir.row(c), config.item_cloud, &rng, s.items.row(v));
    MixtureRow(centers_tg.row(c), config.item_cloud, &rng, s.items_tg.row(v));
  }

  std::vector<double> mix_ir(config.ir_spatial), mix_tg(config.tg_spatial);
  const auto blend = [](std::span<const double> a, std::span<const double> b,
                        double w, std::vector<double>* out) {
    for (size_t d = 0; d < out->size(); ++d) {
      (*out)[d] = w * a[d] + (1.0 - w) * b[d];
    }
  };
  for (size_t u = 0; u < num_users; ++u) {
    // A user leans towards a primary concept c and partly towards a
    // second one, so the nearest items spread over several IVF cells.
    const size_t c = rng.Uniform(concepts);
    const size_t c2 = rng.Uniform(concepts);
    const double w = rng.UniformReal(config.min_primary_weight, 1.0);
    blend(centers_ir.row(c), centers_ir.row(c2), w, &mix_ir);
    blend(centers_tg.row(c), centers_tg.row(c2), w, &mix_tg);
    MixtureRow(mix_ir, config.user_cloud, &rng, s.users.row(u));
    MixtureRow(mix_tg, config.user_cloud, &rng, s.users_tg.row(u));
    s.alpha[u] = rng.Uniform(10) == 0 ? 0.0 : rng.NextDouble();
    const auto& pool = members[c];
    for (size_t i = 0; i < profile.seen[u] && !pool.empty(); ++i) {
      cat.seen.emplace_back(static_cast<uint32_t>(u),
                            pool[rng.Uniform(pool.size())]);
    }
  }
  return cat;
}

taxorec::DataSplit TakeExclusionSplit(Catalogue* cat) {
  taxorec::DataSplit split;
  split.num_users = cat->snapshot.num_users;
  split.num_items = cat->snapshot.num_items;
  split.train = taxorec::CsrMatrix::FromPairs(split.num_users,
                                              split.num_items,
                                              std::move(cat->seen));
  cat->seen.clear();
  return split;
}

}  // namespace perfbench
