// `perfbench --reference SEED`: the reference figures recorded in
// perfbench/README.md. Nothing here is gated; the figures are the numbers
// later changes compare against by hand:
//   - BipartiteGcn Forward/Backward at 1, 2 and 4 threads on the `train`
//     workload's graph and model width;
//   - float32 vs int8 scoring throughput, top-10 latency and snapshot
//     bytes on the serving catalogue;
//   - IVF build time against catalogue size at 4 threads;
//   - the serve-exact result cache's hit ratio under other request skews
//     and capacities.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "catalogue.h"
#include "common/parallel.h"
#include "data/split.h"
#include "hyperbolic/lorentz.h"
#include "math/rng.h"
#include "nn/gcn.h"
#include "nn/lorentz_layers.h"
#include "serve/frozen_model.h"
#include "serve/ivf_index.h"
#include "serve/result_cache.h"
#include "serve/topk.h"
#include "workloads.h"

namespace perfbench {

namespace {

using taxorec::Matrix;

void GcnScaling(uint64_t seed) {
  const taxorec::Dataset data =
      taxorec::GenerateSynthetic(TrainDataConfig(seed));
  const taxorec::DataSplit split = taxorec::TemporalSplit(data);
  const taxorec::nn::BipartiteGcn gcn(split.train, 3);
  taxorec::Rng rng(seed);
  // Tangent-space inputs of the tag-irrelevant channel: 52 + 1 columns.
  Matrix users(split.num_users, 53), items(split.num_items, 53);
  for (size_t u = 0; u < users.rows(); ++u) {
    taxorec::lorentz::RandomPoint(&rng, 0.1, users.row(u));
  }
  for (size_t v = 0; v < items.rows(); ++v) {
    taxorec::lorentz::RandomPoint(&rng, 0.1, items.row(v));
  }
  Matrix zu, zv;
  taxorec::nn::LogMapOriginForward(users, &zu);
  taxorec::nn::LogMapOriginForward(items, &zv);
  std::printf("gcn (%zu users, %zu items, %zu edges, 53 columns, L=3)\n",
              split.num_users, split.num_items, split.TrainNnz());
  std::printf("  threads  forward_ms  backward_ms\n");
  for (int threads : {1, 2, 4}) {
    taxorec::SetNumThreads(threads);
    taxorec::nn::GcnContext ctx;
    Matrix su, sv, gu, gv;
    const auto fwd =
        TimeEach(21, [&] { gcn.Forward(zu, zv, &ctx, &su, &sv); });
    const auto bwd = TimeEach(21, [&] { gcn.Backward(su, sv, &gu, &gv); });
    std::printf("  %7d  %10.3f  %11.3f\n", threads, 1e3 * Median(fwd),
                1e3 * Median(bwd));
  }
}

void TierComparison(uint64_t seed) {
  CatalogueConfig cc;
  cc.seed = seed;
  Catalogue cat = MakeCatalogue(cc, MakeTrafficProfile(seed));
  const taxorec::DataSplit split = TakeExclusionSplit(&cat);
  taxorec::SetNumThreads(1);
  std::printf("tiers (%zu items, 1 thread, 16 users)\n", cc.num_items);
  std::printf("  tier     items_per_s   topk_ms  snapshot_mb\n");
  for (auto tier : {taxorec::PrecisionTier::kFloat32,
                    taxorec::PrecisionTier::kInt8}) {
    const taxorec::FrozenModel model(taxorec::ScoringSnapshot(cat.snapshot),
                                     tier);
    std::vector<double> block(taxorec::kServeItemBlock);
    const auto sweep = TimeEach(3, [&] {
      for (uint32_t u = 0; u < 16; ++u) {
        for (size_t b = 0; b < model.num_items();
             b += taxorec::kServeItemBlock) {
          const size_t e =
              std::min(b + taxorec::kServeItemBlock, model.num_items());
          model.ScoreBlock(u, b, e, std::span<double>(block.data(), e - b));
        }
      }
    });
    taxorec::TopKHeap heap;
    std::vector<double> scratch;
    std::vector<taxorec::TopKEntry> list;
    std::vector<double> topk;
    for (uint32_t u = 0; u < 16; ++u) {
      const auto t0 = Clock::now();
      taxorec::BlockedTopK(model, u, 10, split.train.RowCols(u), &heap,
                           &scratch, &list);
      topk.push_back(Ms(Clock::now() - t0));
    }
    std::printf("  %-7s  %11.4g  %8.3f  %11.2f\n",
                taxorec::PrecisionTierName(tier),
                16.0 * static_cast<double>(model.num_items()) / Median(sweep),
                Median(topk),
                static_cast<double>(model.snapshot_bytes()) / 1e6);
  }
}

void IvfBuildScaling(uint64_t seed) {
  taxorec::SetNumThreads(4);
  std::printf("ivf build (float32, default IvfOptions, 4 threads)\n");
  std::printf("  items    cells  build_s\n");
  const TrafficProfile profile = MakeTrafficProfile(seed);
  for (size_t items : {50000u, 100000u, 200000u, 400000u}) {
    CatalogueConfig cc;
    cc.seed = seed;
    cc.num_items = items;
    const Catalogue cat = MakeCatalogue(cc, profile);
    const auto t0 = Clock::now();
    const taxorec::IvfIndex index = taxorec::IvfIndex::Build(
        cat.snapshot, taxorec::PrecisionTier::kFloat32, taxorec::IvfOptions{});
    std::printf("  %7zu  %5zu  %7.2f\n", items, index.num_cells(),
                SecondsSince(t0));
  }
}

/// LRU hit ratio of `ResultCache` over a request stream of serve-exact's
/// length (--seconds 10) whose users are drawn with the given weights:
/// the first 600 requests (the open loop, cold cache) and the next 4,000
/// (the closed loop). Only cache probes and inserts run; nothing is
/// scored.
void HitRatios(const std::vector<double>& weights, size_t capacity,
               uint64_t seed, double* open, double* closed) {
  constexpr size_t kOpen = 600, kClosed = 4000;
  std::vector<double> cdf(weights.size());
  std::partial_sum(weights.begin(), weights.end(), cdf.begin());
  taxorec::Rng rng(seed);
  taxorec::ResultCache cache(capacity);
  const std::vector<taxorec::TopKEntry> list(10);
  std::vector<taxorec::TopKEntry> got;
  size_t hits[2] = {0, 0};
  for (size_t i = 0; i < kOpen + kClosed; ++i) {
    const double x = rng.NextDouble() * cdf.back();
    const auto u = static_cast<uint32_t>(std::min<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), x) - cdf.begin(),
        cdf.size() - 1));
    if (cache.Get(u, 10, 0, &got)) {
      ++hits[i < kOpen ? 0 : 1];
    } else {
      cache.Put(u, 10, 0, list);
    }
  }
  *open = static_cast<double>(hits[0]) / kOpen;
  *closed = static_cast<double>(hits[1]) / kClosed;
}

void CacheSensitivity(uint64_t seed) {
  const TrafficProfile profile = MakeTrafficProfile(seed);
  const size_t users = profile.num_users();
  std::printf("result cache hit ratio (%zu users; open 600 then closed "
              "4000 requests), open/closed\n",
              users);
  std::printf("  skew            cap=users/4   cap=users/2+1  cap=users\n");
  const auto row = [&](const char* name, const std::vector<double>& w) {
    std::printf("  %-14s", name);
    for (size_t cap : {users / 4, users / 2 + 1, users}) {
      double open = 0.0, closed = 0.0;
      HitRatios(w, cap, seed, &open, &closed);
      std::printf("  %5.3f/%5.3f", open, closed);
    }
    std::printf("\n");
  };
  row("activity", profile.interactions);
  row("uniform", std::vector<double>(users, 1.0));
  for (double s : {0.7, 0.9, 1.1}) {
    std::vector<double> w(users);
    for (size_t r = 0; r < users; ++r) {
      w[r] = 1.0 / std::pow(static_cast<double>(r + 1), s);
    }
    char name[32];
    std::snprintf(name, sizeof(name), "zipf %.1f", s);
    row(name, w);
  }
}

}  // namespace

int RunReferenceFigures(uint64_t seed) {
  CacheSensitivity(seed);
  GcnScaling(seed);
  TierComparison(seed);
  IvfBuildScaling(seed);
  return 0;
}

}  // namespace perfbench
