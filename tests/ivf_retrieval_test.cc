// Tests for the IVF two-stage retrieval path (DESIGN.md §15): full-probe
// equivalence with the exact scan for every native kernel at both reduced
// tiers (the "no true top-K cell is ever pruned" property), domination of
// the per-cell score bounds over member scores, probe accounting, the
// server-level --retrieval switch (including the degraded-batches-serve-
// exact rule), and the ranking-path audit cases from the serve bugfix
// sweep (-Inf tie determinism, exclusion-heavy int8 re-rank, cache
// generation across a degrade/recover cycle).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/profiler.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "math/rng.h"
#include "serve/ivf_index.h"
#include "serve/server.h"

namespace taxorec {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(GetNumThreads()) {}
  ~ThreadCountGuard() { SetNumThreads(saved_); }

 private:
  int saved_;
};

const ScoreKernel kNativeKernels[] = {
    ScoreKernel::kDot,           ScoreKernel::kNegSqDist,
    ScoreKernel::kNegLorentzSqDist, ScoreKernel::kTwoChannelLorentz,
    ScoreKernel::kTwoChannelEuclid,
};

bool IsLorentz(ScoreKernel k) {
  return k == ScoreKernel::kNegLorentzSqDist ||
         k == ScoreKernel::kTwoChannelLorentz;
}

bool IsTwoChannel(ScoreKernel k) {
  return k == ScoreKernel::kTwoChannelLorentz ||
         k == ScoreKernel::kTwoChannelEuclid;
}

void FillRows(Matrix* m, bool lorentz, double spread, Rng* rng) {
  for (size_t r = 0; r < m->rows(); ++r) {
    auto row = m->row(r);
    double sq = 0.0;
    for (size_t c = lorentz ? 1 : 0; c < row.size(); ++c) {
      row[c] = spread * rng->NextGaussian();
      sq += row[c] * row[c];
    }
    if (lorentz) row[0] = std::sqrt(1.0 + sq);
  }
}

ScoringSnapshot MakeSnapshot(ScoreKernel kernel, size_t users, size_t items,
                             size_t dim, size_t tag_dim, uint64_t seed) {
  Rng rng(seed);
  ScoringSnapshot snap;
  snap.kernel = kernel;
  snap.num_users = users;
  snap.num_items = items;
  snap.users = Matrix(users, dim);
  snap.items = Matrix(items, dim);
  const bool lorentz = IsLorentz(kernel);
  FillRows(&snap.users, lorentz, 0.6, &rng);
  FillRows(&snap.items, lorentz, 0.6, &rng);
  if (IsTwoChannel(kernel)) {
    snap.users_tg = Matrix(users, tag_dim);
    snap.items_tg = Matrix(items, tag_dim);
    FillRows(&snap.users_tg, lorentz, 0.4, &rng);
    FillRows(&snap.items_tg, lorentz, 0.4, &rng);
    snap.alpha.resize(users);
    for (size_t u = 0; u < users; ++u) {
      snap.alpha[u] = (u % 3 == 0) ? 0.0 : rng.UniformReal(0.2, 1.0);
    }
  }
  return snap;
}

std::vector<TopKEntry> ExactTopK(const FrozenModel& model, uint32_t user,
                                 size_t k, std::span<const uint32_t> exclude) {
  TopKHeap heap;
  std::vector<double> scratch;
  std::vector<TopKEntry> out;
  BlockedTopK(model, user, k, exclude, &heap, &scratch, &out, /*block=*/64);
  return out;
}

std::vector<TopKEntry> IvfTopK(const IvfIndex& index, uint32_t user, size_t k,
                               size_t nprobe,
                               std::span<const uint32_t> exclude,
                               IvfQueryStats* stats = nullptr) {
  IvfScratch scratch;
  std::vector<TopKEntry> out;
  index.Query(user, k, nprobe, exclude, &scratch, &out, stats);
  return out;
}

void ExpectSameList(const std::vector<TopKEntry>& want,
                    const std::vector<TopKEntry>& got, const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].item, got[i].item) << what << " rank " << i;
    EXPECT_EQ(want[i].score, got[i].score) << what << " rank " << i;
  }
}

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Instance().GetCounter(name)->value();
}

TEST(IvfIndexTest, ParseAndNames) {
  RetrievalMode mode = RetrievalMode::kExact;
  EXPECT_TRUE(ParseRetrievalMode("ivf", &mode));
  EXPECT_EQ(mode, RetrievalMode::kIvf);
  EXPECT_TRUE(ParseRetrievalMode("exact", &mode));
  EXPECT_EQ(mode, RetrievalMode::kExact);
  EXPECT_FALSE(ParseRetrievalMode("hnsw", &mode));
  EXPECT_STREQ(RetrievalModeName(RetrievalMode::kExact), "exact");
  EXPECT_STREQ(RetrievalModeName(RetrievalMode::kIvf), "ivf");
}

// The pruning-bound property (satellite of DESIGN.md §15): with every cell
// probed, no cell holding a true top-K item can be lost, so the IVF list
// must equal the exact scan of the same tier bit-for-bit — rank order,
// item ids, and served scores. Covers every native kernel at both reduced
// tiers, with and without exclusions.
TEST(IvfIndexTest, FullProbeMatchesExactScan) {
  const size_t kUsers = 10, kItems = 307, kK = 10;
  // Every third item excluded (sorted ascending, as the serve path hands
  // exclusions over).
  std::vector<uint32_t> exclude;
  for (uint32_t v = 0; v < kItems; v += 3) exclude.push_back(v);
  for (ScoreKernel kernel : kNativeKernels) {
    for (PrecisionTier tier :
         {PrecisionTier::kFloat32, PrecisionTier::kInt8}) {
      const ScoringSnapshot snap = MakeSnapshot(kernel, kUsers, kItems, 24,
                                                12, 17);
      const FrozenModel exact(ScoringSnapshot(snap), tier);
      IvfOptions opts;
      opts.kmeans_iters = 5;
      const IvfIndex index = IvfIndex::Build(snap, tier, opts);
      ASSERT_GE(index.num_cells(), 1u);
      for (uint32_t u = 0; u < kUsers; ++u) {
        ExpectSameList(ExactTopK(exact, u, kK, {}),
                       IvfTopK(index, u, kK, index.num_cells(), {}),
                       "no exclusions");
        ExpectSameList(ExactTopK(exact, u, kK, exclude),
                       IvfTopK(index, u, kK, index.num_cells(), exclude),
                       "with exclusions");
      }
    }
  }
}

const ProfileNode* Child(const ProfileNode& node, const char* name) {
  for (const ProfileNode& c : node.children) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

// The build's child spans account for nearly all of ivf_build, so a
// profile of a slow build names the stage that moved instead of leaving
// the time as ivf_build self time; likewise poincare_kmeans splits into
// its seeding, assignment and update steps.
TEST(IvfIndexTest, BuildSpansAttributeTheBuild) {
  const ScoringSnapshot snap = MakeSnapshot(ScoreKernel::kTwoChannelLorentz,
                                            10, 4000, 24, 12, 89);
  ClearProfile();
  StartProfiling();
  const IvfIndex index = IvfIndex::Build(snap, PrecisionTier::kFloat32, {});
  StopProfiling();
  const ProfileNode root = MergedProfile();
  ClearProfile();
  ASSERT_GE(index.num_cells(), 1u);

  const ProfileNode* build = Child(root, "ivf_build");
  ASSERT_NE(build, nullptr);
  uint64_t children_us = 0;
  for (const char* name : {"ivf_ball_points", "poincare_kmeans",
                           "ivf_assign_all", "ivf_cell_reps", "ivf_compact"}) {
    const ProfileNode* child = Child(*build, name);
    ASSERT_NE(child, nullptr) << name;
    EXPECT_EQ(child->calls, 1u) << name;
    children_us += child->inclusive_us;
  }
  EXPECT_GE(static_cast<double>(children_us),
            0.9 * static_cast<double>(build->inclusive_us));

  const ProfileNode* kmeans = Child(*build, "poincare_kmeans");
  for (const char* name : {"kmeans_seed", "kmeans_assign", "kmeans_update"}) {
    EXPECT_NE(Child(*kmeans, name), nullptr) << name;
  }
}

// The bound the prober uses must dominate every member's float32 score —
// this is the invariant that makes the early-stop in bound order safe
// (a cell whose bound is below the heap's worst entry cannot improve it).
TEST(IvfIndexTest, CellBoundsDominateMemberScores) {
  const size_t kUsers = 8, kItems = 211;
  for (ScoreKernel kernel : kNativeKernels) {
    const ScoringSnapshot snap = MakeSnapshot(kernel, kUsers, kItems, 24, 12,
                                              29);
    const FrozenModel f32model(ScoringSnapshot(snap), PrecisionTier::kFloat32);
    const IvfIndex index =
        IvfIndex::Build(snap, PrecisionTier::kFloat32, IvfOptions{});
    std::vector<double> scores(kItems);
    std::vector<double> bounds;
    for (uint32_t u = 0; u < kUsers; ++u) {
      f32model.ScoreBlock(u, 0, kItems, std::span<double>(scores));
      index.CellScoreBounds(u, &bounds);
      ASSERT_EQ(bounds.size(), index.num_cells());
      for (size_t c = 0; c < index.num_cells(); ++c) {
        for (uint32_t item : index.cell_items(c)) {
          EXPECT_LE(scores[item], bounds[c])
              << "kernel " << static_cast<int>(kernel) << " user " << u
              << " cell " << c << " item " << item;
        }
      }
    }
  }
}

TEST(IvfIndexTest, StatsAccountForEveryCell) {
  const ScoringSnapshot snap =
      MakeSnapshot(ScoreKernel::kNegLorentzSqDist, 6, 400, 16, 0, 41);
  const IvfIndex index =
      IvfIndex::Build(snap, PrecisionTier::kFloat32, IvfOptions{});
  ASSERT_GT(index.num_cells(), 4u);
  IvfQueryStats stats;
  const auto out = IvfTopK(index, 2, 10, /*nprobe=*/4, {}, &stats);
  EXPECT_EQ(out.size(), 10u);
  EXPECT_GE(stats.cells_probed, 1u);
  EXPECT_LE(stats.cells_probed, 4u);
  EXPECT_EQ(stats.cells_probed + stats.cells_pruned + stats.cells_skipped,
            index.num_cells());
  EXPECT_GT(stats.items_scored, 0u);
  EXPECT_LE(stats.items_scored, snap.num_items);
}

// Audit case (serve ranking sweep): when exclusions leave fewer live items
// than k, the tail of the list is -Inf sentinels ranked by ascending item
// id, identically in the exact scan and in the IVF path — the int8 tier's
// re-rank must carry sentinels through without rescoring them.
TEST(IvfIndexTest, ExclusionHeavyListsKeepSentinelOrder) {
  const size_t kItems = 97, kK = 8;
  const ScoringSnapshot snap =
      MakeSnapshot(ScoreKernel::kTwoChannelLorentz, 5, kItems, 16, 8, 53);
  // Exclude everything but items 13, 40, 77: only 3 live candidates.
  std::vector<uint32_t> exclude;
  for (uint32_t v = 0; v < kItems; ++v) {
    if (v != 13 && v != 40 && v != 77) exclude.push_back(v);
  }
  for (PrecisionTier tier : {PrecisionTier::kFloat32, PrecisionTier::kInt8}) {
    const FrozenModel exact(ScoringSnapshot(snap), tier);
    const IvfIndex index = IvfIndex::Build(snap, tier, IvfOptions{});
    for (uint32_t u = 0; u < 5; ++u) {
      const auto want = ExactTopK(exact, u, kK, exclude);
      ASSERT_EQ(want.size(), kK);
      // Three finite entries, then -Inf sentinels in ascending id order.
      EXPECT_NE(want[0].score, kNegInf);
      EXPECT_NE(want[2].score, kNegInf);
      for (size_t i = 3; i < kK; ++i) {
        EXPECT_EQ(want[i].score, kNegInf);
        if (i > 3) EXPECT_LT(want[i - 1].item, want[i].item);
      }
      ExpectSameList(want, IvfTopK(index, u, kK, index.num_cells(), exclude),
                     "exclusion-heavy");
    }
  }
}

// Audit case: -Inf ties (sanitized NaN/Inf holes, masked items) must rank
// deterministically by ascending item id behind every finite score,
// regardless of offer order.
TEST(TopKHeapAuditTest, NegInfTiesRankDeterministicallyById) {
  TopKHeap heap;
  heap.Reset(5);
  const uint32_t ids[] = {9, 2, 14, 5, 11, 7};
  for (uint32_t id : ids) heap.Offer(id, kNegInf);
  heap.Offer(3, 1.5);
  heap.Offer(8, 0.5);
  std::vector<TopKEntry> out;
  heap.Finish(&out);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].item, 3u);
  EXPECT_EQ(out[1].item, 8u);
  // The three surviving sentinels are the lowest ids, ascending.
  EXPECT_EQ(out[2].item, 2u);
  EXPECT_EQ(out[3].item, 5u);
  EXPECT_EQ(out[4].item, 7u);
  for (size_t i = 2; i < 5; ++i) EXPECT_EQ(out[i].score, kNegInf);
}

DataSplit MakeServeSplit() {
  SyntheticConfig cfg;
  cfg.seed = 11;
  cfg.num_users = 60;
  cfg.num_items = 90;
  cfg.num_tags = 15;
  cfg.num_roots = 3;
  return TemporalSplit(GenerateSynthetic(cfg));
}

std::vector<ServeRequest> AllUserRequests(size_t num_users, size_t k) {
  std::vector<ServeRequest> reqs(num_users);
  for (size_t u = 0; u < num_users; ++u) {
    reqs[u].user = static_cast<uint32_t>(u);
    reqs[u].k = k;
  }
  return reqs;
}

// Server-level switch: at nprobe >= num_cells the IVF server serves the
// same lists as the exact server (train exclusions included), and the IVF
// fan-out stays bit-identical across thread counts.
TEST(BatchServerIvfTest, FullProbeServerMatchesExactAndThreads) {
  ThreadCountGuard guard;
  const DataSplit split = MakeServeSplit();
  const ScoringSnapshot snap =
      MakeSnapshot(ScoreKernel::kTwoChannelLorentz, split.num_users,
                   split.num_items, 16, 8, 67);

  ServeOptions exact_opts;
  exact_opts.retrieval = RetrievalMode::kExact;
  BatchServer exact_server(FrozenModel(ScoringSnapshot(snap),
                                       PrecisionTier::kFloat32),
                           split, exact_opts);

  ServeOptions ivf_opts;
  ivf_opts.retrieval = RetrievalMode::kIvf;
  ivf_opts.ivf.nprobe = 1u << 20;  // >= num_cells: probe everything
  BatchServer ivf_server(FrozenModel(ScoringSnapshot(snap),
                                     PrecisionTier::kFloat32),
                         split, ivf_opts);
  ASSERT_EQ(ivf_server.options().retrieval, RetrievalMode::kIvf);
  ASSERT_NE(ivf_server.model().ivf(), nullptr);

  const auto requests = AllUserRequests(split.num_users, 10);
  SetNumThreads(1);
  const auto want = exact_server.ServeBatch(requests);
  const auto got1 = ivf_server.ServeBatch(requests);
  SetNumThreads(4);
  const auto got4 = ivf_server.ServeBatch(requests);
  ASSERT_EQ(want.size(), got1.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ExpectSameList(want[i], got1[i], "ivf vs exact");
    ExpectSameList(got1[i], got4[i], "1 vs 4 threads");
  }
  EXPECT_GT(CounterValue("taxorec.serve.ivf.queries"), 0u);
}

// A double-tier server cannot host an IVF index; the constructor must
// fall back to exact (warning logged) instead of crashing or serving
// through a missing index.
TEST(BatchServerIvfTest, DoubleTierFallsBackToExact) {
  const DataSplit split = MakeServeSplit();
  const ScoringSnapshot snap = MakeSnapshot(
      ScoreKernel::kDot, split.num_users, split.num_items, 16, 0, 71);
  ServeOptions opts;
  opts.retrieval = RetrievalMode::kIvf;
  BatchServer server(FrozenModel(ScoringSnapshot(snap),
                                 PrecisionTier::kDouble),
                     split, opts);
  EXPECT_EQ(server.options().retrieval, RetrievalMode::kExact);
  EXPECT_EQ(server.model().ivf(), nullptr);
  const auto lists = server.ServeBatch(AllUserRequests(4, 5));
  ASSERT_EQ(lists.size(), 4u);
  for (const auto& list : lists) EXPECT_EQ(list.size(), 5u);
}

// A model handed over with its index already built is served as is: the
// constructor must not run a second build (k-means included).
TEST(BatchServerIvfTest, PrebuiltIndexIsNotRebuilt) {
  const DataSplit split = MakeServeSplit();
  const ScoringSnapshot snap =
      MakeSnapshot(ScoreKernel::kTwoChannelLorentz, split.num_users,
                   split.num_items, 16, 8, 83);
  ServeOptions opts;
  opts.retrieval = RetrievalMode::kIvf;
  const uint64_t builds_before = CounterValue("taxorec.serve.ivf.builds");
  FrozenModel model(ScoringSnapshot(snap), PrecisionTier::kFloat32);
  ASSERT_TRUE(model.BuildIvf(opts.ivf));
  const IvfIndex* built = model.ivf();
  BatchServer server(std::move(model), split, opts);
  EXPECT_EQ(CounterValue("taxorec.serve.ivf.builds") - builds_before, 1u);
  EXPECT_EQ(server.options().retrieval, RetrievalMode::kIvf);
  EXPECT_EQ(server.model().ivf(), built);
  const auto lists = server.ServeBatch(AllUserRequests(4, 5));
  ASSERT_EQ(lists.size(), 4u);
  for (const auto& list : lists) EXPECT_EQ(list.size(), 5u);
}

// Degraded batches serve exact (server.h): the ladder's rungs never run
// through the IVF probe, so the ivf.queries counter must not move while
// the server is stepped down.
TEST(BatchServerIvfTest, DegradedBatchesServeExact) {
  const DataSplit split = MakeServeSplit();
  const ScoringSnapshot snap =
      MakeSnapshot(ScoreKernel::kNegLorentzSqDist, split.num_users,
                   split.num_items, 16, 0, 73);
  ServeOptions opts;
  opts.retrieval = RetrievalMode::kIvf;
  opts.precision = PrecisionTier::kFloat32;
  opts.admission.degrade = true;
  opts.admission.hysteresis_batches = 1;
  opts.admission.pressure_window = 1;
  BatchServer server(FrozenModel(ScoringSnapshot(snap),
                                 PrecisionTier::kFloat32),
                     split, opts);
  ASSERT_EQ(server.options().retrieval, RetrievalMode::kIvf);

  const auto requests = AllUserRequests(6, 8);
  const uint64_t q0 = CounterValue("taxorec.serve.ivf.queries");
  server.ServeBatch(requests);
  const uint64_t q1 = CounterValue("taxorec.serve.ivf.queries");
  EXPECT_EQ(q1 - q0, requests.size());

  server.admission()->ObserveBatch(0.06, 1, 1);  // step the ladder down
  ASSERT_GE(server.admission()->degrade_steps(), 1);
  ASSERT_EQ(server.effective_tier(), PrecisionTier::kInt8);
  const auto degraded = server.ServeBatchEx(requests);
  for (const ServeResult& r : degraded) {
    EXPECT_EQ(r.status, ServeStatus::kOk);
    EXPECT_EQ(r.tier, PrecisionTier::kInt8);
  }
  // No IVF probes while degraded — those requests took the exact path.
  EXPECT_EQ(CounterValue("taxorec.serve.ivf.queries"), q1);
}

// Audit case: lists cached before a degrade episode must serve again after
// recovery — the bypass keeps the cache's configured-tier generation
// intact, so stepping back up is hit-for-hit identical to never having
// degraded.
TEST(BatchServerIvfTest, CacheSurvivesDegradeRecoverCycle) {
  const DataSplit split = MakeServeSplit();
  const ScoringSnapshot snap = MakeSnapshot(
      ScoreKernel::kDot, split.num_users, split.num_items, 16, 0, 79);
  ServeOptions opts;
  opts.cache_capacity = 64;
  opts.precision = PrecisionTier::kFloat32;
  opts.admission.degrade = true;
  opts.admission.hysteresis_batches = 1;
  opts.admission.pressure_window = 1;
  BatchServer server(FrozenModel(ScoringSnapshot(snap),
                                 PrecisionTier::kFloat32),
                     split, opts);
  const auto requests = AllUserRequests(5, 6);
  const auto before = server.ServeBatch(requests);  // fills the cache

  server.admission()->ObserveBatch(0.06, 1, 1);
  ASSERT_GE(server.admission()->degrade_steps(), 1);
  server.ServeBatch(requests);  // degraded: bypasses the cache

  server.admission()->ObserveBatch(1e-6, 1, 0);  // pressure cleared
  ASSERT_EQ(server.admission()->degrade_steps(), 0);
  const uint64_t hits_before = CounterValue("taxorec.serve.cache.hits");
  const auto after = server.ServeBatch(requests);
  EXPECT_EQ(CounterValue("taxorec.serve.cache.hits") - hits_before,
            requests.size());
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    ExpectSameList(before[i], after[i], "pre vs post degrade cycle");
  }
}

}  // namespace
}  // namespace taxorec
