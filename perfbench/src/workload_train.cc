// Workload `train`: TaxoRec with the paper-default configuration on a
// yelp-shaped synthetic set (sparsest profile, most tags, deepest planted
// tree), one thread. Set-up is data synthesis + temporal split + BeginFit
// (tag warm-up and the first taxonomy build); then a fixed number of
// FitEpoch calls (whole taxonomy-rebuild periods), EndFit, full-catalogue
// ranking evaluation on the test split, and single-user top-10 requests
// (RecommendTopK) for every evaluated user.
//
// End-to-end metrics: setup_s, build_s (median FitEpoch), ops_per_s (test
// users ranked per second by EvaluateRanking), p50_ms (median over users
// of each user's fastest RecommendTopK, i.e. a per-request minimum cost),
// quality_at_10 (test NDCG@10), model_mb (trained parameters),
// peak_rss_mb.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "baselines/recommender.h"
#include "common/heap_stats.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/profiler.h"
#include "core/taxorec_model.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/recommend.h"
#include "nn/gcn.h"
#include "nn/lorentz_layers.h"
#include "nn/midpoint.h"
#include "optim/rsgd.h"
#include "reference.h"
#include "taxonomy/builder.h"
#include "taxonomy/regularizer.h"
#include "workloads.h"

namespace perfbench {

namespace {

using taxorec::Matrix;

// Data shape: the `yelp` profile (data/profiles.cc) scaled to 2x users and
// items, keeping its tag count, tree shape and sparsity.
constexpr size_t kUsers = 2400;
constexpr size_t kItems = 3600;
constexpr size_t kTags = 180;
constexpr int kThreads = 1;
constexpr size_t kTopK = 10;
// Replayed minibatches for the per-layer timings (traced runs only).
constexpr int kLayerReps = 5;
constexpr int kSetupReps = 5;
constexpr size_t kEvalChunk = 100;
// Read-side repetitions: four per allowed CPU, at least this many.
constexpr size_t kReadRepsPerCpu = 4;
constexpr size_t kMinReadReps = 3;
// Users whose rankings are recomputed by the reference checkers.
constexpr size_t kCheckedUsers = 200;

}  // namespace

taxorec::SyntheticConfig TrainDataConfig(uint64_t seed) {
  taxorec::SyntheticConfig cfg;
  cfg.name = "yelp-shaped";
  cfg.seed = seed * 7919 + 404;
  cfg.num_users = kUsers;
  cfg.num_items = kItems;
  cfg.num_tags = kTags;
  cfg.num_roots = 5;
  cfg.branching = 3;
  cfg.mean_interactions_per_user = 10.0;
  cfg.tag_affinity_mean = 0.8;
  return cfg;
}

namespace {

/// The paper-default TaxoRec configuration (the values
/// bench/bench_common.h ConfigFor("TaxoRec") returns), with the epoch
/// count set by the run length.
taxorec::ModelConfig ModelConfigFor(uint64_t seed, int epochs) {
  taxorec::ModelConfig cfg;
  cfg.dim = 64;
  cfg.tag_dim = 12;
  cfg.epochs = epochs;
  cfg.batches_per_epoch = 15;
  cfg.batch_size = 512;
  cfg.lr = 0.05;
  cfg.margin = 3.0;
  cfg.gcn_layers = 3;
  cfg.reg_lambda = 0.1;
  cfg.taxo_k = 3;
  cfg.taxo_delta = 0.5;
  cfg.taxo_rebuild_every = 5;
  cfg.seed = seed * 104729 + 13;
  return cfg;
}

struct Trained {
  taxorec::Dataset data;
  taxorec::DataSplit split;
  std::unique_ptr<taxorec::Recommender> model;
  double generate_s = 0.0;
  double begin_fit_s = 0.0;
};

Trained SetUp(uint64_t seed, const taxorec::ModelConfig& cfg) {
  Trained t;
  auto t0 = Clock::now();
  t.data = taxorec::GenerateSynthetic(TrainDataConfig(seed));
  t.split = taxorec::TemporalSplit(t.data);
  t.generate_s = SecondsSince(t0);
  t0 = Clock::now();
  t.model = taxorec::MakeModel("TaxoRec", cfg);
  taxorec::Rng rng(cfg.seed);
  t.model->BeginFit(t.split, &rng);
  t.begin_fit_s = SecondsSince(t0);
  return t;
}

uint64_t TotalAllocs() {
  for (const auto& s : taxorec::HeapStatsSnapshot()) {
    if (s.name == "total") return s.alloc_count;
  }
  return 0;
}

uint64_t CounterValue(const char* name) {
  return taxorec::MetricsRegistry::Instance().GetCounter(name)->value();
}

/// Sum of inclusive time of every profile site named `name`.
uint64_t SiteMicros(const taxorec::ProfileNode& node, const std::string& name) {
  uint64_t us = node.name == name ? node.inclusive_us : 0;
  for (const auto& child : node.children) us += SiteMicros(child, name);
  return us;
}

/// Every tag must be retained by exactly one taxonomy node.
std::string CheckTaxonomy(const taxorec::Taxonomy& taxo, size_t num_tags) {
  std::vector<int> seen(num_tags, 0);
  for (size_t n = 0; n < taxo.num_nodes(); ++n) {
    for (uint32_t t : taxo.RetainedTags(static_cast<int32_t>(n))) {
      if (t >= num_tags) return "taxonomy holds an out-of-range tag";
      ++seen[t];
    }
  }
  for (size_t t = 0; t < num_tags; ++t) {
    if (seen[t] != 1) {
      return "tag " + std::to_string(t) + " placed " +
             std::to_string(seen[t]) + " times";
    }
  }
  return "";
}

/// The user's ranking with train and validation items masked, from the
/// model's ScoreItems and the benchmark's own sort.
std::vector<uint32_t> OwnRanking(const taxorec::Recommender& model,
                                 const taxorec::DataSplit& split, uint32_t u,
                                 std::vector<double>* scores, bool mask_val) {
  scores->resize(split.num_items);
  model.ScoreItems(u, std::span<double>(*scores));
  std::vector<uint32_t> mask(split.train.RowCols(u).begin(),
                             split.train.RowCols(u).end());
  if (mask_val) {
    mask.insert(mask.end(), split.val_items[u].begin(),
                split.val_items[u].end());
  }
  std::vector<uint32_t> out;
  for (const ref::Ranked& r : ref::TopK(*scores, kTopK, mask)) {
    out.push_back(r.item);
  }
  return out;
}

/// Times the layers one TaxoRec minibatch runs (Propagate + TrainStep),
/// replayed on the trained model's own shapes and parameters.
void ReplayLayers(const Trained& t, const taxorec::Taxonomy& taxo,
                  Report* report) {
  using namespace taxorec;
  const auto* ckpt_model = dynamic_cast<const TaxoRecModel*>(t.model.get());
  const Checkpoint ckpt = ckpt_model->SaveCheckpoint();
  const Matrix& users_ir = *ckpt.Get("users_ir");
  const Matrix& items_ir = *ckpt.Get("items_ir");
  const Matrix& users_tg = *ckpt.Get("users_tg");
  const Matrix& tags = *ckpt.Get("tags");
  nn::TagAggregation agg(&t.split.item_tags);
  nn::BipartiteGcn gcn(t.split.train, 3);
  const size_t nu = users_ir.rows(), ni = items_ir.rows();

  // Upstream gradients of one batch: 512 triplets touch 512 users and
  // 1024 items per channel.
  Rng rng(7);
  auto batch_grads = [&](size_t rows, size_t cols, size_t touched) {
    Matrix g(rows, cols);
    for (size_t i = 0; i < touched; ++i) {
      auto row = g.row(rng.Uniform(rows));
      for (double& x : row) x += 0.01 * rng.NextGaussian();
    }
    return g;
  };
  const Matrix up_u_ir = batch_grads(nu, users_ir.cols(), 512);
  const Matrix up_v_ir = batch_grads(ni, items_ir.cols(), 1024);
  const Matrix up_u_tg = batch_grads(nu, users_tg.cols(), 512);
  const Matrix up_v_tg = batch_grads(ni, users_tg.cols(), 1024);

  // Forward caches persist across batches like the model's members; the
  // backward temporaries are allocated per batch, as TrainStep does.
  nn::TagAggContext tctx;
  Matrix items_tg;
  nn::GcnContext cir, ctg;
  Matrix su_ir, sv_ir, su_tg, sv_tg;
  Matrix ou_ir, ov_ir, ou_tg, ov_tg;
  std::vector<double> tag_agg, maps, gcn_f, gcn_b, reg, rsgd;
  for (int rep = 0; rep < kLayerReps; ++rep) {
    auto t0 = Clock::now();
    agg.Forward(tags, &tctx, &items_tg);
    double agg_ms = Ms(Clock::now() - t0);

    Matrix zu_ir, zv_ir, zu_tg, zv_tg;
    t0 = Clock::now();
    nn::LogMapOriginForward(users_ir, &zu_ir);
    nn::LogMapOriginForward(items_ir, &zv_ir);
    nn::LogMapOriginForward(users_tg, &zu_tg);
    nn::LogMapOriginForward(items_tg, &zv_tg);
    double maps_ms = Ms(Clock::now() - t0);

    t0 = Clock::now();
    gcn.Forward(zu_ir, zv_ir, &cir, &su_ir, &sv_ir);
    gcn.Forward(zu_tg, zv_tg, &ctg, &su_tg, &sv_tg);
    gcn_f.push_back(Ms(Clock::now() - t0));

    t0 = Clock::now();
    nn::ExpMapOriginForward(su_ir, &ou_ir);
    nn::ExpMapOriginForward(sv_ir, &ov_ir);
    nn::ExpMapOriginForward(su_tg, &ou_tg);
    nn::ExpMapOriginForward(sv_tg, &ov_tg);
    Matrix gsu_ir(nu, su_ir.cols()), gsv_ir(ni, sv_ir.cols());
    Matrix gsu_tg(nu, su_tg.cols()), gsv_tg(ni, sv_tg.cols());
    nn::ExpMapOriginBackward(su_ir, up_u_ir, &gsu_ir);
    nn::ExpMapOriginBackward(sv_ir, up_v_ir, &gsv_ir);
    nn::ExpMapOriginBackward(su_tg, up_u_tg, &gsu_tg);
    nn::ExpMapOriginBackward(sv_tg, up_v_tg, &gsv_tg);
    maps_ms += Ms(Clock::now() - t0);

    Matrix gz_u_ir, gz_v_ir, gz_u_tg, gz_v_tg;
    t0 = Clock::now();
    gcn.Backward(gsu_ir, gsv_ir, &gz_u_ir, &gz_v_ir);
    gcn.Backward(gsu_tg, gsv_tg, &gz_u_tg, &gz_v_tg);
    gcn_b.push_back(Ms(Clock::now() - t0));

    t0 = Clock::now();
    Matrix lu_ir(nu, users_ir.cols()), lv_ir(ni, items_ir.cols());
    Matrix lu_tg(nu, users_tg.cols()), lv_tg(ni, items_tg.cols());
    nn::LogMapOriginBackward(users_ir, gz_u_ir, &lu_ir);
    nn::LogMapOriginBackward(items_ir, gz_v_ir, &lv_ir);
    nn::LogMapOriginBackward(users_tg, gz_u_tg, &lu_tg);
    nn::LogMapOriginBackward(items_tg, gz_v_tg, &lv_tg);
    maps.push_back(maps_ms + Ms(Clock::now() - t0));

    Matrix grad_tags(tags.rows(), tags.cols());
    t0 = Clock::now();
    agg.Backward(tags, tctx, lv_tg, &grad_tags);
    tag_agg.push_back(agg_ms + Ms(Clock::now() - t0));

    t0 = Clock::now();
    TaxonomyRegLossAndGrad(taxo, tags, 0.1 / static_cast<double>(tags.rows()),
                           &grad_tags);
    reg.push_back(Ms(Clock::now() - t0));

    Matrix p_u_ir = users_ir, p_v_ir = items_ir, p_u_tg = users_tg;
    Matrix p_tags = tags;
    t0 = Clock::now();
    optim::LorentzRsgdUpdate(&p_u_ir, lu_ir, 0.05, 1.0);
    optim::LorentzRsgdUpdate(&p_v_ir, lv_ir, 0.05, 1.0);
    optim::LorentzRsgdUpdate(&p_u_tg, lu_tg, 0.05, 1.0);
    optim::PoincareRsgdUpdate(&p_tags, grad_tags, 0.05, 1.0);
    rsgd.push_back(Ms(Clock::now() - t0));
  }
  report->Layer("nn.gcn_forward_ms", Median(gcn_f), "ms");
  report->Layer("nn.gcn_backward_ms", Median(gcn_b), "ms");
  report->Layer("nn.lorentz_maps_ms", Median(maps), "ms");
  report->Layer("nn.tag_agg_ms", Median(tag_agg), "ms");
  report->Layer("optim.rsgd_ms", Median(rsgd), "ms");
  report->Layer("taxonomy.reg_ms", Median(reg), "ms");
}

/// The timed read side of `train`: EvaluateRanking over chunks of
/// kEvalChunk test users (a split copy whose other users hold no test
/// items) and one RecommendTopK(k = 10) request per evaluated user. It runs
/// as repetitions spread over the run (between epochs, the last after
/// EndFit), four per allowed CPU, each with the thread pinned to the next
/// CPU in turn, and keeps each chunk's and each request's fastest
/// repetition: the machine's CPUs slow down and speed up for seconds at a
/// time with other tenants' work, and the fastest of repetitions spread
/// over time and CPUs describes the program's cost rather than the moment
/// and CPU a run landed on.
class ReadSide {
 public:
  ReadSide(const Trained& t, std::vector<uint32_t> eval_users)
      : cpus(AllowedCpus()),
        t_(t),
        users_(std::move(eval_users)),
        stride_(std::max<size_t>(1, users_.size() / kCheckedUsers)),
        part_(t.split) {
    chunk_s.assign((users_.size() + kEvalChunk - 1) / kEvalChunk, 1e300);
    latency_ms.assign(users_.size(), 1e300);
  }

  size_t reps() const {
    return std::max(kMinReadReps, kReadRepsPerCpu * cpus.size());
  }

  /// One repetition. With the final evaluation at hand every chunk must
  /// reproduce its per-user figures; before it (mid-training) the sampled
  /// users' NDCG@10 is recomputed from ScoreItems instead. Sampled
  /// RecommendTopK lists must equal the reference top-10 either way.
  void Run(size_t rep, const taxorec::EvalResult* final_result,
           Report* report) {
    const PinnedTo pin(cpus.empty() ? -1 : cpus[rep % cpus.size()]);
    std::vector<double> scores;
    for (size_t c0 = 0; c0 < users_.size(); c0 += kEvalChunk) {
      const size_t c1 = std::min(c0 + kEvalChunk, users_.size());
      for (auto& items : part_.test_items) items.clear();
      for (size_t i = c0; i < c1; ++i) {
        part_.test_items[users_[i]] = t_.split.test_items[users_[i]];
      }
      const auto t0 = Clock::now();
      const taxorec::EvalResult chunk =
          taxorec::EvaluateRanking(*t_.model, part_);
      double& best = chunk_s[c0 / kEvalChunk];
      best = std::min(best, SecondsSince(t0));
      report->Attempt(c1 - c0);
      report->Count("evaluated_users", c1 - c0);
      bool same = chunk.per_user_ndcg.size() == c1 - c0;
      if (same && final_result != nullptr) {
        same = std::equal(chunk.per_user_ndcg.begin(),
                          chunk.per_user_ndcg.end(),
                          final_result->per_user_ndcg.begin() + c0) &&
               std::equal(chunk.per_user_recall.begin(),
                          chunk.per_user_recall.end(),
                          final_result->per_user_recall.begin() + c0);
      }
      for (size_t i = c0; same && final_result == nullptr && i < c1; ++i) {
        if (i % stride_ != 0) continue;
        const auto ranked =
            OwnRanking(*t_.model, t_.split, users_[i], &scores, true);
        same = std::fabs(ref::NdcgAt(ranked, t_.split.test_items[users_[i]],
                                     kTopK) -
                         chunk.per_user_ndcg[i - c0]) <= 1e-12;
      }
      report->Check(same, "EvaluateRanking of a user chunk differs from the "
                          "reference");
    }
    taxorec::RecommendOptions ropts;
    ropts.k = kTopK;
    // Each repetition starts at another user, so no user is always timed
    // at the same moment of a repetition.
    const size_t n = users_.size();
    for (size_t k = 0; k < n; ++k) {
      const size_t i = (k + rep * n / reps()) % n;
      const uint32_t u = users_[i];
      const auto t0 = Clock::now();
      const auto list = taxorec::RecommendTopK(*t_.model, t_.split, u, ropts);
      const double ms = Ms(Clock::now() - t0);
      latency_ms[i] = std::min(latency_ms[i], ms);
      every_ms.push_back(ms);
      report->Attempt();
      report->Count("recommend_requests", 1);
      if (i % stride_ != 0) {
        report->Check(list.size() == kTopK, "short recommendation list");
        continue;
      }
      const auto want = OwnRanking(*t_.model, t_.split, u, &scores, false);
      bool same = list.size() == want.size();
      for (size_t j = 0; same && j < want.size(); ++j) {
        same = list[j].item == want[j] && list[j].score == scores[want[j]];
      }
      report->Check(same, "RecommendTopK list differs from the reference "
                          "for user " + std::to_string(u));
    }
  }

  /// Median over chunks of users ranked per second, each chunk at its
  /// fastest repetition.
  double UsersPerSecond() const {
    std::vector<double> rate;
    for (size_t c = 0; c < chunk_s.size(); ++c) {
      const size_t n = std::min(kEvalChunk, users_.size() - c * kEvalChunk);
      rate.push_back(static_cast<double>(n) / chunk_s[c]);
    }
    return Median(rate);
  }

  const std::vector<int> cpus;
  std::vector<double> chunk_s;     // per chunk, fastest repetition
  std::vector<double> latency_ms;  // per user, fastest repetition
  std::vector<double> every_ms;    // every repetition of every user

 private:
  const Trained& t_;
  const std::vector<uint32_t> users_;
  const size_t stride_;
  taxorec::DataSplit part_;
};

}  // namespace

void RunTrain(const RunOptions& opts, Report* report) {
  taxorec::SetNumThreads(kThreads);
  // Whole taxonomy-rebuild periods, fixed by the run length alone so the
  // trained model (and NDCG) depend only on the seed.
  const int epochs =
      5 * std::max(1, static_cast<int>(std::lround(opts.seconds / 5.0)));
  const taxorec::ModelConfig cfg = ModelConfigFor(opts.seed, epochs);

  std::vector<double> setup_s, generate_s, begin_s;
  Trained t;
  for (int r = 0; r < kSetupReps; ++r) {
    t = SetUp(opts.seed, cfg);
    setup_s.push_back(t.generate_s + t.begin_fit_s);
    generate_s.push_back(t.generate_s);
    begin_s.push_back(t.begin_fit_s);
  }
  report->EndToEnd("setup_s", Median(setup_s), "s");
  PERFBENCH_LOG("train: %zu users, %zu items, %zu tags, %zu train edges; "
                "setup %.3fs",
                t.split.num_users, t.split.num_items, t.split.num_tags,
                t.split.TrainNnz(), Median(setup_s));

  std::vector<uint32_t> eval_users;
  for (uint32_t u = 0; u < t.split.num_users; ++u) {
    if (!t.split.test_items[u].empty()) eval_users.push_back(u);
  }
  ReadSide reads(t, eval_users);
  size_t reads_done = 0;

  // Training, with all but the last read-side repetition in between epochs
  // (ReadSide). In a traced run the profiler is armed on odd epochs only,
  // so the run measures its own tracing overhead.
  taxorec::Rng rng(cfg.seed);
  std::vector<double> epoch_s, plain_s, armed_s, allocs_per_batch;
  int armed_epochs = 0;
  const uint64_t spmm0 = CounterValue("taxorec.spmm.calls");
  taxorec::ClearProfile();
  for (int e = 0; e < epochs; ++e) {
    const bool armed = opts.trace && e % 2 == 1;
    if (armed) taxorec::StartProfiling();
    const uint64_t allocs0 = TotalAllocs();
    const auto t0 = Clock::now();
    const double loss = t.model->FitEpoch(t.split, e, &rng);
    const double secs = SecondsSince(t0);
    const uint64_t allocs = TotalAllocs() - allocs0;
    if (armed) {
      taxorec::StopProfiling();
      ++armed_epochs;
    }
    report->Attempt();
    report->Count("epochs", 1);
    report->Check(std::isfinite(loss),
                  "epoch " + std::to_string(e) + " loss not finite");
    epoch_s.push_back(secs);
    const bool rebuild = e > 0 && e % cfg.taxo_rebuild_every == 0;
    if (!rebuild) {
      (armed ? armed_s : plain_s).push_back(secs);
      allocs_per_batch.push_back(static_cast<double>(allocs) /
                                 static_cast<double>(cfg.batches_per_epoch));
    }
    while (reads_done + 1 < reads.reps() &&
           static_cast<size_t>(e + 1) * reads.reps() >=
               (reads_done + 1) * static_cast<size_t>(epochs)) {
      reads.Run(reads_done++, nullptr, report);
    }
  }
  const uint64_t spmm_calls = CounterValue("taxorec.spmm.calls") - spmm0;
  const double spmm_ms =
      static_cast<double>(SiteMicros(taxorec::MergedProfile(), "spmm")) /
      1000.0;
  t.model->EndFit(t.split);
  report->EndToEnd("build_s", Median(epoch_s), "s");
  std::string epoch_list;
  for (double e : epoch_s) epoch_list += " " + std::to_string(e).substr(0, 5);
  PERFBENCH_LOG("train: %d epochs, median %.3fs:%s", epochs, Median(epoch_s),
                epoch_list.c_str());

  // Trained parameters: hyperboloid rows and ball tags.
  const auto* taxo_model =
      dynamic_cast<const taxorec::TaxoRecModel*>(t.model.get());
  const taxorec::Checkpoint ckpt = taxo_model->SaveCheckpoint();
  double model_bytes = 0.0;
  for (const char* name : {"users_ir", "items_ir", "users_tg"}) {
    const Matrix* m = ckpt.Get(name);
    model_bytes += 8.0 * static_cast<double>(m->rows() * m->cols());
    const double res = ref::HyperboloidResidual(*m);
    report->Check(res <= 1e-9, std::string(name) + " off the hyperboloid: " +
                                   std::to_string(res));
  }
  const Matrix* tags = ckpt.Get("tags");
  model_bytes += 8.0 * static_cast<double>(tags->rows() * tags->cols());
  const double tag_norm = ref::MaxBallNorm(*tags);
  report->Check(tag_norm < 1.0,
                "tag outside the Poincare ball: " + std::to_string(tag_norm));
  const taxorec::ScoringSnapshot snap = t.model->ExportScoringSnapshot();
  for (const Matrix* m : {&snap.users, &snap.items, &snap.users_tg,
                          &snap.items_tg}) {
    const double res = ref::HyperboloidResidual(*m);
    report->Check(res <= 1e-8, "propagated embedding off the hyperboloid: " +
                                   std::to_string(res));
  }
  report->EndToEnd("model_mb", model_bytes / 1e6, "MB");
  const taxorec::Taxonomy* taxo = taxo_model->taxonomy();
  report->Check(taxo != nullptr, "no taxonomy after training");
  if (taxo != nullptr) {
    const std::string why = CheckTaxonomy(*taxo, t.split.num_tags);
    report->Check(why.empty(), "taxonomy: " + why);
  }

  // Evaluation: one full EvaluateRanking gives the test metrics.
  const taxorec::EvalResult result =
      taxorec::EvaluateRanking(*t.model, t.split);
  const size_t n_eval = result.num_eval_users;
  report->Attempt(n_eval);
  report->Count("evaluated_users", n_eval);
  const double ndcg = result.ndcg[0];
  report->EndToEnd("quality_at_10", ndcg, "ratio");
  report->Check(eval_users.size() == n_eval, "evaluated-user count differs");

  // Recompute per-user Recall@10 / NDCG@10 for a sample of users, and the
  // random-ranking and most-popular references.
  std::vector<double> popularity(t.split.num_items, 0.0);
  for (uint32_t u = 0; u < t.split.num_users; ++u) {
    for (uint32_t v : t.split.train.RowCols(u)) popularity[v] += 1.0;
  }
  std::vector<double> scores;
  double random_ndcg = 0.0, popular_ndcg = 0.0;
  const size_t stride = std::max<size_t>(1, eval_users.size() / kCheckedUsers);
  for (size_t i = 0; i < eval_users.size(); ++i) {
    const uint32_t u = eval_users[i];
    const auto& test = t.split.test_items[u];
    std::vector<uint32_t> mask(t.split.train.RowCols(u).begin(),
                               t.split.train.RowCols(u).end());
    mask.insert(mask.end(), t.split.val_items[u].begin(),
                t.split.val_items[u].end());
    std::sort(mask.begin(), mask.end());
    mask.erase(std::unique(mask.begin(), mask.end()), mask.end());
    random_ndcg +=
        ref::RandomNdcgAt(t.split.num_items - mask.size(), test.size(), kTopK);
    std::vector<uint32_t> popular;
    for (const ref::Ranked& r : ref::TopK(popularity, kTopK, mask)) {
      popular.push_back(r.item);
    }
    popular_ndcg += ref::NdcgAt(popular, test, kTopK);
    if (i % stride != 0 || i >= result.per_user_ndcg.size()) continue;
    const auto ranked = OwnRanking(*t.model, t.split, u, &scores, true);
    const double want_ndcg = ref::NdcgAt(ranked, test, kTopK);
    const double want_recall = ref::RecallAt(ranked, test, kTopK);
    report->Check(std::fabs(want_ndcg - result.per_user_ndcg[i]) <= 1e-12 &&
                      std::fabs(want_recall - result.per_user_recall[i]) <=
                          1e-12,
                  "user " + std::to_string(u) +
                      ": EvaluateRanking NDCG/Recall@10 differ from the "
                      "recomputation");
  }
  random_ndcg /= static_cast<double>(eval_users.size());
  popular_ndcg /= static_cast<double>(eval_users.size());
  const double floor = 10.0 * random_ndcg;
  report->Check(ndcg > floor, "NDCG@10 " + std::to_string(ndcg) +
                                  " not above 10x random " +
                                  std::to_string(floor));
  PERFBENCH_LOG("train: NDCG@10 %.4f (random %.5f, most-popular %.4f)", ndcg,
                random_ndcg, popular_ndcg);

  reads.Run(reads_done, &result, report);
  const double users_per_s = reads.UsersPerSecond();
  report->EndToEnd("ops_per_s", users_per_s, "1/s");
  report->EndToEnd("p50_ms", Quantile(reads.latency_ms, 0.50), "ms");
  PERFBENCH_LOG("train: eval %.0f users/s, RecommendTopK p50 %.4fms p90 "
                "%.4fms (fastest of %zu repetitions over %zu CPUs; over "
                "every repetition p50 %.4fms p90 %.4fms)",
                users_per_s, Quantile(reads.latency_ms, 0.50),
                Quantile(reads.latency_ms, 0.90), reads.reps(),
                reads.cpus.size(), Quantile(reads.every_ms, 0.50),
                Quantile(reads.every_ms, 0.90));
  report->EndToEnd("peak_rss_mb",
                   static_cast<double>(taxorec::PeakRssBytes()) / 1e6, "MB");

  // Per-layer figures. The counters and the heap tally are always on; the
  // replays and the span reads only run when traced.
  if (!opts.trace) return;
  report->Layer("data.generate_s", Median(generate_s), "s");
  report->Layer("core.begin_fit_s", Median(begin_s), "s");
  report->Layer("math.spmm_calls_per_epoch",
                static_cast<double>(spmm_calls) / epochs, "count");
  report->Layer("math.spmm_ms_per_epoch",
                armed_epochs > 0 ? spmm_ms / armed_epochs : 0.0, "ms");
  report->Layer("core.allocs_per_batch", Median(allocs_per_batch), "count");
  report->Layer("trace.overhead_pct",
                100.0 * (Median(armed_s) / Median(plain_s) - 1.0), "%");
  if (taxo != nullptr) {
    ReplayLayers(t, *taxo, report);
    taxorec::TaxonomyBuildConfig bcfg;
    bcfg.K = cfg.taxo_k;
    bcfg.delta = cfg.taxo_delta;
    bcfg.seed = cfg.seed + 1;
    const taxorec::CsrMatrix tag_items = t.split.item_tags.Transposed();
    const uint64_t km0 = CounterValue("taxorec.kmeans.calls");
    const auto build_s = TimeEach(kSetupReps, [&] {
      const taxorec::Taxonomy built = taxorec::BuildTaxonomy(
          *tags, t.split.item_tags, tag_items, bcfg);
      report->Check(CheckTaxonomy(built, t.split.num_tags).empty(),
                    "rebuilt taxonomy misplaces a tag");
    });
    report->Layer("taxonomy.build_ms", 1000.0 * Median(build_s), "ms");
    report->Layer("taxonomy.kmeans_calls",
                  static_cast<double>(CounterValue("taxorec.kmeans.calls") -
                                      km0) /
                      kSetupReps,
                  "count");
  }
  const auto& l = report->layers();
  double replayed = 0.0;
  for (const char* name : {"nn.gcn_forward_ms", "nn.gcn_backward_ms",
                           "nn.lorentz_maps_ms", "nn.tag_agg_ms",
                           "optim.rsgd_ms", "taxonomy.reg_ms"}) {
    if (l.contains(name)) replayed += l.at(name).first;
  }
  report->Layer("core.other_ms_per_batch",
                1000.0 * Median(plain_s) /
                        static_cast<double>(cfg.batches_per_epoch) -
                    replayed,
                "ms");

  // ScoreItems over every evaluated user, one pass per CPU; the fastest
  // pass's mean, like the timed read side, so the two figures subtract.
  const std::vector<int> cpus = AllowedCpus();
  double mean_score_us = 1e300;
  scores.resize(t.split.num_items);
  for (size_t rep = 0; rep < std::max(kMinReadReps, cpus.size()); ++rep) {
    const PinnedTo pin(cpus.empty() ? -1 : cpus[rep % cpus.size()]);
    const auto t0 = Clock::now();
    for (uint32_t u : eval_users) {
      t.model->ScoreItems(u, std::span<double>(scores));
    }
    mean_score_us = std::min(mean_score_us, 1e6 * SecondsSince(t0) /
                                                static_cast<double>(
                                                    eval_users.size()));
  }
  report->Layer("eval.score_us_per_user", mean_score_us, "us");
  report->Layer("eval.rank_us_per_user",
                1e6 / users_per_s - mean_score_us, "us");
}

}  // namespace perfbench
