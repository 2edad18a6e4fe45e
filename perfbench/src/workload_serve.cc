// Workloads `serve-exact` and `serve-ivf`: the synthetic two-channel
// Lorentz catalogue (catalogue.h) frozen at the float32 tier and served
// through BatchServer at its default options apart from the cache and the
// retrieval mode.
//
//   serve-exact: exact retrieval with the LRU result cache on, four
//     threads; request users drawn in proportion to their activity in the
//     traffic profile. An open loop at one fixed absolute arrival rate
//     (Submit at each request's due time, ServeQueued in batches) runs on
//     the cold cache, then a closed loop of fixed-size batches.
//   serve-ivf: IVF retrieval (default IvfOptions, fixed nprobe), no cache;
//     uniform users, none repeated within a pass over the population, each
//     request served alone once per allowed CPU.
//
// End-to-end metrics: setup_s (exclusion split + float32 freeze; the
// catalogue synthesis is untimed input generation), build_s (the freeze on
// serve-exact, BuildIvf on serve-ivf), ops_per_s, p50_ms (the open-loop
// tail is logged, not reported; see perfbench/README.md),
// quality_at_10 (recall@10 of served lists against the double-precision
// brute-force reference), model_mb (FrozenModel::snapshot_bytes plus the
// IVF compact copy), peak_rss_mb.
#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"
#include "catalogue.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/profiler.h"
#include "math/rng.h"
#include "reference.h"
#include "serve/frozen_model.h"
#include "serve/ivf_index.h"
#include "serve/server.h"
#include "serve/topk.h"
#include "taxonomy/poincare_kmeans.h"
#include "hyperbolic/maps.h"
#include "hyperbolic/poincare.h"

namespace perfbench {

namespace {

using taxorec::BatchServer;
using taxorec::FrozenModel;
using taxorec::ServeRequest;
using taxorec::ServeResult;
using taxorec::TopKEntry;

constexpr int kThreads = 4;
constexpr size_t kTopK = 10;
constexpr size_t kBatch = 128;
constexpr int kSetupReps = 9;
// Served lists checked against the brute-force reference, per phase.
constexpr size_t kCheckedPerPhase = 48;
// |float32 score - double reference| allowed per served entry. The float32
// kernel's error grows with the Lorentz time coordinates; at this
// catalogue's magnitudes it stays below 2e-4 (see perfbench/README.md).
constexpr double kScoreTol = 2e-3;

// serve-exact. Request counts depend only on --seconds, never on how fast
// the machine runs: per second of run length the open loop serves
// kOpenPerSecond requests arriving at kOpenRate requests/s (1.5 s of
// arrivals), the closed loop kClosedPerSecond requests.
constexpr double kOpenRate = 40.0;
constexpr double kOpenPerSecond = 60.0;
constexpr double kClosedPerSecond = 400.0;
constexpr double kExactRecallFloor = 0.99;

// serve-ivf: single requests per second of run length (a 10 s run passes
// over the 2,400 users once), each served kRepsPerCpu times on every CPU.
constexpr size_t kNprobe = 32;
constexpr double kSinglesPerSecond = 240.0;
constexpr size_t kRepsPerCpu = 2;
constexpr double kIvfRecallFloor = 0.5;

/// The server's input: the exclusion split and the float32 model, with the
/// set-up times of kSetupReps repetitions.
struct Served {
  taxorec::DataSplit split;
  std::unique_ptr<FrozenModel> frozen;
  std::vector<double> setup_s;   // exclusion split + freeze
  std::vector<double> freeze_s;  // freeze alone
};

/// Synthesizes the catalogue (untimed) and times what the library does
/// with it before the first request: the exclusion CSR and the float32
/// freeze. Each repetition starts from a freshly synthesized catalogue.
Served SetUp(const RunOptions& opts, const TrafficProfile& profile) {
  CatalogueConfig cc;
  cc.seed = opts.seed;
  Served s;
  for (int r = 0; r < kSetupReps; ++r) {
    s.frozen.reset();
    Catalogue cat = MakeCatalogue(cc, profile);
    const auto t0 = Clock::now();
    s.split = TakeExclusionSplit(&cat);
    const auto t1 = Clock::now();
    s.frozen = std::make_unique<FrozenModel>(
        std::move(cat.snapshot), taxorec::PrecisionTier::kFloat32);
    s.freeze_s.push_back(SecondsSince(t1));
    s.setup_s.push_back(SecondsSince(t0));
  }
  return s;
}

/// `n` users drawn in proportion to their interaction counts.
std::vector<uint32_t> ActivityUsers(const TrafficProfile& profile, size_t n,
                                    taxorec::Rng* rng) {
  std::vector<double> cdf(profile.interactions.size());
  std::partial_sum(profile.interactions.begin(), profile.interactions.end(),
                   cdf.begin());
  std::vector<uint32_t> users(n);
  for (auto& u : users) {
    const double x = rng->NextDouble() * cdf.back();
    const size_t i = static_cast<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), x) - cdf.begin());
    u = static_cast<uint32_t>(std::min(i, cdf.size() - 1));
  }
  return users;
}

/// `n` users in passes over a shuffled population: no user repeats within
/// a pass.
std::vector<uint32_t> UniformUsers(size_t population, size_t n,
                                   taxorec::Rng* rng) {
  std::vector<uint32_t> perm(population);
  std::iota(perm.begin(), perm.end(), 0u);
  rng->Shuffle(perm.begin(), perm.end());
  std::vector<uint32_t> users(n);
  for (size_t i = 0; i < n; ++i) users[i] = perm[i % population];
  return users;
}

/// A served list kept for checking after the timed phase.
struct Sample {
  uint32_t user = 0;
  std::vector<TopKEntry> list;
};

/// Counts a served result that was shed, late or empty as failed; returns
/// true for a full answer.
bool CountOutcome(const ServeResult& r, const char* phase, Report* report) {
  const std::string p(phase);
  if (taxorec::IsShed(r.status)) {
    report->Count("shed", 1);
    report->Fail(p + " request shed");
  } else if (r.status == taxorec::ServeStatus::kLate) {
    report->Count("late", 1);
    report->Fail(p + " request late");
  } else if (r.items.empty()) {
    report->Count("empty", 1);
    report->Fail(p + " request answered with an empty list");
  } else {
    return true;
  }
  return false;
}

/// Checks served lists against the double-precision brute-force reference:
/// the exact path must pass every CheckServedList property; the IVF path
/// must hold no excluded item and exact scores for what it lists. Returns
/// the mean recall@10 against the reference top-10.
double CheckSamples(const std::vector<Sample>& samples,
                    const taxorec::ScoringSnapshot& snap,
                    const taxorec::DataSplit& split, bool approximate,
                    const char* phase, Report* report) {
  std::vector<std::string> why(samples.size());
  std::vector<double> recall(samples.size(), 0.0);
  taxorec::ParallelForWorker(
      0, samples.size(), 1, [&](size_t i0, size_t i1, int) {
        std::vector<double> ref_scores;
        for (size_t i = i0; i < i1; ++i) {
          const Sample& s = samples[i];
          const auto exclude = split.train.RowCols(s.user);
          ref::Eq17Row(snap, s.user, &ref_scores);
          std::vector<uint32_t> items;
          std::vector<double> scores;
          for (const TopKEntry& e : s.list) {
            items.push_back(e.item);
            scores.push_back(e.score);
          }
          std::vector<uint32_t> want;
          for (const ref::Ranked& r : ref::TopK(ref_scores, kTopK, exclude)) {
            want.push_back(r.item);
          }
          recall[i] = ref::Overlap(want, items);
          if (!approximate) {
            why[i] = ref::CheckServedList(items, scores, kTopK, ref_scores,
                                          exclude, kScoreTol);
            continue;
          }
          for (size_t j = 0; j < items.size() && why[i].empty(); ++j) {
            if (std::find(exclude.begin(), exclude.end(), items[j]) !=
                exclude.end()) {
              why[i] = "served an excluded item";
            } else if (!(std::fabs(scores[j] - ref_scores[items[j]]) <=
                         kScoreTol)) {
              why[i] = "served score differs from the reference";
            }
          }
          if (items.size() != kTopK) why[i] = "short list";
        }
      });
  for (size_t i = 0; i < samples.size(); ++i) {
    report->Check(why[i].empty(), std::string(phase) + " user " +
                                      std::to_string(samples[i].user) + ": " +
                                      why[i]);
  }
  return std::accumulate(recall.begin(), recall.end(), 0.0) /
         static_cast<double>(samples.size());
}

void ReportPeakRss(Report* report) {
  report->EndToEnd("peak_rss_mb",
                   static_cast<double>(taxorec::PeakRssBytes()) / 1e6, "MB");
}

struct ClosedLoop {
  std::vector<double> batch_ms;
  std::vector<double> batch_rate;
  std::vector<double> armed_ms, plain_ms;
};

/// Fixed-size batches back to back; throughput is the median batch's
/// requests per second, so a burst of machine noise moves one sample, not
/// the figure. In a traced run the profiler is armed on odd batches only,
/// so the run measures its own tracing overhead.
ClosedLoop RunClosed(BatchServer* server, const std::vector<uint32_t>& users,
                     bool trace, std::vector<Sample>* samples,
                     Report* report) {
  ClosedLoop out;
  const size_t every = std::max<size_t>(1, users.size() / kCheckedPerPhase);
  std::vector<ServeRequest> batch;
  for (size_t b0 = 0, b = 0; b0 < users.size(); b0 += kBatch, ++b) {
    const size_t b1 = std::min(b0 + kBatch, users.size());
    batch.clear();
    for (size_t i = b0; i < b1; ++i) batch.push_back({users[i], kTopK});
    const bool armed = trace && b % 2 == 1;
    if (armed) taxorec::StartProfiling();
    const auto bt0 = Clock::now();
    std::vector<ServeResult> results = server->ServeBatchEx(batch);
    const double ms = Ms(Clock::now() - bt0);
    if (armed) taxorec::StopProfiling();
    out.batch_ms.push_back(ms);
    out.batch_rate.push_back(1e3 * static_cast<double>(batch.size()) / ms);
    (armed ? out.armed_ms : out.plain_ms).push_back(ms);
    report->Attempt(batch.size());
    report->Count("closed_requests", batch.size());
    for (size_t i = 0; i < results.size(); ++i) {
      if (CountOutcome(results[i], "closed-loop", report) &&
          (b0 + i) % every == 0) {
        samples->push_back({batch[i].user, results[i].items});
      }
    }
  }
  return out;
}

struct OpenLoop {
  std::vector<double> latency_ms;
  std::vector<double> queue_wait_ms;
  double max_generator_lag_ms = 0.0;
};

/// Requests arrive at `rate` per second regardless of completions; each
/// is submitted at (or, when this thread is busy serving, after) its due
/// time and latency runs from the due time to the end of the ServeQueued
/// call that answered it.
OpenLoop RunOpen(BatchServer* server, const std::vector<uint32_t>& users,
                 double rate, std::vector<Sample>* samples, Report* report) {
  OpenLoop out;
  const size_t n = users.size();
  const size_t every = std::max<size_t>(1, n / kCheckedPerPhase);
  out.latency_ms.reserve(n);
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  const auto due_of = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(i) / rate));
  };
  std::vector<size_t> queued;  // stream indices, FIFO like the server
  size_t next = 0, head = 0;
  while (head < n) {
    const auto now = Clock::now();
    while (next < n && due_of(next) <= now) {
      out.max_generator_lag_ms =
          std::max(out.max_generator_lag_ms, Ms(now - due_of(next)));
      report->Attempt();
      report->Count("open_requests", 1);
      if (server->Submit({users[next], kTopK}) !=
          taxorec::AdmitResult::kAdmitted) {
        report->Count("shed", 1);
        report->Fail("open-loop request shed at admission");
      } else {
        queued.push_back(next);
      }
      ++next;
    }
    if (head == queued.size()) {
      if (next >= n) break;
      std::this_thread::sleep_until(due_of(next));
      continue;
    }
    const auto pickup = Clock::now();
    std::vector<ServeResult> results = server->ServeQueued(kBatch);
    const auto done = Clock::now();
    for (const ServeResult& r : results) {
      const size_t idx = queued[head++];
      out.latency_ms.push_back(Ms(done - due_of(idx)));
      out.queue_wait_ms.push_back(Ms(pickup - due_of(idx)));
      if (!CountOutcome(r, "open-loop", report)) continue;
      if (r.request.user != users[idx]) {
        report->Fail("open-loop result out of order");
      } else if (idx % every == 0) {
        samples->push_back({r.request.user, r.items});
      }
    }
  }
  return out;
}

struct PinnedSingles {
  std::vector<double> best_ms;  // per request, fastest repetition
  std::vector<double> armed_ms, plain_ms;
};

/// Serves each request alone (a one-request ServeBatchEx) on one thread,
/// kRepsPerCpu times per allowed CPU with the thread pinned to it (the
/// CPUs taken in turn), and keeps each
/// request's fastest repetition: sub-millisecond requests are otherwise
/// timed mostly by which CPU the run landed on and what other tenants run
/// on its hyperthread sibling. In a traced run the profiler is armed on
/// odd repetitions only.
PinnedSingles RunPinnedSingles(BatchServer* server,
                               const std::vector<uint32_t>& users,
                               bool trace, std::vector<Sample>* samples,
                               Report* report) {
  PinnedSingles out;
  out.best_ms.assign(users.size(), 1e300);
  const size_t every = std::max<size_t>(1, users.size() / kCheckedPerPhase);
  const std::vector<int> cpus = AllowedCpus();
  std::vector<ServeRequest> one(1);
  const size_t reps = kRepsPerCpu * std::max<size_t>(2, cpus.size());
  for (size_t rep = 0; rep < reps; ++rep) {
    const PinnedTo pin(cpus.empty() ? -1 : cpus[rep % cpus.size()]);
    const bool armed = trace && rep % 2 == 1;
    if (armed) taxorec::StartProfiling();
    for (size_t i = 0; i < users.size(); ++i) {
      one[0] = {users[i], kTopK};
      const auto t0 = Clock::now();
      std::vector<ServeResult> results = server->ServeBatchEx(one);
      const double ms = Ms(Clock::now() - t0);
      out.best_ms[i] = std::min(out.best_ms[i], ms);
      (armed ? out.armed_ms : out.plain_ms).push_back(ms);
      report->Attempt();
      report->Count("requests", 1);
      if (CountOutcome(results[0], "ivf", report) && rep == 0 &&
          i % every == 0) {
        samples->push_back({users[i], results[0].items});
      }
    }
    if (armed) taxorec::StopProfiling();
  }
  return out;
}

/// Checks the sampled lists, reports recall@10 as quality_at_10 and fails
/// the run when it falls below `floor`.
void CheckQuality(const std::vector<std::vector<Sample>>& phases,
                  const std::vector<const char*>& names,
                  const taxorec::ScoringSnapshot& snap,
                  const taxorec::DataSplit& split, bool approximate,
                  double floor, Report* report) {
  double recall = 0.0;
  for (size_t p = 0; p < phases.size(); ++p) {
    recall += CheckSamples(phases[p], snap, split, approximate, names[p],
                           report);
  }
  recall /= static_cast<double>(phases.size());
  report->EndToEnd("quality_at_10", recall, "ratio");
  report->Check(recall >= floor, "recall@10 " + std::to_string(recall) +
                                     " below the floor " +
                                     std::to_string(floor));
}

}  // namespace

void RunServeExact(const RunOptions& opts, Report* report) {
  taxorec::SetNumThreads(kThreads);
  const TrafficProfile profile = MakeTrafficProfile(opts.seed);
  Served in = SetUp(opts, profile);
  report->EndToEnd("setup_s", Median(in.setup_s), "s");
  report->EndToEnd("build_s", Median(in.freeze_s), "s");
  report->EndToEnd("model_mb",
                   static_cast<double>(in.frozen->snapshot_bytes()) / 1e6,
                   "MB");

  taxorec::ServeOptions sopts;
  // Half the population, as bench_serve's cached replay sizes its cache.
  sopts.cache_capacity = profile.num_users() / 2 + 1;
  sopts.precision = taxorec::PrecisionTier::kFloat32;
  BatchServer server(std::move(*in.frozen), in.split, sopts);
  in.frozen.reset();
  const FrozenModel& model = server.model();
  const taxorec::ScoringSnapshot& snap = model.snapshot();
  PERFBENCH_LOG("serve-exact: %zu items, %zu users, cache %zu; setup %.3fs, "
                "freeze %.3fs",
                snap.num_items, snap.num_users, sopts.cache_capacity,
                Median(in.setup_s), Median(in.freeze_s));

  const size_t n_open =
      static_cast<size_t>(std::lround(kOpenPerSecond * opts.seconds));
  const size_t n_closed =
      static_cast<size_t>(std::lround(kClosedPerSecond * opts.seconds));
  taxorec::Rng rng(opts.seed * 1000003 + 1);
  const std::vector<uint32_t> all_users =
      ActivityUsers(profile, n_open + n_closed, &rng);
  const std::vector<uint32_t> open_users(all_users.begin(),
                                         all_users.begin() + n_open);
  const std::vector<uint32_t> closed_users(all_users.begin() + n_open,
                                           all_users.end());

  // Open loop on the cold cache, then the closed loop.
  std::vector<Sample> open_samples, closed_samples;
  const uint64_t hits0 = server.cache()->hits();
  const OpenLoop open =
      RunOpen(&server, open_users, kOpenRate, &open_samples, report);
  const uint64_t hits1 = server.cache()->hits();
  taxorec::Histogram* imbalance =
      taxorec::MetricsRegistry::Instance().GetHistogram(
          "taxorec.pool.imbalance", {1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0});
  imbalance->Reset();
  const ClosedLoop closed =
      RunClosed(&server, closed_users, opts.trace, &closed_samples, report);
  const double open_hits =
      static_cast<double>(hits1 - hits0) / static_cast<double>(n_open);
  const double hit_ratio = static_cast<double>(server.cache()->hits() - hits1) /
                           static_cast<double>(n_closed);
  const double pool_imbalance = imbalance->Percentile(0.5);
  const double qps = Median(closed.batch_rate);
  report->EndToEnd("ops_per_s", qps, "1/s");
  report->EndToEnd("p50_ms", Quantile(open.latency_ms, 0.50), "ms");
  PERFBENCH_LOG("open: %zu requests at %.0f/s, cache hits %.3f, p50 %.3fms "
                "p90 %.3fms p99 %.3fms, generator lag max %.3fms; closed: "
                "%zu requests, %.1f req/s, cache hits %.3f",
                n_open, kOpenRate, open_hits, Quantile(open.latency_ms, 0.50),
                Quantile(open.latency_ms, 0.90),
                Quantile(open.latency_ms, 0.99), open.max_generator_lag_ms,
                n_closed, qps, hit_ratio);

  // Correctness against the brute-force reference (untimed).
  CheckQuality({open_samples, closed_samples}, {"open-loop", "closed-loop"},
               snap, in.split, /*approximate=*/false, kExactRecallFloor,
               report);
  ReportPeakRss(report);

  if (!opts.trace) return;
  report->Layer("trace.overhead_pct",
                100.0 * (Median(closed.armed_ms) / Median(closed.plain_ms) -
                         1.0),
                "%");
  report->Layer("serve.freeze_s", Median(in.freeze_s), "s");
  report->Layer("serve.batch_ms", Median(closed.batch_ms), "ms");
  report->Layer("common.pool_imbalance", pool_imbalance, "ratio");
  report->Layer("serve.queue_wait_ms", Median(open.queue_wait_ms), "ms");
  report->Layer("serve.cache_hit_ratio", hit_ratio, "ratio");
  // The server's scoring kernel at its block and user-batch sizes.
  const size_t ub = sopts.user_batch, block = sopts.item_block;
  std::vector<double> out(ub * block);
  const auto sweep = TimeEach(3, [&] {
    for (size_t b = 0; b < model.num_items(); b += block) {
      const size_t e = std::min(b + block, model.num_items());
      model.ScoreBlockBatch(std::span<const uint32_t>(open_users.data(), ub),
                            b, e, std::span<double>(out.data(), ub * (e - b)));
    }
  });
  report->Layer("serve.score_items_per_s",
                static_cast<double>(ub * model.num_items()) / Median(sweep),
                "1/s");
  taxorec::TopKHeap heap;
  std::vector<double> scratch;
  std::vector<TopKEntry> list;
  std::vector<double> topk_us;
  for (uint32_t u : open_users) {
    const auto t0 = Clock::now();
    taxorec::BlockedTopK(model, u, kTopK, in.split.train.RowCols(u), &heap,
                         &scratch, &list);
    topk_us.push_back(1e3 * Ms(Clock::now() - t0));
  }
  report->Layer("serve.topk_us", Median(topk_us), "us");
}

void RunServeIvf(const RunOptions& opts, Report* report) {
  taxorec::SetNumThreads(kThreads);
  const TrafficProfile profile = MakeTrafficProfile(opts.seed);
  Served in = SetUp(opts, profile);
  report->EndToEnd("setup_s", Median(in.setup_s), "s");
  const double snapshot_bytes =
      static_cast<double>(in.frozen->snapshot_bytes());

  taxorec::ServeOptions sopts;
  sopts.precision = taxorec::PrecisionTier::kFloat32;
  sopts.retrieval = taxorec::RetrievalMode::kIvf;
  sopts.ivf.nprobe = kNprobe;
  // BatchServer builds the IVF index in its constructor.
  const auto server_t0 = Clock::now();
  BatchServer server(std::move(*in.frozen), in.split, sopts);
  const double build_s = SecondsSince(server_t0);
  in.frozen.reset();
  const taxorec::ScoringSnapshot& snap = server.model().snapshot();
  const taxorec::IvfIndex* ivf = server.model().ivf();
  if (!report->Check(ivf != nullptr, "BatchServer built no IVF index")) {
    return;
  }
  report->EndToEnd("build_s", build_s, "s");
  report->EndToEnd(
      "model_mb",
      (snapshot_bytes + static_cast<double>(ivf->compact().float32_bytes())) /
          1e6,
      "MB");
  size_t largest = 0;
  for (size_t c = 0; c < ivf->num_cells(); ++c) {
    largest = std::max(largest, ivf->cell_items(c).size());
  }
  PERFBENCH_LOG("serve-ivf: %zu items, %zu users; setup %.3fs; %zu cells "
                "(largest %zu items), build %.3fs",
                snap.num_items, snap.num_users, Median(in.setup_s),
                ivf->num_cells(), largest, build_s);

  // One thread per request, repeated on every CPU (RunPinnedSingles).
  taxorec::SetNumThreads(1);
  const size_t n =
      static_cast<size_t>(std::lround(kSinglesPerSecond * opts.seconds));
  taxorec::Rng rng(opts.seed * 1000003 + 2);
  const std::vector<uint32_t> users = UniformUsers(snap.num_users, n, &rng);
  std::vector<Sample> samples;
  const PinnedSingles singles =
      RunPinnedSingles(&server, users, opts.trace, &samples, report);
  double total_ms = 0.0;
  for (double ms : singles.best_ms) total_ms += ms;
  report->EndToEnd("ops_per_s", 1e3 * static_cast<double>(n) / total_ms,
                   "1/s");
  report->EndToEnd("p50_ms", Quantile(singles.best_ms, 0.50), "ms");
  PERFBENCH_LOG("serve-ivf: %zu requests x %zu CPUs, best p50 %.4fms p90 "
                "%.4fms p99 %.4fms; over the disarmed repetitions p50 "
                "%.4fms p90 %.4fms",
                n, AllowedCpus().size(), Quantile(singles.best_ms, 0.5),
                Quantile(singles.best_ms, 0.9),
                Quantile(singles.best_ms, 0.99),
                Quantile(singles.plain_ms, 0.5),
                Quantile(singles.plain_ms, 0.9));

  // Correctness against the brute-force reference (untimed).
  CheckQuality({samples}, {"ivf"}, snap, in.split, /*approximate=*/true,
               kIvfRecallFloor, report);
  // Probing every cell must reproduce the exact path's lists.
  taxorec::IvfScratch scratch;
  taxorec::TopKHeap heap;
  std::vector<double> block;
  std::vector<TopKEntry> full, exact;
  for (size_t i = 0; i < 16; ++i) {
    const uint32_t u = users[i * users.size() / 16];
    const auto exclude = in.split.train.RowCols(u);
    ivf->Query(u, kTopK, ivf->num_cells(), exclude, &scratch, &full);
    taxorec::BlockedTopK(server.model(), u, kTopK, exclude, &heap, &block,
                         &exact);
    report->Attempt();
    report->Count("full_probe_checks", 1);
    report->Check(full == exact, "nprobe = cells differs from the exact "
                                 "path for user " + std::to_string(u));
  }
  ReportPeakRss(report);

  if (!opts.trace) return;
  report->Layer("trace.overhead_pct",
                100.0 * (Median(singles.armed_ms) / Median(singles.plain_ms) -
                         1.0),
                "%");
  // The quantizer as Build runs it (stride sample, cells, iterations,
  // threads) on the catalogue's ball points, and the query stages.
  taxorec::SetNumThreads(kThreads);
  const taxorec::IvfOptions& iopts = sopts.ivf;
  const size_t num_items = snap.num_items;
  taxorec::Matrix ball(num_items, snap.items.cols() - 1);
  for (size_t i = 0; i < num_items; ++i) {
    taxorec::hyper::LorentzToPoincare(snap.items.row(i), ball.row(i));
    taxorec::poincare::ProjectToBall(ball.row(i));
  }
  std::vector<uint32_t> sample;
  const size_t step = num_items > iopts.max_train_points
                          ? (num_items + iopts.max_train_points - 1) /
                                iopts.max_train_points
                          : 1;
  for (size_t i = 0; i < num_items; i += step) {
    sample.push_back(static_cast<uint32_t>(i));
  }
  taxorec::KMeansOptions kopts;
  kopts.max_iters = iopts.kmeans_iters;
  taxorec::Rng krng(iopts.seed);
  const auto k0 = Clock::now();
  const taxorec::KMeansResult km = taxorec::PoincareKMeans(
      ball, sample, static_cast<int>(ivf->num_cells()), &krng, kopts);
  const double kmeans_s = SecondsSince(k0);
  report->Check(km.assignment.size() == sample.size(),
                "k-means assignment size differs from its sample");
  report->Layer("taxonomy.kmeans_s", kmeans_s, "s");
  report->Layer("serve.ivf_rest_s", build_s - kmeans_s, "s");

  std::vector<double> bounds;
  std::vector<TopKEntry> list;
  std::vector<double> bounds_us, query_us;
  taxorec::IvfQueryStats stats;
  const size_t q = std::min<size_t>(256, users.size());
  for (size_t i = 0; i < q; ++i) {
    const uint32_t u = users[i];
    auto t0 = Clock::now();
    ivf->CellScoreBounds(u, &bounds);
    bounds_us.push_back(1e3 * Ms(Clock::now() - t0));
    t0 = Clock::now();
    ivf->Query(u, kTopK, iopts.nprobe, in.split.train.RowCols(u), &scratch,
               &list, &stats);
    query_us.push_back(1e3 * Ms(Clock::now() - t0));
  }
  const double qd = static_cast<double>(q);
  report->Layer("serve.ivf_bounds_us", Median(bounds_us), "us");
  report->Layer("serve.ivf_query_us", Median(query_us), "us");
  report->Layer("serve.ivf_cells_probed",
                static_cast<double>(stats.cells_probed) / qd, "count");
  report->Layer("serve.ivf_cells_pruned",
                static_cast<double>(stats.cells_pruned) / qd, "count");
  report->Layer("serve.ivf_items_scored",
                static_cast<double>(stats.items_scored) / qd, "count");
}

}  // namespace perfbench
