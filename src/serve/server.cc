#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/heap_stats.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "serve/request_log.h"

namespace taxorec {
namespace {

struct ServeMetrics {
  Counter* requests;
  Counter* cache_hits;
  Counter* cache_bypass;
  Counter* computed;
  Counter* batches;
  Histogram* batch_seconds;
  Histogram* request_seconds;
  Counter* shed;
  Counter* shed_queue_full;
  Counter* shed_cost;
  Counter* shed_deadline;
  Counter* shed_draining;
  Counter* deadline_missed;
  Counter* degraded;
  Counter* tier_requests[3];  // indexed by tier rung (double/float32/int8)
  Counter* ivf_queries;
  Counter* ivf_cells_probed;
  Counter* ivf_cells_pruned;
  Counter* ivf_cells_skipped;
  Counter* ivf_items_scored;

  static ServeMetrics& Instance() {
    static ServeMetrics m{
        MetricsRegistry::Instance().GetCounter("taxorec.serve.requests"),
        MetricsRegistry::Instance().GetCounter("taxorec.serve.cache_hits"),
        MetricsRegistry::Instance().GetCounter("taxorec.serve.cache.bypass"),
        MetricsRegistry::Instance().GetCounter("taxorec.serve.computed"),
        MetricsRegistry::Instance().GetCounter("taxorec.serve.batches"),
        MetricsRegistry::Instance().GetHistogram(
            "taxorec.serve.batch_seconds",
            {1e-5, 1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0, 5.0, 30.0}),
        MetricsRegistry::Instance().GetHistogram(
            "taxorec.serve.request_seconds",
            {1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0, 5.0}),
        MetricsRegistry::Instance().GetCounter("taxorec.serve.shed"),
        MetricsRegistry::Instance().GetCounter(
            "taxorec.serve.shed.queue_full"),
        MetricsRegistry::Instance().GetCounter("taxorec.serve.shed.cost"),
        MetricsRegistry::Instance().GetCounter("taxorec.serve.shed.deadline"),
        MetricsRegistry::Instance().GetCounter("taxorec.serve.shed.draining"),
        MetricsRegistry::Instance().GetCounter(
            "taxorec.serve.deadline_missed"),
        MetricsRegistry::Instance().GetCounter("taxorec.serve.degraded"),
        {MetricsRegistry::Instance().GetCounter("taxorec.serve.tier.double"),
         MetricsRegistry::Instance().GetCounter("taxorec.serve.tier.float32"),
         MetricsRegistry::Instance().GetCounter("taxorec.serve.tier.int8")},
        MetricsRegistry::Instance().GetCounter("taxorec.serve.ivf.queries"),
        MetricsRegistry::Instance().GetCounter(
            "taxorec.serve.ivf.cells_probed"),
        MetricsRegistry::Instance().GetCounter(
            "taxorec.serve.ivf.cells_pruned"),
        MetricsRegistry::Instance().GetCounter(
            "taxorec.serve.ivf.cells_skipped"),
        MetricsRegistry::Instance().GetCounter(
            "taxorec.serve.ivf.items_scored"),
    };
    return m;
  }

  /// Flushes one worker's accumulated probe counters (thread-safe counter
  /// adds; called once per sub-batch, not per cell).
  void CountIvf(uint64_t queries, const IvfQueryStats& stats) {
    ivf_queries->Increment(queries);
    ivf_cells_probed->Increment(stats.cells_probed);
    ivf_cells_pruned->Increment(stats.cells_pruned);
    ivf_cells_skipped->Increment(stats.cells_skipped);
    ivf_items_scored->Increment(stats.items_scored);
  }

  void CountShed(ServeStatus status, uint64_t n = 1) {
    shed->Increment(n);
    switch (status) {
      case ServeStatus::kShedQueueFull:
        shed_queue_full->Increment(n);
        break;
      case ServeStatus::kShedCost:
        shed_cost->Increment(n);
        break;
      case ServeStatus::kShedDeadline:
        shed_deadline->Increment(n);
        break;
      case ServeStatus::kShedDraining:
        shed_draining->Increment(n);
        break;
      default:
        break;
    }
  }
};

/// Per-worker serving scratch: reused across every request a worker ranks.
struct WorkerScratch {
  std::vector<double> scores;
  std::vector<TopKHeap> heaps;
  std::vector<uint32_t> batch_users;
  std::vector<size_t> batch_ks;
  std::vector<size_t> batch_slots;  // miss indices the sub-batch fills
  std::vector<std::vector<TopKEntry>> batch_results;
  std::vector<uint64_t> batch_rerank_us;  // request observability only
  IvfScratch ivf;                         // IVF retrieval only
};

/// Admission verdicts map onto the shed statuses one-to-one.
ServeStatus StatusForVerdict(AdmitResult verdict) {
  switch (verdict) {
    case AdmitResult::kShedQueueFull:
      return ServeStatus::kShedQueueFull;
    case AdmitResult::kShedCost:
      return ServeStatus::kShedCost;
    case AdmitResult::kShedDraining:
      return ServeStatus::kShedDraining;
    case AdmitResult::kAdmitted:
      break;
  }
  return ServeStatus::kOk;
}

/// Minimal lifecycle record for a request shed before reaching a batch
/// (admission or draining): no phases ran, only identity and verdict.
RequestLog ShedLog(const ServeRequest& request, ServeStatus status) {
  RequestLog log;
  log.id = request.id;
  log.user = request.user;
  log.k = static_cast<uint32_t>(request.k);
  log.status = status;
  log.had_deadline = HasDeadline(request);
  log.submit_us = request.submit_us;
  return log;
}

int TierIndex(PrecisionTier tier) {
  switch (tier) {
    case PrecisionTier::kDouble:
      return 0;
    case PrecisionTier::kFloat32:
      return 1;
    case PrecisionTier::kInt8:
      return 2;
  }
  return 0;
}

PrecisionTier TierFromIndex(int index) {
  switch (index) {
    case 1:
      return PrecisionTier::kFloat32;
    case 2:
      return PrecisionTier::kInt8;
    default:
      return PrecisionTier::kDouble;
  }
}

}  // namespace

BatchServer::BatchServer(const Recommender& model, const DataSplit& split,
                         ServeOptions options)
    : BatchServer(FrozenModel::Freeze(model, split, options.precision), split,
                  std::move(options)) {}

BatchServer::BatchServer(FrozenModel model, const DataSplit& split,
                         ServeOptions options)
    : model_(std::move(model)), split_(&split), options_(std::move(options)) {
  TAXOREC_CHECK(model_.num_users() == split.num_users &&
                model_.num_items() == split.num_items);
  TAXOREC_CHECK(options_.item_block > 0);
  TAXOREC_CHECK(options_.user_batch > 0);
  TAXOREC_CHECK(options_.grain > 0);
  if (options_.cache_capacity > 0) {
    cache_ = std::make_unique<ResultCache>(options_.cache_capacity);
  }
  admission_ = std::make_unique<AdmissionController>(options_.admission);
  if (options_.admission.degrade) {
    if (!model_.native()) {
      TAXOREC_LOG(WARN)
          << "degradation ladder unavailable for kVirtual snapshots; "
             "serving the configured tier only";
    } else {
      // Build every rung below the configured tier up front, so the first
      // step-down never pays a snapshot re-encode on the serving path. A
      // rung whose compact build fails (serve-snapshot-load fault) falls
      // back to kDouble inside FrozenModel; the mismatched tier drops it
      // from the ladder and serving continues at the rungs that exist.
      for (int t = TierIndex(model_.tier()) + 1; t <= 2; ++t) {
        auto rung = std::make_unique<FrozenModel>(
            ScoringSnapshot(model_.snapshot()), TierFromIndex(t));
        if (TierIndex(rung->tier()) != t) {
          TAXOREC_LOG(WARN) << "degradation rung unavailable"
                            << Kv("tier", PrecisionTierName(TierFromIndex(t)));
          continue;
        }
        degraded_[t] = std::move(rung);
      }
    }
  }
  if (options_.retrieval == RetrievalMode::kIvf && model_.ivf() == nullptr) {
    // Built once at construction so the first request never pays the
    // quantizer; an index the model already holds is served as is. An
    // unsupported configuration (kVirtual kernel, double tier) downgrades
    // to exact with BuildIvf's warning — the oracle path is always
    // available.
    if (!model_.BuildIvf(options_.ivf)) {
      options_.retrieval = RetrievalMode::kExact;
    }
  }
}

std::span<const uint32_t> BatchServer::ExclusionsFor(uint32_t user) const {
  if (!options_.exclude_train) return {};
  return split_->train.RowCols(user);
}

const FrozenModel* BatchServer::ModelForSteps(int steps) const {
  const int base = TierIndex(model_.tier());
  int eff = std::min(2, base + std::max(0, steps));
  while (eff > base && degraded_[eff] == nullptr) --eff;
  return eff == base ? &model_ : degraded_[eff].get();
}

PrecisionTier BatchServer::effective_tier() const {
  return ModelForSteps(admission_->degrade_steps())->tier();
}

std::vector<TopKEntry> BatchServer::ServeOne(const ServeRequest& request) {
  return std::move(ServeBatch(std::span<const ServeRequest>(&request, 1))[0]);
}

std::vector<std::vector<TopKEntry>> BatchServer::ServeBatch(
    std::span<const ServeRequest> requests) {
  std::vector<ServeResult> served = ServeBatchEx(requests);
  std::vector<std::vector<TopKEntry>> lists(served.size());
  for (size_t i = 0; i < served.size(); ++i) {
    lists[i] = std::move(served[i].items);
  }
  return lists;
}

std::vector<ServeResult> BatchServer::ServeBatchEx(
    std::span<const ServeRequest> requests) {
  if (admission_->draining()) {
    ServeMetrics& metrics = ServeMetrics::Instance();
    const bool obs = RequestObservability::armed();
    std::vector<ServeResult> results(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      results[i].request = requests[i];
      results[i].status = ServeStatus::kShedDraining;
      if (obs) {
        RequestObservability& req_obs = RequestObservability::Instance();
        ServeRequest& req = results[i].request;
        if (req.id == 0) req.id = req_obs.NextId();
        req_obs.Record(ShedLog(req, ServeStatus::kShedDraining));
      }
    }
    metrics.CountShed(ServeStatus::kShedDraining, requests.size());
    return results;
  }
  return ServeInternal(requests);
}

AdmitResult BatchServer::Submit(const ServeRequest& request) {
  // Armed observability stamps identity at arrival so queue wait is
  // measured from here; the fields ride through the admission queue and
  // never influence scoring. Disarmed: one relaxed load, untouched
  // request.
  ServeRequest req = request;
  const bool obs = RequestObservability::armed();
  if (obs && req.id == 0) {
    req.id = RequestObservability::Instance().NextId();
    req.submit_us = internal::TraceNowMicros();
  }
  const AdmitResult verdict = admission_->Offer(req);
  ServeMetrics& metrics = ServeMetrics::Instance();
  if (verdict != AdmitResult::kAdmitted) {
    const ServeStatus status = StatusForVerdict(verdict);
    metrics.CountShed(status);
    if (obs) RequestObservability::Instance().Record(ShedLog(req, status));
  }
  return verdict;
}

std::vector<ServeResult> BatchServer::ServeQueued(size_t max_requests) {
  std::vector<ServeRequest> batch;
  batch.reserve(std::min(max_requests, admission_->queue_depth()));
  admission_->Take(max_requests, &batch);
  if (batch.empty()) return {};
  return ServeInternal(batch);
}

std::vector<ServeResult> BatchServer::Drain() {
  admission_->BeginDrain();
  std::vector<ServeResult> out;
  constexpr size_t kDrainBatch = 64;
  while (true) {
    std::vector<ServeResult> batch = ServeQueued(kDrainBatch);
    if (batch.empty()) break;
    for (ServeResult& r : batch) out.push_back(std::move(r));
  }
  if (cache_ != nullptr) cache_->Invalidate();
  if (!drained_logged_.exchange(true)) {
    ServeMetrics& metrics = ServeMetrics::Instance();
    TAXOREC_LOG(INFO) << "batch server drained"
                      << Kv("drained_requests", out.size())
                      << Kv("served_total", metrics.requests->value())
                      << Kv("shed_total", metrics.shed->value())
                      << Kv("cache_invalidated", cache_ != nullptr);
    // Graceful drain is a flight-recorder trigger: preserve the last
    // in-flight lifecycles as the shutdown black box.
    RequestObservability::Instance().TriggerDump("drain");
  }
  return out;
}

std::vector<ServeResult> BatchServer::ServeInternal(
    std::span<const ServeRequest> requests) {
  static const int kHeapTag = RegisterHeapSubsystem("serve");
  HeapScope heap_scope(kHeapTag);
  TraceSpan span("serve_batch");
  const auto start = std::chrono::steady_clock::now();
  ServeMetrics& metrics = ServeMetrics::Instance();
  const uint64_t version = exclusion_version();

  // Request observability (serve/request_log.h). Disarmed, this is the
  // batch's single relaxed load: no clocks, no allocations, no ids.
  // Armed, per-slot arrays collect phase timings; all writes land in
  // distinct slots (same discipline as `results`), so the fan-out stays
  // race-free and served lists stay bit-identical — the instrumentation
  // never touches scoring inputs.
  const bool obs = RequestObservability::armed();
  const uint64_t batch_start_us = obs ? internal::TraceNowMicros() : 0;
  std::vector<uint64_t> obs_score_start, obs_score_us, obs_rerank_us;
  std::vector<uint8_t> obs_hit, obs_fault;
  std::atomic<bool> obs_fault_fired{false};

  // The scoring tier is chosen once per batch from the ladder position —
  // never mid-batch, so one batch's lists come from one model. Degraded
  // batches bypass the result cache entirely: cached lists always reflect
  // the configured tier.
  const FrozenModel* active = ModelForSteps(admission_->degrade_steps());
  const bool degraded = active != &model_;
  const bool use_cache = cache_ != nullptr && !degraded;
  const bool cache_bypassed = cache_ != nullptr && degraded;
  // IVF serves only the configured-tier model: degradation rungs are
  // safety valves and stay exact (server.h header comment).
  const bool use_ivf = options_.retrieval == RetrievalMode::kIvf &&
                       !degraded && model_.ivf() != nullptr;

  std::vector<ServeResult> results(requests.size());
  bool any_deadline = false;
  for (size_t i = 0; i < requests.size(); ++i) {
    TAXOREC_CHECK(requests[i].user < model_.num_users());
    results[i].request = requests[i];
    results[i].tier = active->tier();
    any_deadline = any_deadline || HasDeadline(requests[i]);
  }
  if (obs) {
    RequestObservability& req_obs = RequestObservability::Instance();
    obs_score_start.resize(requests.size(), 0);
    obs_score_us.resize(requests.size(), 0);
    obs_rerank_us.resize(requests.size(), 0);
    obs_hit.assign(requests.size(), 0);
    obs_fault.assign(requests.size(), 0);
    for (size_t i = 0; i < requests.size(); ++i) {
      // Direct (unqueued) batches get their identity here; queued
      // requests were stamped at Submit and keep their arrival time.
      ServeRequest& req = results[i].request;
      if (req.id == 0) req.id = req_obs.NextId();
      if (req.submit_us == 0) req.submit_us = batch_start_us;
    }
  }

  // Phase 0: shed-before-score. A request whose budget is already spent
  // never reaches the cache or a kernel.
  if (any_deadline) {
    const auto now = ServeClock::now();
    for (size_t i = 0; i < requests.size(); ++i) {
      if (HasDeadline(requests[i]) && requests[i].deadline <= now) {
        results[i].status = ServeStatus::kShedDeadline;
        metrics.CountShed(ServeStatus::kShedDeadline);
      }
    }
  }

  // Phase 1: cache probes in request order on the caller thread.
  std::vector<size_t> misses;
  size_t hits = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (results[i].status != ServeStatus::kOk) continue;
    if (use_cache && cache_->Get(requests[i].user, requests[i].k, version,
                                 &results[i].items)) {
      ++hits;
      if (obs) obs_hit[i] = 1;
    } else {
      misses.push_back(i);
    }
  }

  // Phase 2: rank the misses across the pool. Each worker consumes whole
  // chunks of the miss list in user_batch-sized sub-batches; every result
  // lands in its own slot, so the fan-out is race-free and the lists are
  // bit-identical at any thread count. Before each sub-batch the worker
  // re-reads the clock (only when some request carries a deadline):
  // requests that died while earlier sub-batches ran are shed without
  // touching a kernel — the mid-batch deadline stop.
  ThreadLocalAccumulator<WorkerScratch> scratch;
  const auto exclude_of = [this](uint32_t user) {
    return ExclusionsFor(user);
  };
  ParallelForWorker(
      0, misses.size(), options_.grain,
      [&](size_t m0, size_t m1, int worker) {
        WorkerScratch& s = scratch.Local(worker);
        for (size_t b0 = m0; b0 < m1; b0 += options_.user_batch) {
          const size_t b1 = std::min(b0 + options_.user_batch, m1);
          s.batch_users.clear();
          s.batch_ks.clear();
          s.batch_slots.clear();
          const auto now =
              any_deadline ? ServeClock::now() : ServeClock::time_point{};
          for (size_t m = b0; m < b1; ++m) {
            const size_t slot = misses[m];
            const ServeRequest& req = requests[slot];
            if (any_deadline && HasDeadline(req) && req.deadline <= now) {
              results[slot].status = ServeStatus::kShedDeadline;
              metrics.CountShed(ServeStatus::kShedDeadline);
              continue;
            }
            s.batch_users.push_back(req.user);
            s.batch_ks.push_back(req.k);
            s.batch_slots.push_back(slot);
          }
          if (s.batch_users.empty()) continue;
          // Kernel time starts here so an injected stall is charged to the
          // requests it actually delayed.
          const uint64_t kernel_t0 = obs ? internal::TraceNowMicros() : 0;
          if (TAXOREC_FAULT(faults::kServeSlowKernel, -1)) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(faults::kServeSlowKernelStallMs));
            if (obs) {
              obs_fault_fired.store(true, std::memory_order_relaxed);
              for (const size_t slot : s.batch_slots) obs_fault[slot] = 1;
            }
          }
          if (use_ivf) {
            // IVF probe: one Query per request (the probe already touches
            // a small item subset, so there is no block to amortize across
            // users). Stats flush once per sub-batch.
            s.batch_results.resize(s.batch_users.size());
            s.batch_rerank_us.assign(s.batch_users.size(), 0);
            IvfQueryStats qstats;
            for (size_t j = 0; j < s.batch_users.size(); ++j) {
              model_.ivf()->Query(s.batch_users[j], s.batch_ks[j],
                                  options_.ivf.nprobe,
                                  exclude_of(s.batch_users[j]), &s.ivf,
                                  &s.batch_results[j], &qstats,
                                  obs ? &s.batch_rerank_us[j] : nullptr);
            }
            metrics.CountIvf(s.batch_users.size(), qstats);
          } else {
            BlockedTopKBatch(*active, s.batch_users, s.batch_ks, exclude_of,
                             &s.heaps, &s.scores, &s.batch_results,
                             options_.item_block,
                             obs ? &s.batch_rerank_us : nullptr);
          }
          if (obs) {
            // The kernel scores the sub-batch jointly; each request's
            // share is the even split (re-rank is per-user exact).
            const uint64_t kernel_us =
                internal::TraceNowMicros() - kernel_t0;
            const uint64_t share = kernel_us / s.batch_slots.size();
            for (size_t j = 0; j < s.batch_slots.size(); ++j) {
              const size_t slot = s.batch_slots[j];
              obs_score_start[slot] = kernel_t0;
              obs_score_us[slot] = share;
              obs_rerank_us[slot] = s.batch_rerank_us[j];
            }
          }
          for (size_t j = 0; j < s.batch_slots.size(); ++j) {
            results[s.batch_slots[j]].items = std::move(s.batch_results[j]);
          }
        }
      });
  const uint64_t score_end_us = obs ? internal::TraceNowMicros() : 0;

  // Late completions: the list is full quality, only tardy. Counted
  // separately from sheds — callers may still use it.
  size_t computed = 0;
  if (any_deadline) {
    const auto end = ServeClock::now();
    for (size_t i : misses) {
      if (results[i].status != ServeStatus::kOk) continue;
      ++computed;
      if (HasDeadline(requests[i]) && requests[i].deadline < end) {
        results[i].status = ServeStatus::kLate;
        metrics.deadline_missed->Increment();
      }
    }
  } else {
    computed = misses.size();
  }

  // Phase 3: cache fills in request order on the caller thread, so the
  // LRU state never depends on worker scheduling. Degraded batches skip
  // this — see above.
  if (use_cache) {
    for (size_t i : misses) {
      if (IsShed(results[i].status)) continue;
      cache_->Put(requests[i].user, requests[i].k, version, results[i].items);
    }
  }

  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  const size_t served = hits + computed;
  metrics.requests->Increment(served);
  metrics.cache_hits->Increment(hits);
  if (cache_bypassed) metrics.cache_bypass->Increment(computed);
  metrics.computed->Increment(computed);
  metrics.batches->Increment();
  metrics.batch_seconds->Observe(secs);
  metrics.tier_requests[TierIndex(active->tier())]->Increment(computed);
  if (degraded) metrics.degraded->Increment(computed);
  if (served > 0) {
    const double per_request = secs / static_cast<double>(served);
    for (size_t i = 0; i < served; ++i) {
      metrics.request_seconds->Observe(per_request);
    }
  }
  // Feed the pressure signal: outstanding depth is what is still queued
  // plus the batch that just ran.
  admission_->ObserveBatch(secs, requests.size(),
                           admission_->queue_depth() + requests.size());

  // Lifecycle records: one per request, assembled on the caller thread
  // once the batch's outcome is final. Recorded before any fault-triggered
  // dump so the dump always contains the offending request.
  if (obs) {
    RequestObservability& req_obs = RequestObservability::Instance();
    const uint64_t done_us = internal::TraceNowMicros();
    const auto done = ServeClock::now();
    for (size_t i = 0; i < requests.size(); ++i) {
      const ServeRequest& req = results[i].request;
      RequestLog log;
      log.id = req.id;
      log.user = req.user;
      log.k = static_cast<uint32_t>(req.k);
      log.status = results[i].status;
      log.tier = results[i].tier;
      log.cache_hit = obs_hit[i] != 0;
      log.cache_bypass = cache_bypassed && !IsShed(results[i].status);
      log.fault = obs_fault[i] != 0;
      log.had_deadline = HasDeadline(req);
      if (log.had_deadline) {
        log.deadline_slack_ms =
            std::chrono::duration<double, std::milli>(req.deadline - done)
                .count();
      }
      log.submit_us = req.submit_us;
      log.queue_us =
          batch_start_us > req.submit_us ? batch_start_us - req.submit_us : 0;
      log.score_start_us = obs_score_start[i];
      log.score_us = obs_score_us[i];
      log.rerank_us = obs_rerank_us[i];
      if (!IsShed(results[i].status) && obs_hit[i] == 0) {
        log.emit_us = done_us - score_end_us;
      }
      log.total_us = done_us - req.submit_us;
      req_obs.Record(log);
    }
    // A serve fault firing mid-batch is a flight-recorder trigger: dump
    // the black box while the incident is still in the ring.
    if (obs_fault_fired.load(std::memory_order_relaxed)) {
      req_obs.TriggerDump("serve_fault");
    }
  }
  return results;
}

}  // namespace taxorec
