// perfbench: the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload train|serve-exact|serve-ivf --seed N --seconds S
//             --trace 0|1
//   perfbench --self-test        hand-made cases for the reference checkers
//   perfbench --reference SEED   untimed reference figures for the README
//
// A run prints progress to stderr and, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}: with
// --trace 0 every end-to-end metric, with --trace 1 every per-layer metric
// (0 for a layer the workload does not exercise). The exit code is 0 only
// when every check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every workload reports (BENCHMARK.json).
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},  {"build_s", "s"},         {"ops_per_s", "1/s"},
    {"p50_ms", "ms"},  {"quality_at_10", "ratio"}, {"model_mb", "MB"},
    {"peak_rss_mb", "MB"},
};

// The per-layer metrics of the traced run (BENCHMARK.json).
const MetricSpec kPerLayer[] = {
    {"data.generate_s", "s"},
    {"core.begin_fit_s", "s"},
    {"math.spmm_calls_per_epoch", "count"},
    {"math.spmm_ms_per_epoch", "ms"},
    {"nn.gcn_forward_ms", "ms"},
    {"nn.gcn_backward_ms", "ms"},
    {"nn.lorentz_maps_ms", "ms"},
    {"nn.tag_agg_ms", "ms"},
    {"optim.rsgd_ms", "ms"},
    {"taxonomy.reg_ms", "ms"},
    {"taxonomy.build_ms", "ms"},
    {"taxonomy.kmeans_calls", "count"},
    {"core.other_ms_per_batch", "ms"},
    {"core.allocs_per_batch", "count"},
    {"eval.score_us_per_user", "us"},
    {"eval.rank_us_per_user", "us"},
    {"serve.freeze_s", "s"},
    {"serve.score_items_per_s", "1/s"},
    {"serve.topk_us", "us"},
    {"serve.batch_ms", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.queue_wait_ms", "ms"},
    {"common.pool_imbalance", "ratio"},
    {"taxonomy.kmeans_s", "s"},
    {"serve.ivf_rest_s", "s"},
    {"serve.ivf_bounds_us", "us"},
    {"serve.ivf_query_us", "us"},
    {"serve.ivf_cells_probed", "count"},
    {"serve.ivf_cells_pruned", "count"},
    {"serve.ivf_items_scored", "count"},
    {"trace.overhead_pct", "%"},
};

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload train|serve-exact|serve-ivf "
               "--seed N --seconds S --trace 0|1\n"
               "       perfbench --self-test\n"
               "       perfbench --reference SEED\n");
}

/// Prints the result line; returns false (after logging) when a metric the
/// run must report is missing or not finite.
bool PrintResult(const Report& report, bool trace) {
  const auto& have = trace ? report.layers() : report.e2e();
  std::string json = "{\"correct\": ";
  json += report.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted());
  json += ", \"failed\": " + std::to_string(report.failed());
  json += ", \"metrics\": {";
  bool ok = true;
  bool first = true;
  auto emit = [&](const MetricSpec& spec, double value) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  first ? "" : ", ", spec.name, value, spec.unit);
    json += buf;
    first = false;
  };
  if (trace) {
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = have.find(spec.name);
      // A layer the workload does not exercise does no work: 0.
      emit(spec, it == have.end() ? 0.0 : it->second.first);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      const auto it = have.find(spec.name);
      if (it == have.end() || !std::isfinite(it->second.first) ||
          it->second.first <= 0.0) {
        PERFBENCH_LOG("end-to-end metric %s missing or not positive",
                      spec.name);
        ok = false;
        continue;
      }
      emit(spec, it->second.first);
    }
  }
  const std::span<const MetricSpec> declared =
      trace ? std::span<const MetricSpec>(kPerLayer)
            : std::span<const MetricSpec>(kEndToEnd);
  for (const auto& [name, value] : have) {
    bool known = false;
    for (const MetricSpec& spec : declared) known = known || name == spec.name;
    if (!known) {
      PERFBENCH_LOG("metric %s is not declared", name.c_str());
      ok = false;
    }
  }
  json += "}}";
  if (!ok) return false;
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return true;
}

int RunWorkload(const RunOptions& opts) {
  Report report;
  if (opts.workload == "train") {
    RunTrain(opts, &report);
  } else if (opts.workload == "serve-exact") {
    RunServeExact(opts, &report);
  } else if (opts.workload == "serve-ivf") {
    RunServeIvf(opts, &report);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", opts.workload.c_str());
    return 2;
  }
  std::string counts;
  for (const auto& [kind, n] : report.counts()) {
    counts += " " + kind + "=" + std::to_string(n);
  }
  PERFBENCH_LOG("%s: attempted %llu, failed %llu;%s", opts.workload.c_str(),
                static_cast<unsigned long long>(report.attempted()),
                static_cast<unsigned long long>(report.failed()),
                counts.c_str());
  for (const std::string& why : report.failures()) {
    PERFBENCH_LOG("FAILED: %s", why.c_str());
  }
  if (!PrintResult(report, opts.trace)) return 3;
  return report.correct() ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") {
      return perfbench::RunSelfTest() == 0 ? 0 : 1;
    } else if (arg == "--reference" && has_value) {
      return perfbench::RunReferenceFigures(std::strtoull(argv[++i], nullptr,
                                                          10));
    } else if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opts.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      opts.trace = std::strcmp(argv[++i], "0") != 0;
    } else {
      perfbench::Usage();
      return 2;
    }
  }
  if (!have_workload || !(opts.seconds > 0.0)) {
    perfbench::Usage();
    return 2;
  }
  // The reference checkers must pass their own cases before they judge
  // the program.
  if (perfbench::RunSelfTest() != 0) return 1;
  return perfbench::RunWorkload(opts);
}
