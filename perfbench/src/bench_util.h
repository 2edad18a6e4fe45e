// Shared plumbing of the repository benchmark: run options, the per-run
// report (operations attempted/failed, end-to-end and per-layer metrics),
// timing, order statistics and CPU pinning.
#ifndef TAXOREC_PERFBENCH_BENCH_UTIL_H_
#define TAXOREC_PERFBENCH_BENCH_UTIL_H_

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Median of `v` (0 when empty). Takes a copy: callers keep their order.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank q-quantile (q in [0, 1]); 0 when empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()) + 0.5);
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Runs fn() `reps` times and returns each wall time in seconds.
template <typename Fn>
std::vector<double> TimeEach(int reps, Fn&& fn) {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    out.push_back(SecondsSince(t0));
  }
  return out;
}

/// CPUs this process may run on.
inline std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Pins the calling thread to one CPU for its lifetime (-1: no change),
/// then restores the previous mask.
class PinnedTo {
 public:
  explicit PinnedTo(int cpu) {
    if (cpu < 0 || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinnedTo() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinnedTo(const PinnedTo&) = delete;
  PinnedTo& operator=(const PinnedTo&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Outcome of one benchmark run. Every timed operation is counted in
/// `attempted`; an operation whose output fails a check (or that the
/// program refused, e.g. a shed request) is counted in `failed` with a
/// message. The end-to-end metrics are printed for --trace 0 runs, the
/// per-layer metrics for --trace 1 runs.
class Report {
 public:
  void Attempt(uint64_t n = 1) { attempted_ += n; }

  /// Records one failed operation.
  void Fail(const std::string& what) {
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(what);
  }

  /// Checks `ok`; a false value fails one operation with `what`.
  bool Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
    return ok;
  }

  /// Counts operations per kind for the stderr summary (epochs, users,
  /// requests, ...).
  void Count(const std::string& kind, uint64_t n) { counts_[kind] += n; }

  void EndToEnd(const std::string& name, double value,
                const std::string& unit) {
    e2e_[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layer_[name] = {value, unit};
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0; }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::map<std::string, uint64_t>& counts() const { return counts_; }
  const std::map<std::string, std::pair<double, std::string>>& e2e() const {
    return e2e_;
  }
  const std::map<std::string, std::pair<double, std::string>>& layers()
      const {
    return layer_;
  }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, uint64_t> counts_;
  std::map<std::string, std::pair<double, std::string>> e2e_;
  std::map<std::string, std::pair<double, std::string>> layer_;
};

/// Logs a progress line to stderr (stdout carries only the result).
#define PERFBENCH_LOG(...)                    \
  do {                                        \
    std::fprintf(stderr, "[perfbench] ");     \
    std::fprintf(stderr, __VA_ARGS__);        \
    std::fprintf(stderr, "\n");               \
  } while (0)

}  // namespace perfbench

#endif  // TAXOREC_PERFBENCH_BENCH_UTIL_H_
