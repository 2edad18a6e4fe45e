// Entry points of the benchmark's workloads and modes, and the input
// shapes the reference figures reuse.
#ifndef TAXOREC_PERFBENCH_WORKLOADS_H_
#define TAXOREC_PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "bench_util.h"
#include "data/synthetic.h"

namespace perfbench {

void RunTrain(const RunOptions& opts, Report* report);
void RunServeExact(const RunOptions& opts, Report* report);
void RunServeIvf(const RunOptions& opts, Report* report);

/// The `train` workload's data shape for `seed`.
taxorec::SyntheticConfig TrainDataConfig(uint64_t seed);

/// Hand-made cases for the reference checkers; returns the number of
/// failed cases (each is logged).
int RunSelfTest();

/// Untimed reference figures recorded in perfbench/README.md.
int RunReferenceFigures(uint64_t seed);

}  // namespace perfbench

#endif  // TAXOREC_PERFBENCH_WORKLOADS_H_
