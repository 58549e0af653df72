// The four benchmark workloads (README.md says why each exists).
//
//   hfl_train     in-process FedSGD, then DIG-FL Alg. #2 and Alg. #1
//   hfl_ckpt      checkpointed FedSGD, then a cold resume from the store
//   hfl_net       flat coordinator over loopback TCP, then Alg. #1 HVP RPCs
//   vfl_paillier  Paillier-encrypted vertical linear regression
//
// An untraced run times only the public entry points and reports the
// end-to-end metrics. A traced run alternates untraced and traced
// repetitions; the traced ones wrap the model, the checkpoint hook and the
// Paillier calls from the benchmark side, turn telemetry on, and report the
// per-layer metrics plus the measured cost of tracing itself.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Index of the allowed CPU the first repetition starts on; later ones
  // take the next in turn.
  size_t first_cpu = 0;
  // Scratch directory for checkpoint stores; created and emptied by the run.
  std::string work_dir;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every run prints the full list for its mode, on every workload; a layer a
// workload does not exercise reports 0.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();
const std::vector<std::string>& WorkloadNames();

struct RunResult {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;  // absent = 0
  // Extra context printed before the result: sample counts, percentiles.
  std::map<std::string, double> details;
};

digfl::Result<RunResult> RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
