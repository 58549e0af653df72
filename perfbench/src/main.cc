// perfbench: runs one DIG-FL benchmark workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--first-cpu <i>] [--work-dir <dir>]
//
// Output: a `fingerprint {...}` line (host and build), a `detail {...}` line
// (sample counts, tail percentile, ...), and as the last line one JSON
// object {"correct", "attempted", "failed", "metrics"}. The metrics are the
// end-to-end set with --trace 0 and the per-layer set with --trace 1.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

#include "fingerprint.h"
#include "telemetry/json.h"
#include "telemetry/runtime.h"
#include "workloads.h"

namespace {

std::string FormatNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--first-cpu <i>] "
               "[--work-dir <dir>]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.work_dir = ".bench_work";
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value != "0";
    } else if (flag == "--first-cpu") {
      options.first_cpu = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || argc % 2 == 0) return Usage("missing arguments");
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");

  std::error_code error;
  std::filesystem::create_directories(options.work_dir, error);
  if (error) {
    std::fprintf(stderr, "cannot create %s: %s\n", options.work_dir.c_str(),
                 error.message().c_str());
    return 1;
  }
  // End-to-end numbers are taken with telemetry off; traced repetitions
  // switch it on around their own calls.
  digfl::telemetry::SetEnabled(false);

  std::printf("fingerprint %s\n",
              perfbench::HostFingerprintJson(options.work_dir).c_str());
  std::fflush(stdout);

  digfl::Result<perfbench::RunResult> run = perfbench::RunWorkload(options);
  if (!run.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", run.status().ToString().c_str());
    return 1;
  }

  std::string detail = "{\"workload\":\"" +
                       digfl::telemetry::json::Escape(options.workload) +
                       "\",\"seed\":" + std::to_string(options.seed);
  for (const auto& [name, value] : run->details) {
    detail += ",\"" + name + "\":" + FormatNumber(value);
  }
  detail += "}";
  std::printf("detail %s\n", detail.c_str());

  bool correct = run->correct;
  std::string metrics;
  const auto& specs = options.trace ? perfbench::PerLayerMetrics()
                                    : perfbench::EndToEndMetrics();
  for (const perfbench::MetricSpec& spec : specs) {
    const auto found = run->metrics.find(spec.name);
    double value = found == run->metrics.end() ? 0.0 : found->second;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "metric %s is not finite\n", spec.name);
      value = 0.0;
      correct = false;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(spec.name) +
               "\": {\"value\": " + FormatNumber(value) + ", \"unit\": \"" +
               spec.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(run->attempted),
      static_cast<unsigned long long>(run->failed), metrics.c_str());
  return 0;
}
