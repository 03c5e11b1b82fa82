#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Working directory for databases and span files (inside the checkout).
  std::string work_dir;
  /// Provenance of the engine sources, passed in by run.py.
  std::string source_id;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOutcome {
  std::vector<std::string> errors;  // failed correctness checks
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// JSON object: provenance, sizes, sample counts and percentiles.
  std::string report;
};

/// Runs one workload: end-to-end metrics with trace off, per-layer metrics
/// (plus an untraced pass for the tracing overhead) with trace on.
RunOutcome RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
