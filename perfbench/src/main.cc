// End-to-end benchmark program. Usage:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--source <id>]
//
// Prints a human-readable summary, one JSON report line (provenance, sizes,
// sample counts), and as its last line the result object
// {"correct", "attempted", "failed", "metrics"}; a failed correctness check
// shows as "correct": false. Exits non-zero only on bad arguments.

#include <cstdio>
#include <filesystem>
#include <string>

#include "workload.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> [--source <id>]\n",
               why);
  return 2;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
        options.trace = value == "1";
        have_trace = true;
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else if (flag == "--source") {
        options.source_id = value;
      } else {
        return Usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (options.workload.empty() || options.work_dir.empty() || !have_trace ||
      !(options.seconds > 0)) {
    return Usage("missing --workload, --work-dir, --trace or --seconds");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);

  const perfbench::RunOutcome outcome = perfbench::RunWorkload(options);
  for (const auto& m : outcome.metrics) {
    std::printf("%-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& e : outcome.errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  if (!outcome.report.empty()) std::printf("{\"report\": %s}\n", outcome.report.c_str());

  std::string metrics;
  for (const auto& m : outcome.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  const bool correct = outcome.errors.empty() && !outcome.metrics.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}
