#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Raw sample set with nearest-rank percentiles. The benchmark keeps every
/// sample so the reporting rule "highest percentile with at least ten
/// samples beyond it" can be applied exactly.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t count() const { return values_.size(); }
  double Mean() const;
  /// p in (0, 100]; 0 with no samples.
  double Percentile(double p) const;
  /// True when at least ten samples lie beyond the p-th percentile (of
  /// this set, or of any set of n samples).
  bool Supports(double p) const;
  static bool Supports(double p, size_t n);
  /// Highest of {50, 90, 99, 99.9} the sample count supports (0 if none).
  double HighestSupported() const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

/// Samples of one request kind, kept whole and, in the order their
/// requests were due, split into kChunks chunks of equal count. Reported
/// percentiles are the median over the chunks' percentiles, so one
/// disturbed stretch of a run on a shared host cannot move them.
class ChunkedSamples {
 public:
  static constexpr int kChunks = 3;

  void Add(int64_t due_ns, double v) {
    all_.Add(v);
    timed_.emplace_back(due_ns, v);
  }
  void Append(const ChunkedSamples& other);
  const Samples& all() const { return all_; }
  /// Chunk c (0-based) in due-time order.
  Samples Chunk(int c) const;
  double MedianOfChunks(double p) const;
  /// True when every chunk has at least ten samples beyond the p-th
  /// percentile.
  bool Supports(double p) const;

 private:
  Samples all_;
  mutable std::vector<std::pair<int64_t, double>> timed_;
};

/// Process counters read from /proc/self.
struct ProcCounters {
  double cpu_ms = 0;       // user + system CPU time
  uint64_t wchar = 0;      // bytes passed to write()-family syscalls
  double peak_rss_mb = 0;  // VmHWM
};
ProcCounters ReadProcCounters();

/// Total bytes of regular files under `dir`, and of the files named `name`
/// when non-empty.
uint64_t DirBytes(const std::string& dir, const std::string& name = "");

std::string CpuModel();

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
