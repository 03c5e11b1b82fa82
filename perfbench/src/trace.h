#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>

#include "measure.h"

namespace perfbench {

/// Span names: one per public engine call the benchmark times, plus one
/// root per request kind. Roots cover a whole request; their self time is
/// the harness's own work (building batches, binding, checking results).
enum class SpanName : uint8_t {
  kReqIndex,
  kReqScan,
  kReqIngest,
  kReqSample,
  kServiceRun,    // ServiceFrontEnd::Run, minus admission wait and callback
  kServiceAdmit,  // from the Run call to the callback's first instruction
  kQueryPrepare,  // Session::Prepare
  kQueryOpenIndex,  // PreparedStatement::ExecuteCursor, index statement
  kQueryOpenScan,   // PreparedStatement::ExecuteCursor, heap-scan statement
  kQueryDrainIndex,  // Cursor::NextBatch loop, index statement
  kQueryDrainScan,   // Cursor::NextBatch loop, heap-scan statement
  kDbWrite,         // Database::Write
  kDegradeNextDeadline,   // DegradationEngine::NextDeadline
  kWalEarliestPayload,    // WalManager::EarliestPayloadDeadline
  kWalSyncWaiters,        // WalManager::SyncWaiters
  kPoolFreeWorkers,       // WorkerPool::free_workers
  kMaintainAudit,         // Database::Audit
  kCount,
};
const char* SpanNameString(SpanName name);

/// In-memory span recorder. Each thread appends to its own buffer (no
/// locking on the hot path); a span's parent is the span open on the same
/// thread when it started, and every span of one request carries the
/// request id of its root. Disabled (the untraced run), a Span costs one
/// relaxed atomic load.
class Tracer {
 public:
  static void SetEnabled(bool enabled);
  static bool enabled();
  /// Writes every span as a tab-separated line
  /// (thread, request, span, parent, name, start_ns, end_ns).
  static bool WriteTsv(const std::string& path);
};

class Span {
 public:
  explicit Span(SpanName name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int32_t index_ = -1;
};

/// Records an already finished span [start_ns, end_ns) as a child of the
/// span open on this thread (the admission wait, which starts before the
/// callback that detects its end).
void RecordSpan(SpanName name, int64_t start_ns, int64_t end_ns);

/// Per-name aggregates over every recorded span.
struct TraceSummary {
  struct PerName {
    double self_ns = 0;
    Samples duration_us;  // whole-span durations
  };
  std::map<SpanName, PerName> by_name;
  /// Σ self times over all spans; equals Σ root durations when every child
  /// lies inside its parent.
  double self_ns = 0;
  uint64_t nesting_errors = 0;  // children outside their parent's interval
};
TraceSummary Summarize();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
