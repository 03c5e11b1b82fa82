#include "trace.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

namespace {

struct SpanRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t request = 0;
  int32_t parent = -1;  // index in the same thread's buffer
  SpanName name = SpanName::kCount;
};

struct ThreadBuffer {
  std::vector<SpanRecord> spans;
  std::vector<int32_t> open;  // stack of open span indices
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_request{1};
std::mutex g_registry_mu;
// Buffers live until exit: a thread's thread_local pointer must never dangle.
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;

ThreadBuffer* ThisThread() {
  thread_local ThreadBuffer* buffer = [] {
    auto owned = std::make_unique<ThreadBuffer>();
    ThreadBuffer* raw = owned.get();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(std::move(owned));
    return raw;
  }();
  return buffer;
}

int32_t Push(ThreadBuffer* buf, SpanName name, int64_t start_ns) {
  SpanRecord rec;
  rec.name = name;
  rec.start_ns = start_ns;
  rec.parent = buf->open.empty() ? -1 : buf->open.back();
  rec.request = rec.parent < 0 ? g_next_request.fetch_add(1)
                               : buf->spans[rec.parent].request;
  buf->spans.push_back(rec);
  return static_cast<int32_t>(buf->spans.size() - 1);
}

}  // namespace

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kReqIndex: return "req.index";
    case SpanName::kReqScan: return "req.scan";
    case SpanName::kReqIngest: return "req.ingest";
    case SpanName::kReqSample: return "req.sample";
    case SpanName::kServiceRun: return "service.run";
    case SpanName::kServiceAdmit: return "service.admit";
    case SpanName::kQueryPrepare: return "query.prepare";
    case SpanName::kQueryOpenIndex: return "query.open.index";
    case SpanName::kQueryOpenScan: return "query.open.scan";
    case SpanName::kQueryDrainIndex: return "query.drain.index";
    case SpanName::kQueryDrainScan: return "query.drain.scan";
    case SpanName::kDbWrite: return "db.write";
    case SpanName::kDegradeNextDeadline: return "degrade.next_deadline";
    case SpanName::kWalEarliestPayload: return "wal.earliest_payload";
    case SpanName::kWalSyncWaiters: return "wal.sync_waiters";
    case SpanName::kPoolFreeWorkers: return "pool.free_workers";
    case SpanName::kMaintainAudit: return "maintain.audit";
    case SpanName::kCount: break;
  }
  return "?";
}

void Tracer::SetEnabled(bool enabled) { g_enabled.store(enabled); }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

bool Tracer::WriteTsv(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (size_t t = 0; t < g_registry.size(); ++t) {
    const auto& spans = g_registry[t]->spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      std::fprintf(f, "%zu\t%llu\t%zu\t%d\t%s\t%lld\t%lld\n", t,
                   static_cast<unsigned long long>(s.request), i, s.parent,
                   SpanNameString(s.name), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

Span::Span(SpanName name) {
  if (!Tracer::enabled()) return;
  ThreadBuffer* buf = ThisThread();
  index_ = Push(buf, name, NowNs());
  buf->open.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  ThreadBuffer* buf = ThisThread();
  buf->spans[index_].end_ns = NowNs();
  buf->open.pop_back();
}

void RecordSpan(SpanName name, int64_t start_ns, int64_t end_ns) {
  if (!Tracer::enabled()) return;
  ThreadBuffer* buf = ThisThread();
  const int32_t index = Push(buf, name, start_ns);
  buf->spans[index].end_ns = end_ns;
}

TraceSummary Summarize() {
  TraceSummary out;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& buf : g_registry) {
    const auto& spans = buf->spans;
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const SpanRecord& s : spans) {
      if (s.parent < 0) continue;
      const SpanRecord& p = spans[s.parent];
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
      if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) ++out.nesting_errors;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      const double duration = static_cast<double>(s.end_ns - s.start_ns);
      const double self = duration - child_ns[i];
      TraceSummary::PerName& agg = out.by_name[s.name];
      agg.self_ns += self;
      agg.duration_us.Add(duration / 1e3);
      out.self_ns += self;
    }
  }
  return out;
}

}  // namespace perfbench
