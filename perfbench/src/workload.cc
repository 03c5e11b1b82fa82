#include "workload.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <random>
#include <thread>

#include <unistd.h>

#include "instantdb/instantdb.h"
#include "measure.h"
#include "trace.h"

namespace perfbench {

namespace {

using namespace instantdb;

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

/// Every workload issues the same three request kinds — durable ingest
/// batches, index statements and heap-scan statements — through a
/// ServiceFrontEnd, with a sampler thread measuring lateness and log
/// exposure on the short-lived stream database. The workloads differ in
/// which side carries the load, whether reads hit a frozen pre-aged table
/// (exact expected counts) or the live stream, the table size against the
/// heap buffer pool, and whether admission has to queue.
struct Spec {
  const char* name;
  /// Rows of the pre-aged read table on a frozen VirtualClock; 0 = reads go
  /// to the live stream table instead.
  size_t aged_rows;
  /// Heap buffer-pool pages per partition of the frozen database.
  size_t aged_pool_pages;
  /// Open-loop ingest: writer threads, batches per second per writer, rows
  /// per batch (one durable WriteBatch each).
  int writers;
  double batches_per_s;
  int rows_per_batch;
  /// Readers: open-loop threads with fixed mean rates (index/s, scan/s),
  /// and closed-loop sessions with their share of index statements.
  std::vector<std::pair<double, double>> reader_rates;
  int closed_readers;
  double closed_index_share;
  /// Admission slots per front end.
  size_t max_concurrent;
  /// Service classes of index reads, scans and ingest. Only mixed_service
  /// mixes classes, so its admission queues drain by weight; elsewhere
  /// every request is kHigh and the front end only admits. No workload
  /// sheds (see BuildSetup).
  ServiceClass index_class, scan_class, ingest_class;
  /// The sampler's once-a-second Database::Audit goes to the stream
  /// database (mixed_service) or to the frozen read database. Auditing the
  /// stream database repairs what it finds, which would wake the degrader.
  bool audit_stream;
};

const std::vector<Spec>& Specs() {
  static const std::vector<Spec> specs = {
      // Ingest-heavy: two durable writers; a light open-loop reader on a
      // small in-cache frozen table keeps the read metrics defined without
      // touching the stream database's query or index layers.
      {"expiry_stream", 20000, 4096, 2, 55.0, 64, {{110.0, 110.0}}, 0,
       0, 4, ServiceClass::kHigh, ServiceClass::kHigh, ServiceClass::kHigh,
       false},
      // Read-heavy: two closed-loop sessions on a pre-aged table whose heap
      // is several times the buffer pool; a small durable trickle keeps the
      // write and timeliness metrics defined.
      {"purpose_reads", 30000, 8, 1, 110.0, 8, {}, 2, 0.5, 4,
       ServiceClass::kHigh, ServiceClass::kHigh, ServiceClass::kHigh, false},
      // Mixed traffic on one live database: kHigh index reads, kLow scans,
      // kNormal ingest, two admission slots for three clients.
      {"mixed_service", 0, 0, 1, 60.0, 64,
       {{60.0, 0.0}, {0.0, 60.0}}, 0, 0, 2, ServiceClass::kHigh,
       ServiceClass::kLow, ServiceClass::kNormal, true},
  };
  return specs;
}

constexpr int kFanout = 4;  // 256 addresses, 64 cities
constexpr double kZipfTheta = 0.8;
constexpr uint32_t kPartitions = 4;
constexpr size_t kWorkerThreads = 4;
constexpr int64_t kSamplePeriodNs = 2'000'000;
constexpr int64_t kAuditPeriodNs = 1'000'000'000;
constexpr int64_t kStartAfterOpenNs = 250'000'000;
/// The first audit runs before any value is due (the shortest phase is
/// 0.5 s), so whether it finds anything never hinges on a few ms of timing.
constexpr int64_t kFirstAuditNs = 250'000'000;
constexpr int kMinSetups = 3;
/// Length of a traced run's untraced baseline pass, as a share of
/// --seconds; it only feeds the tracing-overhead estimate.
constexpr double kBaselineShare = 1.0 / 3;
/// Set-ups repeat for this long in all, half before the measured pass and
/// half after it. A mixed_service set-up is a few ms of mostly kernel time
/// whose cost, on a shared VM, follows the host's load and swings up to 3x
/// within a minute; windows at both ends of the run tie its median less to
/// one moment.
constexpr int64_t kSetupWindowNs = 4'000'000'000;
constexpr size_t kMaxSetups = 600;
/// Scan statements on the frozen table select this share of its scores;
/// on the live stream a fixed width of recent-ish scores.
constexpr double kScanSelectivity = 0.01;
constexpr int64_t kLiveScanWidth = 200;
constexpr const char* kIndexSql = "SELECT user FROM pings WHERE location = ?";
constexpr const char* kScanSql =
    "SELECT COUNT(location) FROM pings WHERE score BETWEEN ? AND ?";

// ---------------------------------------------------------------------------
// Data generation
// ---------------------------------------------------------------------------

class Zipf {
 public:
  Zipf(size_t n, double theta) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Next(std::mt19937_64* rng) const {
    const double u = std::uniform_real_distribution<double>(0, 1)(*rng);
    return std::min<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin(),
        cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

struct Domain {
  std::shared_ptr<const DomainHierarchy> hierarchy;
  std::vector<std::string> addresses;
  std::vector<std::string> cities;
  std::vector<size_t> city_of;  // address ordinal -> city ordinal
};

const Domain& LocationDomainModel() {
  static const Domain domain = [] {
    Domain d;
    d.hierarchy = SyntheticLocationDomain(kFanout, kFanout, kFanout, kFanout);
    const auto* tree =
        static_cast<const GeneralizationTree*>(d.hierarchy.get());
    d.addresses = tree->LabelsAtLevel(0);
    d.cities = tree->LabelsAtLevel(1);
    for (const std::string& address : d.addresses) {
      auto city = tree->Generalize(Value::String(address), 0, 1);
      const auto it =
          city.ok() ? std::find(d.cities.begin(), d.cities.end(), city->str())
                    : d.cities.end();
      d.city_of.push_back(static_cast<size_t>(it - d.cities.begin()));
    }
    return d;
  }();
  return domain;
}

Value UserName(int64_t score) {
  std::string name = "u";
  name += std::to_string(score);
  return Value::String(std::move(name));
}

Schema PingSchema(const AttributeLcp& lcp) {
  return *Schema::Make(
      {ColumnDef::Stable("user", ValueType::kString),
       ColumnDef::Stable("score", ValueType::kInt64),
       ColumnDef::Degradable("location", LocationDomainModel().hierarchy,
                             lcp)});
}

/// ADDRESS 0.5 s -> CITY 0.5 s -> REGION 1 s -> removed.
AttributeLcp ShortLivedLcp() {
  return *AttributeLcp::Make({{0, 500 * kMicrosPerMilli},
                              {1, 500 * kMicrosPerMilli},
                              {2, kMicrosPerSecond}});
}

/// What the generator knows about the pre-aged table: every row's address
/// and whether it is still accurate (phase 0) at the frozen instant. Under
/// strict accuracy semantics a statement at level k sees exactly the rows
/// whose stored value is at level k or finer.
struct AgedModel {
  size_t rows = 0;
  std::vector<uint32_t> accurate_by_address;  // phase-0 rows per address
  std::vector<uint32_t> rows_by_city;         // phase-0 or phase-1 rows
  std::vector<uint32_t> accurate_prefix;      // phase-0 rows with score < i

  int64_t ExpectIndex(int level, size_t label) const {
    return level == 0 ? accurate_by_address[label] : rows_by_city[label];
  }
  int64_t ExpectScan(int level, int64_t lo, int64_t hi) const {
    if (level == 1) return hi - lo + 1;
    return accurate_prefix[hi + 1] - accurate_prefix[lo];
  }
};

// ---------------------------------------------------------------------------
// One set-up: databases, front ends, sessions
// ---------------------------------------------------------------------------

struct Setup {
  std::string dir;
  VirtualClock aged_clock;
  std::unique_ptr<Database> aged;    // null when reads hit the stream
  std::unique_ptr<Database> stream;  // SystemClock, production loops on
  std::unique_ptr<ServiceFrontEnd> aged_service;
  std::unique_ptr<ServiceFrontEnd> stream_service;
  AgedModel model;
  int64_t stream_opened_ns = 0;
  uint64_t aged_heap_bytes = 0;
  uint64_t read_pool_bytes = 0;

  Database* read_db() const { return aged ? aged.get() : stream.get(); }
  ServiceFrontEnd* read_service() const {
    return aged ? aged_service.get() : stream_service.get();
  }

  /// Detaches the front ends and closes both databases; returns the first
  /// error, which includes any sticky background I/O error.
  Status Close() {
    aged_service.reset();
    stream_service.reset();
    Status first;
    for (Database* db : {aged.get(), stream.get()}) {
      if (db == nullptr) continue;
      Status s = db->Close();
      if (first.ok()) first = s;
    }
    return first;
  }

  ~Setup() {
    Close().ok();  // already closed on every path that checks the result
    aged.reset();
    stream.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

Status BuildAged(const Spec& spec, uint64_t seed, Setup* setup) {
  DbOptions options;
  options.path = setup->dir + "/aged";
  options.clock = &setup->aged_clock;
  options.partitions = kPartitions;
  options.degradation.worker_threads = kWorkerThreads;
  options.storage.buffer_pool_pages = spec.aged_pool_pages;
  auto db = Database::Open(options);
  if (!db.ok()) return db.status();
  setup->aged = std::move(*db);
  Database* aged = setup->aged.get();
  auto created = aged->CreateTable("pings", PingSchema(Fig2LocationLcp()));
  if (!created.ok()) return created.status();

  // Arrivals spread evenly over two simulated hours, so at the frozen
  // instant the first half has moved to CITY and the second half is still
  // accurate. The instant sits half a step past the last arrival: no row's
  // phase boundary coincides with it.
  const Domain& domain = LocationDomainModel();
  const Zipf zipf(domain.addresses.size(), kZipfTheta);
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  const size_t batches = (spec.aged_rows + 63) / 64;
  const Micros step = (2 * kMicrosPerHour / static_cast<Micros>(batches)) & ~1;
  const Micros frozen = static_cast<Micros>(batches) * step + step / 2;
  AgedModel& model = setup->model;
  model.rows = spec.aged_rows;
  model.accurate_by_address.assign(domain.addresses.size(), 0);
  model.rows_by_city.assign(domain.cities.size(), 0);
  model.accurate_prefix.assign(spec.aged_rows + 1, 0);
  size_t row = 0;
  for (size_t b = 0; b < batches; ++b) {
    const Micros inserted = setup->aged_clock.NowMicros();
    const bool accurate = frozen - inserted < kMicrosPerHour;
    WriteBatch batch;
    for (; row < std::min(spec.aged_rows, (b + 1) * 64); ++row) {
      const size_t address = zipf.Next(&rng);
      batch.Insert("pings", {UserName(static_cast<int64_t>(row)),
                             Value::Int64(static_cast<int64_t>(row)),
                             Value::String(domain.addresses[address])});
      ++model.rows_by_city[domain.city_of[address]];
      if (accurate) ++model.accurate_by_address[address];
      model.accurate_prefix[row + 1] = model.accurate_prefix[row] + accurate;
    }
    Status s = aged->Write(&batch);
    if (!s.ok()) return s;
    setup->aged_clock.Advance(step);
  }
  setup->aged_clock.AdvanceTo(frozen);
  auto moved = aged->RunDegradationOnce();
  if (!moved.ok()) return moved.status();
  Status s = aged->Checkpoint();
  if (!s.ok()) return s;
  setup->aged_heap_bytes = DirBytes(options.path, "heap.db");
  return Status::OK();
}

Status BuildStream(Setup* setup) {
  // The configuration a deployment runs: SystemClock, background degrader
  // and maintenance daemon at their default cadence. The pool is sized to
  // the host so the service's reserved degradation worker leaves room for
  // queries (a one-worker pool reads as permanent pool pressure).
  DbOptions options;
  options.path = setup->dir + "/stream";
  options.partitions = kPartitions;
  options.degradation.worker_threads = kWorkerThreads;
  options.degradation.background_thread = true;
  options.maintenance.enabled = true;
  auto db = Database::Open(options);
  if (!db.ok()) return db.status();
  setup->stream = std::move(*db);
  setup->stream_opened_ns = NowNs();
  auto created = setup->stream->CreateTable("pings", PingSchema(ShortLivedLcp()));
  return created.ok() ? Status::OK() : created.status();
}

Result<std::unique_ptr<Setup>> BuildSetup(const Spec& spec, uint64_t seed,
                                          const std::string& dir) {
  auto setup = std::make_unique<Setup>();
  setup->dir = dir;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (spec.aged_rows > 0) {
    Status s = BuildAged(spec, seed, setup.get());
    if (!s.ok()) return s;
  }
  Status s = BuildStream(setup.get());
  if (!s.ok()) return s;
  ServiceOptions service;
  service.max_concurrent = spec.max_concurrent;
  // No request may be refused: whether pressure sheds one follows host
  // timing, so two runs of one seed would fail different counts. The WAL
  // and degradation rungs are set out of reach, which caps the pressure
  // score at 1 (pool exhaustion); that rung sheds only kLow writes, and no
  // workload issues one. Admission still samples every signal, and
  // mixed_service still queues.
  service.wal_waiters_high = std::numeric_limits<size_t>::max();
  service.degradation_backlog_high = std::numeric_limits<size_t>::max();
  setup->stream_service =
      std::make_unique<ServiceFrontEnd>(setup->stream.get(), service);
  if (setup->aged) {
    setup->aged_service =
        std::make_unique<ServiceFrontEnd>(setup->aged.get(), service);
  }
  const StorageOptions& storage = setup->read_db()->options().storage;
  setup->read_pool_bytes =
      storage.buffer_pool_pages * storage.page_size * kPartitions;
  return setup;
}

// ---------------------------------------------------------------------------
// Clients
// ---------------------------------------------------------------------------

enum class Kind { kIndex, kScan, kIngest };

/// Per-thread results, merged after the threads join.
struct ClientStats {
  ChunkedSamples index_ms, scan_ms, commit_ms;
  Samples gen_late_ms;
  double wall_ns = 0;  // Σ start->end of every request
  /// Requests due in the first kBaselineShare of the interval, and their
  /// Σ start->end: the like-for-like basis of the tracing overhead.
  double early_ns = 0;
  uint64_t early_requests = 0;
  uint64_t attempted = 0, failed = 0;
  uint64_t reads_ok = 0, rows_returned = 0;
  uint64_t acked_batches = 0, acked_rows = 0;
  std::vector<std::string> errors;

  void Merge(const ClientStats& o) {
    index_ms.Append(o.index_ms);
    scan_ms.Append(o.scan_ms);
    commit_ms.Append(o.commit_ms);
    gen_late_ms.Append(o.gen_late_ms);
    wall_ns += o.wall_ns;
    early_ns += o.early_ns;
    early_requests += o.early_requests;
    attempted += o.attempted;
    failed += o.failed;
    reads_ok += o.reads_ok;
    rows_returned += o.rows_returned;
    acked_batches += o.acked_batches;
    acked_rows += o.acked_rows;
    for (const auto& e : o.errors) {
      if (errors.size() < 20) errors.push_back(e);
    }
  }
  void Error(std::string e) {
    if (errors.size() < 20) errors.push_back(std::move(e));
  }
};

struct SamplerStats {
  Samples lateness_ms, exposure_ms, sync_waiters, pool_busy, audit_ms;
  double wall_ns = 0;
  std::vector<std::string> errors;
};

/// A refusal (admission shed, deadline, wait-die abort) is a failed
/// request; any other error is a program defect and fails the run.
bool IsRefusal(const Status& s) {
  return s.IsOverloaded() || s.IsTimeout() || s.IsAborted() || s.IsBusy() ||
         s.IsShutdown();
}

class Client {
 public:
  Client(const Spec& spec, Setup* setup, uint64_t seed,
         std::atomic<int64_t>* next_score)
      : spec_(spec),
        setup_(setup),
        rng_(seed),
        next_score_(next_score),
        read_session_(setup->read_db()),
        write_session_(setup->stream.get()) {
    for (const char* level : {"ADDRESS", "CITY"}) {
      const std::string sql = std::string("DECLARE PURPOSE p_") + level +
                              " SET ACCURACY LEVEL " + level +
                              " FOR pings.location";
      auto r = read_session_.Execute(sql);
      if (!r.ok()) stats_.Error("declare purpose: " + r.status().ToString());
    }
  }

  /// Runs one request; `due_ns` is when it was due (its start for closed
  /// loops). Latency is timed from the due time.
  void Issue(Kind kind, int64_t due_ns) {
    const int64_t start = NowNs();
    ++stats_.attempted;
    Status s;
    {
      Span root(kind == Kind::kIndex  ? SpanName::kReqIndex
                : kind == Kind::kScan ? SpanName::kReqScan
                                      : SpanName::kReqIngest);
      s = kind == Kind::kIngest ? Ingest() : Read(kind == Kind::kIndex);
    }
    const int64_t end = NowNs();
    stats_.wall_ns += static_cast<double>(end - start);
    if (due_ns < early_end_ns_) {
      stats_.early_ns += static_cast<double>(end - start);
      ++stats_.early_requests;
    }
    if (!s.ok()) {
      ++stats_.failed;
      if (!IsRefusal(s)) stats_.Error("request failed: " + s.ToString());
      return;
    }
    const double ms = static_cast<double>(end - due_ns) / 1e6;
    if (kind == Kind::kIndex) stats_.index_ms.Add(due_ns, ms);
    if (kind == Kind::kScan) stats_.scan_ms.Add(due_ns, ms);
    if (kind == Kind::kIngest) stats_.commit_ms.Add(due_ns, ms);
  }

  void set_early_end(int64_t ns) { early_end_ns_ = ns; }
  ClientStats& stats() { return stats_; }
  std::mt19937_64& rng() { return rng_; }

 private:
  /// Runs `fn` admitted under `cls`, timing the admission wait as the span
  /// from the Run call to the callback's start.
  Status Admitted(ServiceFrontEnd* service, Session* session,
                  ServiceClass cls, bool is_write,
                  const std::function<Status()>& fn) {
    Span run(SpanName::kServiceRun);
    const int64_t called = NowNs();
    return service->Run(session, cls, is_write, [&](Session*) {
      RecordSpan(SpanName::kServiceAdmit, called, NowNs());
      return fn();
    });
  }

  Status Ingest() {
    WriteBatch batch;
    const Domain& domain = LocationDomainModel();
    static const Zipf zipf(domain.addresses.size(), kZipfTheta);
    const int64_t first = next_score_->fetch_add(spec_.rows_per_batch);
    for (int i = 0; i < spec_.rows_per_batch; ++i) {
      const int64_t score = first + i;
      batch.Insert("pings", {UserName(score),
                             Value::Int64(score),
                             Value::String(domain.addresses[zipf.Next(&rng_)])});
    }
    Database* db = setup_->stream.get();
    Status s = Admitted(setup_->stream_service.get(), &write_session_,
                        spec_.ingest_class, true, [&] {
                          Span span(SpanName::kDbWrite);
                          return db->Write(&batch, WriteOptions{.sync = true});
                        });
    if (s.ok()) {
      ++stats_.acked_batches;
      stats_.acked_rows += static_cast<uint64_t>(spec_.rows_per_batch);
    }
    return s;
  }

  Status Read(bool index) {
    const Domain& domain = LocationDomainModel();
    const bool aged = setup_->aged != nullptr;
    // Index statements alternate between ADDRESS and CITY purposes; scans
    // on the frozen table do too, on the live stream they run at CITY so
    // rows still accurate or one step coarser are counted.
    const int level = (index || aged) ? static_cast<int>(rng_() % 2) : 1;
    size_t label = 0;
    int64_t lo = 0, hi = 0;
    if (index) {
      label = rng_() % (level == 0 ? domain.addresses.size()
                                   : domain.cities.size());
    } else {
      const int64_t rows = aged ? static_cast<int64_t>(setup_->model.rows)
                                : std::max<int64_t>(next_score_->load(), 1);
      const int64_t width =
          aged ? std::max<int64_t>(1, static_cast<int64_t>(
                                          kScanSelectivity *
                                          static_cast<double>(rows)))
               : kLiveScanWidth;
      lo = std::max<int64_t>(0, static_cast<int64_t>(rng_() % rows) - width);
      hi = std::min<int64_t>(lo + width, rows) - 1;
    }
    int64_t result = 0;
    uint64_t rows_returned = 0;
    Status s = Admitted(
        setup_->read_service(), &read_session_,
        index ? spec_.index_class : spec_.scan_class, false, [&] {
          Status st = read_session_.UsePurpose(level == 0 ? "p_ADDRESS"
                                                          : "p_CITY");
          if (!st.ok()) return st;
          Result<std::unique_ptr<PreparedStatement>> stmt =
              Status::OK();
          {
            Span span(SpanName::kQueryPrepare);
            stmt = read_session_.Prepare(index ? kIndexSql : kScanSql);
          }
          if (!stmt.ok()) return stmt.status();
          if (index) {
            st = (*stmt)->Bind(0, Value::String(level == 0
                                                    ? domain.addresses[label]
                                                    : domain.cities[label]));
          } else {
            st = (*stmt)->BindAll({Value::Int64(lo), Value::Int64(hi)});
          }
          if (!st.ok()) return st;
          Result<std::unique_ptr<Cursor>> cursor = Status::OK();
          {
            Span span(index ? SpanName::kQueryOpenIndex
                            : SpanName::kQueryOpenScan);
            cursor = (*stmt)->ExecuteCursor();
          }
          if (!cursor.ok()) return cursor.status();
          Span span(index ? SpanName::kQueryDrainIndex
                          : SpanName::kQueryDrainScan);
          const CursorBatch* batch = nullptr;
          for (;;) {
            auto more = (*cursor)->NextBatch(&batch);
            if (!more.ok()) return more.status();
            if (!*more) break;
            rows_returned += batch->size();
            if (!index && batch->size() > 0) {
              result = batch->values(0)[0].int64();
            }
          }
          return Status::OK();
        });
    if (!s.ok()) return s;
    ++stats_.reads_ok;
    stats_.rows_returned += rows_returned;
    if (index) result = static_cast<int64_t>(rows_returned);
    Check(index, level, label, lo, hi, result, rows_returned);
    return s;
  }

  void Check(bool index, int level, size_t label, int64_t lo, int64_t hi,
             int64_t result, uint64_t rows_returned) {
    // The engine's ungrouped aggregate yields no row over empty input
    // (pushdown_test pins this), so zero rows reads as a count of 0.
    if (!index && rows_returned > 1) {
      stats_.Error("aggregate returned " + std::to_string(rows_returned) +
                   " rows");
      return;
    }
    if (setup_->aged == nullptr) {
      // Live stream: exact counts depend on degradation timing; a scan can
      // never count more rows than its score range holds.
      if (!index && result > hi - lo + 1) {
        stats_.Error("scan counted " + std::to_string(result) +
                     " rows in a range of " + std::to_string(hi - lo + 1));
      }
      return;
    }
    const int64_t expected = index ? setup_->model.ExpectIndex(level, label)
                                   : setup_->model.ExpectScan(level, lo, hi);
    if (result != expected) {
      stats_.Error(std::string(index ? "index" : "scan") + " statement at " +
                   (level == 0 ? "ADDRESS" : "CITY") + " returned " +
                   std::to_string(result) + ", model predicts " +
                   std::to_string(expected));
    }
  }

  const Spec& spec_;
  Setup* setup_;
  std::mt19937_64 rng_;
  std::atomic<int64_t>* next_score_;
  Session read_session_;
  Session write_session_;
  ClientStats stats_;
  int64_t early_end_ns_ = 0;
};

/// Open loop over one Poisson arrival stream per request kind at a fixed
/// mean rate: each request is due when the stream says, whatever the engine
/// did, and runs as soon as the thread is free. Random (not evenly spaced)
/// arrivals keep streams of equal rate from phase-locking against each
/// other or against the engine's periodic work, which would otherwise pick
/// one interference pattern per run.
void OpenLoop(Client* client, int64_t t0, int64_t end,
              std::vector<std::pair<Kind, double>> rates) {
  struct Stream {
    Kind kind;
    std::exponential_distribution<double> gap_ns;
    double next;
  };
  std::vector<Stream> streams;
  for (const auto& [kind, rate] : rates) {
    if (rate <= 0) continue;
    Stream stream{kind, std::exponential_distribution<double>(rate / 1e9), 0};
    stream.next = static_cast<double>(t0) + stream.gap_ns(client->rng());
    streams.push_back(stream);
  }
  while (!streams.empty()) {
    auto next = std::min_element(
        streams.begin(), streams.end(),
        [](const Stream& a, const Stream& b) { return a.next < b.next; });
    const int64_t due = static_cast<int64_t>(next->next);
    if (due >= end) break;
    next->next += next->gap_ns(client->rng());
    const int64_t now = NowNs();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    client->stats().gen_late_ms.Add(static_cast<double>(NowNs() - due) / 1e6);
    client->Issue(next->kind, due);
  }
}

void ClosedLoop(Client* client, int64_t end, double index_share) {
  std::bernoulli_distribution pick_index(index_share);
  while (NowNs() < end) {
    const Kind kind = pick_index(client->rng()) ? Kind::kIndex : Kind::kScan;
    client->Issue(kind, NowNs());
  }
}

void Sample(const Spec& spec, Setup* setup, int64_t t0, int64_t end,
            SamplerStats* out) {
  Database* stream = setup->stream.get();
  Database* audited = spec.audit_stream ? stream : setup->read_db();
  WorkerPool* pool = setup->read_db()->worker_pool();
  int64_t next_audit = t0 + kFirstAuditNs;
  for (int64_t due = t0; due < end; due += kSamplePeriodNs) {
    const int64_t now_ns = NowNs();
    if (now_ns < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now_ns));
    }
    const int64_t start = NowNs();
    {
      Span root(SpanName::kReqSample);
      const Micros now = stream->clock()->NowMicros();
      Micros deadline, payload;
      size_t waiters, free_workers;
      {
        Span span(SpanName::kDegradeNextDeadline);
        deadline = stream->degradation()->NextDeadline();
      }
      {
        Span span(SpanName::kWalEarliestPayload);
        payload = stream->wal()->EarliestPayloadDeadline();
      }
      {
        Span span(SpanName::kWalSyncWaiters);
        waiters = stream->wal()->SyncWaiters();
      }
      {
        Span span(SpanName::kPoolFreeWorkers);
        free_workers = pool->free_workers();
      }
      const auto age_ms = [now](Micros d) {
        return d == kForever || d >= now ? 0.0
                                         : static_cast<double>(now - d) / 1e3;
      };
      out->lateness_ms.Add(age_ms(deadline));
      out->exposure_ms.Add(age_ms(payload));
      out->sync_waiters.Add(static_cast<double>(waiters));
      out->pool_busy.Add(1.0 - static_cast<double>(free_workers) /
                                   static_cast<double>(pool->size()));
      if (start >= next_audit) {
        next_audit += kAuditPeriodNs;
        const int64_t audit_start = NowNs();
        AuditReport report;
        {
          Span span(SpanName::kMaintainAudit);
          report = audited->Audit();
        }
        out->audit_ms.Add(static_cast<double>(NowNs() - audit_start) / 1e6);
        // The frozen table is fully degraded for its instant: any finding
        // there is an engine defect. Stream findings are what lateness
        // measures, not a failed check.
        if (audited != stream && !report.clean() && out->errors.size() < 5) {
          out->errors.push_back("audit of the frozen table: " +
                                report.ToString());
        }
      }
    }
    out->wall_ns += static_cast<double>(NowNs() - start);
  }
}

// ---------------------------------------------------------------------------
// Engine counters
// ---------------------------------------------------------------------------

struct Snapshot {
  Database::Stats stats;
  BufferPool::Stats heap;
  Table::Stats table;
  uint64_t reserved_grants = 0;
};

Snapshot Take(Database* db) {
  Snapshot s;
  s.stats = db->stats();
  if (Table* table = db->GetTable("pings")) {
    s.table = table->stats();
    for (uint32_t p = 0; p < table->num_partitions(); ++p) {
      const BufferPool::Stats pool = table->partition(p)->heap_pool()->stats();
      s.heap.hits += pool.hits;
      s.heap.misses += pool.misses;
    }
  }
  s.reserved_grants = db->worker_pool()->reserved_grants();
  return s;
}

void CheckInvariants(const char* which, const Database::Stats& s,
                     std::vector<std::string>* errors) {
  const auto fail = [&](const std::string& what) {
    errors->push_back(std::string(which) + " database: " + what);
  };
  if (s.wal.sync_requests != s.wal.syncs + s.wal.commits_absorbed) {
    fail("wal sync_requests " + std::to_string(s.wal.sync_requests) +
         " != syncs " + std::to_string(s.wal.syncs) + " + commits_absorbed " +
         std::to_string(s.wal.commits_absorbed));
  }
  const auto& v = s.service;
  if (v.admitted + v.rejected_overload + v.rejected_shutdown +
          v.rejected_deadline !=
      v.submitted) {
    fail("service admitted + rejected != submitted (" +
         std::to_string(v.submitted) + ")");
  }
  if (s.io.sync_failures != 0) {
    fail("io sync_failures = " + std::to_string(s.io.sync_failures));
  }
}

// ---------------------------------------------------------------------------
// One measured pass
// ---------------------------------------------------------------------------

struct Pass {
  double seconds = 0;
  bool single_db = false;  // reads hit the stream database
  ClientStats clients;
  SamplerStats sampler;
  Snapshot read_before, read_after, stream_before, stream_after;
  ProcCounters proc_before, proc_after;
  uint64_t stream_live_rows = 0;
  uint64_t stream_disk_bytes = 0;
  std::vector<std::string> errors;
};

Pass Measure(const Spec& spec, Setup* setup, uint64_t seed, double seconds) {
  Pass pass;
  pass.seconds = seconds;
  pass.single_db = setup->aged == nullptr;
  std::atomic<int64_t> next_score{0};
  pass.read_before = Take(setup->read_db());
  pass.stream_before = Take(setup->stream.get());
  pass.proc_before = ReadProcCounters();
  // Load starts a fixed time after the stream database opened, so the
  // maintenance daemon's cadence (anchored at open) meets the first
  // payload deadlines at the same phase in every run.
  const int64_t t0 =
      std::max(NowNs() + 20'000'000, setup->stream_opened_ns + kStartAfterOpenNs);
  const int64_t end = t0 + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::unique_ptr<Client>> clients;
  const auto add_client = [&] {
    clients.push_back(std::make_unique<Client>(
        spec, setup, seed * 1000 + clients.size() + 7, &next_score));
    clients.back()->set_early_end(
        t0 + static_cast<int64_t>(seconds * 1e9 * kBaselineShare));
    return clients.back().get();
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < spec.writers; ++w) {
    Client* c = add_client();
    threads.emplace_back([c, t0, end, &spec] {
      OpenLoop(c, t0, end, {{Kind::kIngest, spec.batches_per_s}});
    });
  }
  for (const auto& [index_rate, scan_rate] : spec.reader_rates) {
    Client* c = add_client();
    threads.emplace_back([c, t0, end, index_rate, scan_rate] {
      OpenLoop(c, t0, end, {{Kind::kIndex, index_rate}, {Kind::kScan, scan_rate}});
    });
  }
  for (int r = 0; r < spec.closed_readers; ++r) {
    Client* c = add_client();
    threads.emplace_back([c, t0, end, &spec] {
      const int64_t now = NowNs();
      if (now < t0) std::this_thread::sleep_for(std::chrono::nanoseconds(t0 - now));
      ClosedLoop(c, end, spec.closed_index_share);
    });
  }
  threads.emplace_back(
      [&spec, setup, t0, end, &pass] { Sample(spec, setup, t0, end, &pass.sampler); });
  for (auto& t : threads) t.join();
  pass.proc_after = ReadProcCounters();
  pass.read_after = Take(setup->read_db());
  pass.stream_after = Take(setup->stream.get());
  for (const auto& c : clients) pass.clients.Merge(c->stats());
  pass.errors = pass.clients.errors;
  for (const auto& e : pass.sampler.errors) pass.errors.push_back(e);

  if (Table* table = setup->stream->GetTable("pings")) {
    pass.stream_live_rows = table->live_rows();
  }
  pass.stream_disk_bytes = DirBytes(setup->dir + "/stream");

  // Every acknowledged batch committed, with exactly its rows.
  const auto& sb = pass.stream_before;
  const auto& sa = pass.stream_after;
  if (sa.stats.txn.committed - sb.stats.txn.committed <
      pass.clients.acked_batches) {
    pass.errors.push_back(
        "acked batches " + std::to_string(pass.clients.acked_batches) +
        " exceed committed transactions " +
        std::to_string(sa.stats.txn.committed - sb.stats.txn.committed));
  }
  if (sa.table.inserts - sb.table.inserts != pass.clients.acked_rows) {
    pass.errors.push_back(
        "acked rows " + std::to_string(pass.clients.acked_rows) +
        " != rows inserted " + std::to_string(sa.table.inserts - sb.table.inserts));
  }
  CheckInvariants("stream", sa.stats, &pass.errors);
  if (setup->aged) CheckInvariants("read", pass.read_after.stats, &pass.errors);
  return pass;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

/// Whole-run view of one timing: sample count, mean, median and the
/// highest percentile with at least ten samples beyond it.
std::string SampleJson(const Samples& s) {
  const double top = s.HighestSupported();
  return "{\"n\": " + std::to_string(s.count()) + ", \"mean\": " +
         Num(s.Mean()) + ", \"p50\": " + Num(s.Percentile(50)) +
         ", \"highest_supported_pct\": " + Num(top) + ", \"at_highest\": " +
         Num(top > 0 ? s.Percentile(top) : 0) + "}";
}

std::string SampleJson(const ChunkedSamples& s) {
  const std::string whole = SampleJson(s.all());
  std::string p50, p99;
  for (int c = 0; c < ChunkedSamples::kChunks; ++c) {
    const Samples chunk = s.Chunk(c);
    p50 += (c ? ", " : "") + Num(chunk.Percentile(50));
    p99 += (c ? ", " : "") + Num(chunk.Percentile(99));
  }
  return whole.substr(0, whole.size() - 1) + ", \"chunk_p50\": [" + p50 +
         "], \"chunk_p99\": [" + p99 + "]}";
}

/// A p99 is valid only when at least ten samples lie beyond it; otherwise
/// the run is too short and says so as a failed check.
double P99(const Samples& s, const std::string& what,
           std::vector<std::string>* errors) {
  if (!s.Supports(99)) {
    errors->push_back("run too short for " + what + " p99: " +
                      std::to_string(s.count()) + " samples");
  }
  return s.Percentile(99);
}

/// Median of the chunks' p99 when every chunk supports it, else the
/// whole run's.
double P99(const ChunkedSamples& s, const std::string& what,
           std::vector<std::string>* errors) {
  if (s.Supports(99)) return s.MedianOfChunks(99);
  return P99(s.all(), what, errors);
}

/// End-to-end metrics: the ones that hold steady on a shared host. The
/// request latencies are reported per layer (--trace 1) and in the report
/// line instead: CPU steal on this class of host moves them by more than
/// any regression bound from one run to the next.
void EndToEnd(const Pass& pass, double setup_s, RunOutcome* out) {
  const ClientStats& c = pass.clients;
  const SamplerStats& sm = pass.sampler;
  auto& m = out->metrics;
  auto& e = out->errors;
  m.push_back({"setup_s", setup_s, "s"});
  m.push_back({"lateness_mean_ms", sm.lateness_ms.Mean(), "ms"});
  m.push_back({"lateness_p99_ms", P99(sm.lateness_ms, "lateness", &e), "ms"});
  m.push_back(
      {"log_exposure_p99_ms", P99(sm.exposure_ms, "log exposure", &e), "ms"});
  m.push_back({"cpu_ms_per_req",
               Ratio(pass.proc_after.cpu_ms - pass.proc_before.cpu_ms,
                     static_cast<double>(c.attempted)),
               "ms"});
  m.push_back({"peak_rss_mb", pass.proc_after.peak_rss_mb, "MB"});
}

void PerLayer(const Pass& pass, const Pass& untraced, const TraceSummary& trace,
              RunOutcome* out) {
  const ClientStats& c = pass.clients;
  const double secs = pass.seconds;
  const auto& rs = pass.read_after.stats;
  const auto& rs0 = pass.read_before.stats;
  const auto& ss = pass.stream_after.stats;
  const auto& ss0 = pass.stream_before.stats;
  const auto d = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  const auto span_p = [&](SpanName name, double p) {
    const auto it = trace.by_name.find(name);
    return it == trace.by_name.end() ? 0.0 : it->second.duration_us.Percentile(p);
  };
  auto& m = out->metrics;
  auto& e = out->errors;

  // request latencies (wall clock, from each request's due time)
  m.push_back({"read_ops_per_s", Ratio(c.reads_ok, pass.seconds), "stmt/s"});
  m.push_back({"index_read_p50_ms", c.index_ms.MedianOfChunks(50), "ms"});
  m.push_back({"index_read_p99_ms", P99(c.index_ms, "index read", &e), "ms"});
  m.push_back({"scan_read_p50_ms", c.scan_ms.MedianOfChunks(50), "ms"});
  m.push_back({"scan_read_p99_ms", P99(c.scan_ms, "scan read", &e), "ms"});
  m.push_back({"commit_p50_ms", c.commit_ms.MedianOfChunks(50), "ms"});
  m.push_back({"commit_p99_ms", P99(c.commit_ms, "commit", &e), "ms"});

  // service (both front ends when reads have their own database)
  using SS = Database::ServiceStats;
  const auto svc_sum = [&](uint64_t SS::*field) {
    const double stream = d(ss.service.*field, ss0.service.*field);
    return pass.single_db ? stream
                          : stream + d(rs.service.*field, rs0.service.*field);
  };
  const double submitted = svc_sum(&SS::submitted);
  m.push_back({"service.admit_wait_p50_us", span_p(SpanName::kServiceAdmit, 50), "us"});
  m.push_back({"service.admit_wait_p99_us", span_p(SpanName::kServiceAdmit, 99), "us"});
  m.push_back({"service.queued_frac", Ratio(svc_sum(&SS::queued), submitted), "ratio"});
  m.push_back({"service.rejected_frac",
               Ratio(svc_sum(&SS::rejected_overload) + svc_sum(&SS::rejected_deadline) +
                         svc_sum(&SS::rejected_shutdown),
                     submitted),
               "ratio"});
  m.push_back({"service.max_queue_depth",
               static_cast<double>(std::max(rs.service.max_queue_depth,
                                            ss.service.max_queue_depth)),
               "count"});

  // query (read database)
  const double stmts = static_cast<double>(c.reads_ok);
  const double scanned = d(rs.scan.rows, rs0.scan.rows);
  m.push_back({"query.prepare_us", span_p(SpanName::kQueryPrepare, 50), "us"});
  m.push_back({"query.open_us.index", span_p(SpanName::kQueryOpenIndex, 50), "us"});
  m.push_back({"query.open_us.scan", span_p(SpanName::kQueryOpenScan, 50), "us"});
  m.push_back({"query.drain_us.index", span_p(SpanName::kQueryDrainIndex, 50), "us"});
  m.push_back({"query.drain_us.scan", span_p(SpanName::kQueryDrainScan, 50), "us"});
  m.push_back({"query.rows_examined_per_result",
               Ratio(scanned, static_cast<double>(c.rows_returned)), "ratio"});
  m.push_back({"scan.prefiltered_frac",
               Ratio(d(rs.scan.rows_prefiltered, rs0.scan.rows_prefiltered), scanned),
               "ratio"});
  m.push_back({"scan.probes_issued_per_row",
               Ratio(d(rs.scan.store_probes_issued, rs0.scan.store_probes_issued),
                     scanned),
               "ratio"});
  m.push_back({"scan.morsels_stolen_frac",
               Ratio(d(rs.scan.morsels_stolen, rs0.scan.morsels_stolen),
                     d(rs.scan.morsels_claimed, rs0.scan.morsels_claimed)),
               "ratio"});
  m.push_back({"scan.prefetch_stalls_per_stmt",
               Ratio(d(rs.scan.prefetch_stalls, rs0.scan.prefetch_stalls), stmts),
               "ratio"});

  // storage
  const double hits = d(pass.read_after.heap.hits, pass.read_before.heap.hits);
  const double misses =
      d(pass.read_after.heap.misses, pass.read_before.heap.misses);
  m.push_back({"storage.heap_hit_rate", Ratio(hits, hits + misses), "ratio"});
  m.push_back({"storage.live_rows", static_cast<double>(pass.stream_live_rows), "count"});
  m.push_back({"storage.disk_bytes_per_live_row",
               Ratio(static_cast<double>(pass.stream_disk_bytes),
                     static_cast<double>(pass.stream_live_rows)),
               "B/row"});

  // db / txn / wal / io (stream database)
  const double rows = static_cast<double>(c.acked_rows);
  m.push_back({"wal.syncs_per_commit",
               Ratio(d(ss.wal.syncs, ss0.wal.syncs),
                     d(ss.wal.sync_requests, ss0.wal.sync_requests)),
               "ratio"});
  m.push_back({"wal.bytes_per_row",
               Ratio(d(ss.wal.bytes_appended, ss0.wal.bytes_appended), rows), "B/row"});
  m.push_back({"wal.sync_waiters_p99", pass.sampler.sync_waiters.Percentile(99), "count"});
  m.push_back({"txn.aborted_frac",
               Ratio(d(ss.txn.aborted, ss0.txn.aborted), d(ss.txn.started, ss0.txn.started)),
               "ratio"});
  m.push_back({"io.writes_per_row", Ratio(d(ss.io.writes, ss0.io.writes), rows), "ratio"});
  m.push_back({"proc.wchar_bytes_per_row",
               Ratio(d(pass.proc_after.wchar, pass.proc_before.wchar), rows), "B/row"});
  m.push_back({"wal.log_exposure_mean_ms", pass.sampler.exposure_ms.Mean(), "ms"});
  m.push_back({"wal.segments_retired_per_s",
               d(ss.wal.segments_retired, ss0.wal.segments_retired) / secs, "1/s"});
  m.push_back({"wal.scrub_bytes_per_row",
               Ratio(d(ss.wal.scrub_bytes, ss0.wal.scrub_bytes), rows), "B/row"});

  // degrade
  const double steps = d(ss.degradation.steps, ss0.degradation.steps);
  const double moved = d(ss.degradation.values_moved, ss0.degradation.values_moved);
  m.push_back({"degrade.passes_per_s",
               d(ss.degradation.passes, ss0.degradation.passes) / secs, "1/s"});
  m.push_back({"degrade.values_per_s", moved / secs, "1/s"});
  m.push_back({"degrade.values_per_step", Ratio(moved, steps), "ratio"});
  m.push_back({"degrade.lock_aborts",
               d(ss.degradation.lock_aborts, ss0.degradation.lock_aborts), "count"});

  // maintain
  const double ckpts = d(ss.checkpoints, ss0.checkpoints);
  m.push_back({"maintain.checkpoints_per_s",
               d(ss.maintenance.checkpoints, ss0.maintenance.checkpoints) / secs, "1/s"});
  m.push_back({"maintain.forced_checkpoints",
               d(ss.maintenance.forced_checkpoints, ss0.maintenance.forced_checkpoints),
               "count"});
  m.push_back({"maintain.adaptive_pulls",
               d(ss.maintenance.adaptive_checkpoint_pulls,
                 ss0.maintenance.adaptive_checkpoint_pulls),
               "count"});
  m.push_back({"checkpoint.partitions_flushed_per_ckpt",
               Ratio(d(ss.checkpoint_partitions_flushed, ss0.checkpoint_partitions_flushed),
                     ckpts),
               "ratio"});
  m.push_back({"maintain.audit_ms", pass.sampler.audit_ms.Percentile(50), "ms"});

  // util
  m.push_back({"pool.busy_frac", pass.sampler.pool_busy.Mean(), "ratio"});
  m.push_back({"pool.reserved_grants",
               d(pass.stream_after.reserved_grants, pass.stream_before.reserved_grants) +
                   (pass.single_db ? 0
                                   : d(pass.read_after.reserved_grants,
                                       pass.read_before.reserved_grants)),
               "count"});

  // harness
  m.push_back({"gen.late_p99_ms", c.gen_late_ms.Percentile(99), "ms"});

  // trace bookkeeping: self times against independently timed wall time
  const double wall = c.wall_ns + pass.sampler.wall_ns;
  m.push_back({"trace.accounted_frac", Ratio(trace.self_ns, wall), "ratio"});
  // The baseline pass lasts kBaselineShare of the traced one; compare the
  // requests of the same stretch after load start, since the stream table
  // grows while the degrader falls behind.
  const ClientStats& u = untraced.clients;
  m.push_back({"trace.overhead_frac",
               Ratio(c.early_ns / std::max<double>(c.early_requests, 1),
                     u.wall_ns / std::max<double>(u.attempted, 1)) -
                   1.0,
               "ratio"});
  for (int n = 0; n < static_cast<int>(SpanName::kCount); ++n) {
    const SpanName name = static_cast<SpanName>(n);
    const auto it = trace.by_name.find(name);
    const double self = it == trace.by_name.end() ? 0 : it->second.self_ns;
    m.push_back({std::string("self_frac.") + SpanNameString(name),
                 Ratio(self, wall), "ratio"});
  }
  const double accounted = Ratio(trace.self_ns, wall);
  if (std::abs(accounted - 1.0) > 0.10) {
    out->errors.push_back("per-layer self times cover " + Num(accounted) +
                          " of request wall time (must be within 10%)");
  }
  if (trace.nesting_errors != 0) {
    out->errors.push_back(std::to_string(trace.nesting_errors) +
                          " spans lie outside their parent");
  }
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + Num(values[i]);
  }
  return out + "]";
}

std::string Report(const RunOptions& options, const Spec& spec,
                   uint64_t aged_heap_bytes, uint64_t read_pool_bytes,
                   const Pass& pass,
                   const std::vector<double>& setup_cpu_s,
                   const std::vector<double>& setup_wall_s) {
  const ClientStats& c = pass.clients;
  return std::string("{\"workload\": ") + Quote(spec.name) +
         ", \"seed\": " + std::to_string(options.seed) +
         ", \"seconds\": " + Num(options.seconds) +
         ", \"trace\": " + (options.trace ? "true" : "false") +
         ", \"provenance\": {\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": " + Quote(CpuModel()) +
         ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) +
         ", \"source\": " + Quote(options.source_id) +
         ", \"commit_policy\": \"every ingest batch is one Database::Write with "
         "WriteOptions::sync = true\""
         ", \"stream_db\": \"SystemClock, 4 partitions, 4 pool workers, "
         "background degrader + maintenance daemon at default cadence, "
         "LCP ADDRESS 0.5s -> CITY 0.5s -> REGION 1s -> removed\"}" +
         ", \"sizes\": {\"aged_rows\": " + std::to_string(spec.aged_rows) +
         ", \"aged_heap_bytes\": " + std::to_string(aged_heap_bytes) +
         ", \"read_heap_pool_bytes\": " + std::to_string(read_pool_bytes) +
         ", \"stream_rows_acked\": " + std::to_string(c.acked_rows) +
         ", \"stream_live_rows_end\": " + std::to_string(pass.stream_live_rows) +
         ", \"stream_disk_bytes_end\": " + std::to_string(pass.stream_disk_bytes) +
         "}, \"setup_cpu_s_each\": " + JsonArray(setup_cpu_s) +
         ", \"setup_wall_s_each\": " + JsonArray(setup_wall_s) +
         ", \"requests\": {\"attempted\": " + std::to_string(c.attempted) +
         ", \"failed\": " + std::to_string(c.failed) +
         ", \"reads_ok\": " + std::to_string(c.reads_ok) +
         ", \"acked_batches\": " + std::to_string(c.acked_batches) + "}" +
         ", \"samples\": {\"index_read_ms\": " + SampleJson(c.index_ms) +
         ", \"scan_read_ms\": " + SampleJson(c.scan_ms) +
         ", \"commit_ms\": " + SampleJson(c.commit_ms) +
         ", \"lateness_ms\": " + SampleJson(pass.sampler.lateness_ms) +
         ", \"log_exposure_ms\": " + SampleJson(pass.sampler.exposure_ms) +

         ", \"gen_late_ms\": " + SampleJson(c.gen_late_ms) +
         ", \"audit_ms\": " + SampleJson(pass.sampler.audit_ms) + "}}";
}

}  // namespace

RunOutcome RunWorkload(const RunOptions& options) {
  RunOutcome out;
  const Spec* spec = nullptr;
  for (const Spec& s : Specs()) {
    if (options.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    out.errors.push_back("unknown workload " + options.workload);
    return out;
  }
  const std::string dir = options.work_dir + "/db-" + spec->name + "-" +
                          std::to_string(getpid());

  // setup_s is the median CPU time (user + system, every thread) of one
  // set-up, which host CPU steal does not inflate. Set-up is repeated at
  // least kMinSetups times for half of kSetupWindowNs before the measured
  // pass, whose set-up is the last of them, and again for the other half
  // after it, so the median spans the whole run. A traced run sets up
  // twice: an untraced pass gives the baseline the tracing overhead is
  // measured against.
  std::vector<double> setup_cpu_s, setup_wall_s;
  std::unique_ptr<Setup> setup;
  const auto close_setup = [&] {
    if (!setup) return;
    Status closed = setup->Close();
    if (!closed.ok()) out.errors.push_back("close: " + closed.ToString());
    setup.reset();
  };
  // Replaces the current set-up with `count` or more new ones, built until
  // `window_ns` has passed; false when one fails.
  const auto set_up = [&](int count, int64_t window_ns) {
    const int64_t window_start = NowNs();
    for (int i = 0; i < count || (NowNs() - window_start < window_ns &&
                                  setup_cpu_s.size() < kMaxSetups);
         ++i) {
      close_setup();
      const int64_t start = NowNs();
      const double cpu_start = ReadProcCounters().cpu_ms;
      auto built = BuildSetup(*spec, options.seed, dir);
      if (!built.ok()) {
        out.errors.push_back("set-up failed: " + built.status().ToString());
        return false;
      }
      setup = std::move(*built);
      setup_cpu_s.push_back((ReadProcCounters().cpu_ms - cpu_start) / 1e3);
      setup_wall_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    }
    return true;
  };
  Pass untraced;
  if (options.trace) {
    if (!set_up(1, 0)) return out;
    untraced = Measure(*spec, setup.get(), options.seed,
                       options.seconds * kBaselineShare);
    if (!set_up(1, 0)) return out;
  } else if (!set_up(kMinSetups, kSetupWindowNs / 2)) {
    return out;
  }
  const uint64_t aged_heap_bytes = setup->aged_heap_bytes;
  const uint64_t read_pool_bytes = setup->read_pool_bytes;
  Tracer::SetEnabled(options.trace);
  const Pass measured =
      Measure(*spec, setup.get(), options.seed, options.seconds);
  Tracer::SetEnabled(false);
  for (const auto& e : untraced.errors) out.errors.push_back(e);
  for (const auto& e : measured.errors) out.errors.push_back(e);
  close_setup();
  if (!options.trace) {
    set_up(1, kSetupWindowNs / 2);
    close_setup();
  }
  out.attempted = measured.clients.attempted;
  out.failed = measured.clients.failed;

  if (options.trace) {
    const TraceSummary trace = Summarize();
    PerLayer(measured, untraced, trace, &out);
    const std::string spans = options.work_dir + "/spans-" + spec->name + ".tsv";
    if (!Tracer::WriteTsv(spans)) out.errors.push_back("cannot write " + spans);
  } else {
    std::vector<double> sorted = setup_cpu_s;
    std::sort(sorted.begin(), sorted.end());
    EndToEnd(measured, sorted[sorted.size() / 2], &out);
  }
  out.report = Report(options, *spec, aged_heap_bytes, read_pool_bytes,
                      measured, setup_cpu_s, setup_wall_s);
  return out;
}

}  // namespace perfbench
