#ifndef INSTANTDB_DB_DATABASE_H_
#define INSTANTDB_DB_DATABASE_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/options.h"
#include "db/table.h"
#include "db/write_batch.h"
#include "degrade/degradation_engine.h"
#include "maintain/maintenance_daemon.h"
#include "txn/lock_manager.h"
#include "txn/transaction.h"
#include "util/worker_pool.h"
#include "wal/wal_manager.h"

namespace instantdb {

/// Top-level configuration of an InstantDB instance.
struct DbOptions {
  std::string path;
  StorageOptions storage;
  WalOptions wal;
  DegradationOptions degradation;
  /// Self-driving maintenance: background checkpoint cadence + continuous
  /// deletion-assurance audits (maintain/maintenance_daemon.h). The daemon
  /// object always exists (pumped tests drive it via RunOnce); the
  /// scheduler thread starts only when `maintenance.enabled`.
  MaintenanceOptions maintenance;
  DegradableLayout layout = DegradableLayout::kStateStores;
  /// Hash-partitions of the row-id space per table. 1 (the default) keeps
  /// the unpartitioned on-disk layout; higher values let scans, batched
  /// ingest and the degradation worker pool scale across cores. The count
  /// is persisted per table at creation — reopening with a different value
  /// keeps the on-disk count.
  uint32_t partitions = 1;
  /// Maintain bitmap indexes alongside the multi-resolution trees (OLAP).
  bool bitmap_indexes = false;
  /// External clock (a VirtualClock for tests/benchmarks). When null the
  /// database owns a SystemClock.
  Clock* clock = nullptr;
  /// Filesystem seam (io/env.h): every durability-bearing file operation of
  /// this instance routes through it. nullptr = Env::Default(). Tests pass a
  /// FaultInjectionEnv to exercise fsync EIO, short writes, ENOSPC and
  /// simulated crashes.
  Env* env = nullptr;
};

/// \brief The InstantDB engine facade: catalog + WAL + transactions +
/// tables + degrader, with crash recovery on open.
///
/// Typical embedded use:
/// \code
///   DbOptions options;
///   options.path = "/data/mydb";
///   auto db = Database::Open(options);
///   auto schema = Schema::Make({
///       ColumnDef::Stable("user", ValueType::kString),
///       ColumnDef::Degradable("location", LocationDomain(),
///                             Fig2LocationLcp())});
///   db->CreateTable("pings", *schema);
///   db->Insert("pings", {Value::String("alice"),
///                        Value::String("11 Rue Lepic")});
/// \endcode
///
/// SQL access (DECLARE PURPOSE / SELECT / INSERT / DELETE) is provided by
/// `Session` in query/session.h.
class Database {
 public:
  static Result<std::unique_ptr<Database>> Open(const DbOptions& options);
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Orderly shutdown, called by the destructor and safe to call twice.
  /// The shutdown order is a contract (asserted in the implementation):
  ///   1. maintenance daemon stops — no new background checkpoint or audit
  ///      can start;
  ///   2. the degrader's background thread stops;
  ///   3. bounded quiesce (MaintenanceOptions::close_quiesce_timeout) drains
  ///      any still-in-flight caller-pumped degradation pass;
  ///   4. a final checkpoint runs against the settled state.
  /// A quiesce timeout is logged, not fatal — checkpoints are fuzzy, so the
  /// final checkpoint is correct against in-flight work too.
  Status Close();

  // --- DDL -------------------------------------------------------------------

  Result<const TableDef*> CreateTable(const std::string& name, Schema schema);
  /// Drops the table and securely erases all its storage.
  Status DropTable(const std::string& name);
  /// nullptr when absent.
  Table* GetTable(const std::string& name) const;
  Table* GetTable(TableId id) const;
  const Catalog& catalog() const { return *catalog_; }

  // --- transactions ------------------------------------------------------------

  std::unique_ptr<Transaction> Begin() { return tm_->Begin(); }
  Status Commit(Transaction* txn, const WriteOptions& options = {}) {
    return tm_->Commit(txn, options.sync);
  }
  void Abort(Transaction* txn) { tm_->Abort(txn); }

  /// Applies every staged operation of `batch` atomically: one transaction,
  /// one WAL append/sync (group commit). On success the batch's `row_ids()`
  /// carry the assigned id of each staged insert. This is the scalable
  /// ingest path — per-row Insert/Delete pay the full commit overhead per
  /// row. On failure (including a wait-die lock abort) nothing is applied.
  Status Write(WriteBatch* batch, const WriteOptions& options = {});

  /// Single-statement convenience: insert one row (schema order) in its own
  /// transaction. Returns the assigned row id. Thin wrapper over the same
  /// path WriteBatch uses with a batch of one.
  Result<RowId> Insert(const std::string& table, const std::vector<Value>& row,
                       const WriteOptions& options = {});
  /// Single-statement convenience: delete one row by id.
  Status Delete(const std::string& table, RowId row_id,
                const WriteOptions& options = {});

  // --- maintenance ---------------------------------------------------------------

  /// Incremental fuzzy checkpoint: captures the per-stream begin vector
  /// under the commit barrier, flushes ONLY the partitions mutated since
  /// their last flush (fanned out over DegradationOptions::worker_threads
  /// workers — the same pool size the degrader uses), stamps the WAL
  /// CHECKPOINT manifest from the element-wise minimum of the per-partition
  /// clean-through low-water marks, and retires fully-covered segments per
  /// the privacy mode. Clean partitions cost one atomic compare — a mostly-
  /// cold database checkpoints in O(dirty), which is what keeps the segment
  /// retirement cadence (and therefore kScrub/kEncryptedEpoch timeliness)
  /// independent of total data volume.
  Status Checkpoint();

  /// Pumped degradation: run everything due at the clock's current time.
  Result<size_t> RunDegradationOnce();

  /// Partitions with mutations applied since their last checkpoint flush
  /// (latch-free poll; the daemon's cadence test). Taken under the shared
  /// DDL lock so a concurrent CreateTable/DropTable can't invalidate the
  /// table map mid-count.
  uint64_t DirtyPartitions() const;

  /// Runs `auditor` over every live table while holding the DDL lock
  /// shared, so a concurrent DropTable cannot destroy a table mid-sweep
  /// (the daemon's audit entry point; tests go through Audit()).
  AuditReport RunAuditSweep(const DeletionAuditor& auditor, Micros now,
                            Micros grace) const;

  /// On-demand deletion-assurance sweep at the clock's current time
  /// (cadence-independent; MaintenanceDaemon::RunAuditNow). The report's
  /// Verify() is the hard-fail form.
  AuditReport Audit() { return maintenance_->RunAuditNow(); }

  // --- statistics ----------------------------------------------------------------

  /// Read-path counters (snapshot in Stats::scan). Benches read parallel
  /// scan efficiency from these instead of timing guesses: `rows` / elapsed
  /// is assembly throughput, and `prefetch_stalls` counts how often a
  /// cursor's consumer outran its scan workers (waited on an empty prefetch
  /// queue) — zero stalls means the scan was consumer-bound, many means it
  /// was producer (I/O or partition) bound.
  struct ScanStats {
    /// Scan batches served to the operator pipeline (heap batches plus
    /// index-probe batches).
    uint64_t batches = 0;
    /// Rows pulled out of partition heaps / index probes before σ.
    uint64_t rows = 0;
    /// Times a streaming cursor's consumer, with no morsel left to scan
    /// itself, waited on an empty prefetch queue while its pool helpers
    /// were still producing.
    uint64_t prefetch_stalls = 0;
    /// Pushdown accounting (ScanOptions::pushdown). Per scanned row and
    /// degradable column the read path either issues a store probe or
    /// provably skips it, so on every read path (heap scans and index
    /// probes, pushdown on or off) store_probes_issued +
    /// store_probes_skipped == rows × degradable columns (asserted in
    /// tests).
    /// Rows rejected by the stable-column pre-filter before any store
    /// probe or RowView assembly:
    uint64_t rows_prefiltered = 0;
    /// (row, degradable column) store resolutions performed / avoided:
    uint64_t store_probes_issued = 0;
    uint64_t store_probes_skipped = 0;
    /// Per-worker aggregate partials folded into final results by the
    /// aggregate pushdown (0 when every aggregate ran through the cursor).
    uint64_t aggregate_partials_merged = 0;
    /// Morsel-scheduler accounting over the heap-scan paths
    /// (util/morsel.h): page-range work units claimed, how many of those
    /// were stolen from a non-home partition queue, and steals that lost
    /// the race to a queue's last morsel. Invariant (asserted in tests):
    /// a fully-drained heap scan claims exactly its morsel-plan size —
    /// morsels_claimed grows by Σ per-partition plan sizes per scan.
    uint64_t morsels_claimed = 0;
    uint64_t morsels_stolen = 0;
    uint64_t steal_failures = 0;
  };

  /// I/O-layer health (snapshot in Stats::io): physical-operation counters
  /// from the instance's Env plus the consumers' retry/error bookkeeping.
  /// Invariant (asserted by the fault-injection tests): sync_failures > 0 ⇒
  /// wal.poisoned_streams > 0 OR retries > 0 — a failed sync is never
  /// silently retried-and-forgotten (fsyncgate).
  struct IoStats {
    /// File write operations issued (appends + positional writes).
    uint64_t writes = 0;
    /// fsync/fdatasync operations issued, and how many returned an error.
    uint64_t syncs = 0;
    uint64_t sync_failures = 0;
    /// Transient I/O failures absorbed by backoff-retry in the background
    /// loops (maintenance cadence + degrader passes).
    uint64_t retries = 0;
    /// Faults injected by a FaultInjectionEnv (0 in production).
    uint64_t injected_faults = 0;
    /// First sticky background I/O error, empty when healthy (the same
    /// status Close() returns; recorded even after later retries succeed).
    std::string first_error;
  };

  /// Service front end accounting (service/service.h; zeros when none is
  /// attached). Every submission ends in exactly one terminal bucket, so
  /// admitted + rejected_overload + rejected_shutdown + rejected_deadline
  /// == submitted always (asserted in tests). `timeouts` is orthogonal: it
  /// counts every Status::Timeout returned — queue-expired (also in
  /// rejected_deadline) and mid-execution (also in admitted).
  struct ServiceStats {
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    /// Submissions that had to park in an admission queue first (a subset
    /// of whatever terminal bucket they reached).
    uint64_t queued = 0;
    /// Shed with Status::Overloaded: class queue full, or a backpressure
    /// signal dropped the (class, read/write) combination.
    uint64_t rejected_overload = 0;
    /// Drained with Status::Shutdown by Database::Close.
    uint64_t rejected_shutdown = 0;
    /// Deadline expired before admission (at submission or while queued).
    uint64_t rejected_deadline = 0;
    uint64_t timeouts = 0;
    /// Statements that returned Aborted with their CancelToken tripped.
    uint64_t cancelled = 0;
    /// High-water mark of queued-but-unadmitted statements across classes.
    uint64_t max_queue_depth = 0;
    /// Degradation dispatches that dipped into the worker-pool reserve
    /// (WorkerPool::reserved_grants) — proof the priority floor engaged.
    uint64_t degradation_reserved_dispatches = 0;
  };

  /// One-stop engine counters, so benches and tests read the engine's
  /// behavior (sync absorption, scan fan-out efficiency, checkpoint
  /// dirty-skipping) instead of inferring it from file I/O or timing.
  struct Stats {
    /// Aggregated WAL stream counters. The commit pipeline trio:
    /// `wal.syncs` (fdatasyncs issued), `wal.sync_requests` (durability
    /// demands), `wal.commits_absorbed` (demands satisfied by another
    /// leader's sync). syncs / sync_requests is the syncs-per-commit ratio
    /// group commit drives below 1 under concurrency.
    WalManager::Stats wal;
    TransactionManager::Stats txn;
    DegradationEngine::Stats degradation;
    /// Read path: batches served, rows scanned, prefetch-queue stalls.
    ScanStats scan;
    /// I/O-layer health: Env counters + background retry/error bookkeeping.
    IoStats io;
    /// Checkpoint pipeline: invocations, partitions flushed because they
    /// were dirty, and partitions skipped as clean.
    uint64_t checkpoints = 0;
    uint64_t checkpoint_partitions_flushed = 0;
    uint64_t checkpoint_partitions_clean = 0;
    /// Maintenance daemon: cadence checkpoints run/skipped/forced, audits
    /// run/failed, rows swept, worst attack window seen.
    MaintenanceDaemon::Stats maintenance;
    /// Service front end: admission/shedding/deadline accounting.
    ServiceStats service;
  };
  Stats stats() const;

  /// Live scan counters the read path increments (internal plumbing for
  /// query/plan.cc and query/cursor.cc; read the snapshot via stats()).
  struct ScanCounters {
    std::atomic<uint64_t> batches{0};
    std::atomic<uint64_t> rows{0};
    std::atomic<uint64_t> prefetch_stalls{0};
    std::atomic<uint64_t> rows_prefiltered{0};
    std::atomic<uint64_t> store_probes_issued{0};
    std::atomic<uint64_t> store_probes_skipped{0};
    std::atomic<uint64_t> aggregate_partials_merged{0};
    std::atomic<uint64_t> morsels_claimed{0};
    std::atomic<uint64_t> morsels_stolen{0};
    std::atomic<uint64_t> steal_failures{0};
  };
  ScanCounters* scan_counters() const { return &scan_counters_; }

  /// Live service-layer counters a ServiceFrontEnd increments (atomics —
  /// admissions race across sessions; read the snapshot via stats()).
  /// Database-owned so stats().service works, as zeros, with no front end
  /// attached.
  struct ServiceCounters {
    std::atomic<uint64_t> submitted{0};
    std::atomic<uint64_t> admitted{0};
    std::atomic<uint64_t> queued{0};
    std::atomic<uint64_t> rejected_overload{0};
    std::atomic<uint64_t> rejected_shutdown{0};
    std::atomic<uint64_t> rejected_deadline{0};
    std::atomic<uint64_t> timeouts{0};
    std::atomic<uint64_t> cancelled{0};
    std::atomic<uint64_t> max_queue_depth{0};
  };
  ServiceCounters* service_counters() const { return &service_counters_; }

  /// Registers a hook Close() invokes FIRST — before the maintenance
  /// daemon and degrader stop — so an attached service front end can drain
  /// its queued-but-unadmitted statements with Status::Shutdown and wait
  /// out in-flight ones instead of letting the quiesce timeout eat them.
  /// nullptr clears. One hook at a time (the attaching component owns it
  /// and must clear it before dying).
  void set_pre_close_hook(std::function<void()> hook) {
    std::lock_guard<std::mutex> lock(pre_close_mu_);
    pre_close_hook_ = std::move(hook);
  }

  /// The shared lazily-started worker pool (util/worker_pool.h), sized by
  /// DegradationOptions::worker_threads: the only source of worker threads
  /// (scans, aggregate drains, degradation passes, checkpoints, audit
  /// sweeps, recovery and index rebuilds all borrow from it).
  WorkerPool* worker_pool() const { return &worker_pool_; }

  Clock* clock() const { return clock_; }
  Env* env() const { return env_; }
  WalManager* wal() const { return wal_.get(); }
  KeyManager* keys() const { return keys_.get(); }
  LockManager* lock_manager() const { return locks_.get(); }
  TransactionManager* txn_manager() const { return tm_.get(); }
  DegradationEngine* degradation() const { return degrader_.get(); }
  MaintenanceDaemon* maintenance() const { return maintenance_.get(); }
  const DbOptions& options() const { return options_; }

 private:
  explicit Database(DbOptions options) : options_(std::move(options)) {}

  Status OpenImpl();
  Status Recover();
  /// First sticky I/O error any background loop recorded (maintenance
  /// cadence first, then degrader); OK when healthy. Close() returns it and
  /// stats().io.first_error carries its text.
  Status FirstBackgroundError() const;
  TableRuntime MakeRuntime() const;
  std::string TableDir(TableId id) const;

  DbOptions options_;
  std::unique_ptr<Clock> owned_clock_;
  Clock* clock_ = nullptr;
  /// Resolved once in OpenImpl (options_.env or Env::Default()); every
  /// component below routes its file I/O through it.
  Env* env_ = nullptr;

  std::unique_ptr<KeyManager> keys_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<WalManager> wal_;
  std::unique_ptr<LockManager> locks_;
  std::unique_ptr<TransactionManager> tm_;
  std::unique_ptr<DegradationEngine> degrader_;
  std::unique_ptr<MaintenanceDaemon> maintenance_;
  /// Guards the table map against the maintenance daemon: DDL takes it
  /// exclusive, the daemon-driven paths (Checkpoint's unit collection,
  /// DirtyPartitions, SnapshotTables-based audits) take it shared — the
  /// first background readers of `tables_` this engine has had.
  mutable std::shared_mutex ddl_mu_;
  std::map<TableId, std::unique_ptr<Table>> tables_;
  /// Read-path counters (exposed via Stats::scan); atomics because scan
  /// workers and concurrent sessions bump them in parallel.
  mutable ScanCounters scan_counters_;
  /// Service-layer counters (exposed via Stats::service); atomics because
  /// concurrent submissions bump them from caller threads.
  mutable ServiceCounters service_counters_;
  /// Close() drains the attached service front end through this before
  /// stopping anything else; guarded so attach/detach can race Close.
  std::mutex pre_close_mu_;
  std::function<void()> pre_close_hook_;
  /// Shared worker pool; threads start on first use and park between
  /// borrows. Mutable: read paths (const) borrow workers too.
  mutable WorkerPool worker_pool_{
      std::max<size_t>(options_.degradation.worker_threads, 1)};
  /// Checkpoint counters (exposed via Stats); atomics because the worker
  /// pool bumps flushed/clean concurrently.
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> checkpoint_partitions_flushed_{0};
  std::atomic<uint64_t> checkpoint_partitions_clean_{0};
  bool closed_ = false;
};

}  // namespace instantdb

#endif  // INSTANTDB_DB_DATABASE_H_
