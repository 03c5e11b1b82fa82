#include "db/database.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <shared_mutex>

#include "common/logging.h"
#include "common/strings.h"
#include "io/env.h"

namespace instantdb {

Result<std::unique_ptr<Database>> Database::Open(const DbOptions& options) {
  if (options.path.empty()) {
    return Status::InvalidArgument("DbOptions::path must be set");
  }
  if (options.partitions > kMaxPartitions) {
    return Status::InvalidArgument("DbOptions::partitions exceeds limit");
  }
  auto db = std::unique_ptr<Database>(new Database(options));
  IDB_RETURN_IF_ERROR(db->OpenImpl());
  return db;
}

Database::~Database() { Close().ok(); }

std::string Database::TableDir(TableId id) const {
  return options_.path + StringPrintf("/tables/t%u", id);
}

TableRuntime Database::MakeRuntime() const {
  TableRuntime runtime;
  runtime.storage = options_.storage;
  runtime.layout = options_.layout;
  runtime.bitmap_indexes = options_.bitmap_indexes;
  runtime.partitions = options_.partitions == 0 ? 1 : options_.partitions;
  runtime.keys = keys_.get();
  runtime.wal = wal_.get();
  runtime.clock = clock_;
  runtime.env = env_;
  return runtime;
}

Status Database::OpenImpl() {
  env_ = options_.env != nullptr ? options_.env : Env::Default();
  IDB_RETURN_IF_ERROR(env_->CreateDirs(options_.path));
  IDB_RETURN_IF_ERROR(env_->CreateDirs(options_.path + "/tables"));

  if (options_.clock != nullptr) {
    clock_ = options_.clock;
  } else {
    owned_clock_ = std::make_unique<SystemClock>();
    clock_ = owned_clock_.get();
  }

  keys_ = std::make_unique<KeyManager>(options_.path + "/KEYSTORE", env_);
  IDB_RETURN_IF_ERROR(keys_->Open());

  const std::string catalog_path = options_.path + "/CATALOG";
  if (env_->FileExists(catalog_path)) {
    IDB_ASSIGN_OR_RETURN(catalog_, Catalog::LoadFrom(catalog_path, env_));
  } else {
    catalog_ = std::make_unique<Catalog>();
  }

  // WAL sharding defaults to one stream per table partition, so a
  // partition's redo lives in exactly one stream and commits on distinct
  // partitions never share a log mutex or an fsync queue. The WalManager
  // pins whatever count is already on disk.
  WalOptions wal_options = options_.wal;
  if (wal_options.wal_streams == 0) {
    wal_options.wal_streams = options_.partitions == 0 ? 1 : options_.partitions;
  }
  wal_ = std::make_unique<WalManager>(options_.path + "/wal", wal_options,
                                      keys_.get(), env_);
  IDB_RETURN_IF_ERROR(wal_->Open());

  locks_ = std::make_unique<LockManager>();
  tm_ = std::make_unique<TransactionManager>(locks_.get(), wal_.get());
  degrader_ = std::make_unique<DegradationEngine>(
      tm_.get(), clock_, options_.degradation, &worker_pool_);

  for (const TableDef* def : catalog_->tables()) {
    auto table = std::make_unique<Table>(def, TableDir(def->id), MakeRuntime());
    IDB_RETURN_IF_ERROR(table->Open());
    degrader_->RegisterTable(table.get());
    tables_[def->id] = std::move(table);
  }

  IDB_RETURN_IF_ERROR(Recover());

  // Partitions rebuild their indexes on the worker pool — partition-
  // parallel recovery, like the degradation passes the pool was sized for.
  for (auto& [id, table] : tables_) {
    IDB_RETURN_IF_ERROR(table->RebuildIndexes(&worker_pool_));
  }

  if (options_.degradation.background_thread) {
    IDB_RETURN_IF_ERROR(degrader_->Start());
  }

  // The daemon object always exists — pumped tests drive RunOnce and
  // Audit() without a thread; only `enabled` spawns the scheduler.
  maintenance_ = std::make_unique<MaintenanceDaemon>(this, options_.maintenance);
  if (options_.maintenance.enabled) {
    IDB_RETURN_IF_ERROR(maintenance_->Start());
  }
  return Status::OK();
}

Status Database::Recover() {
  IDB_ASSIGN_OR_RETURN(std::vector<Lsn> checkpoint,
                       wal_->ReadCheckpointPositions());

  // Streams may replay in parallel only when every table partition maps
  // wholly into one stream (stream count divides the partition count):
  // then any two conflicting records share a stream, and per-stream order
  // is commit order where it matters. Otherwise the WalManager merges
  // records globally in commit-sequence order.
  bool stream_local = true;
  for (const auto& [id, table] : tables_) {
    if (table->num_partitions() % wal_->num_streams() != 0) {
      stream_local = false;
      break;
    }
  }

  // Two passes inside RecoverCommitted: committed transaction set (commit
  // frames + per-stream record counts, so a torn tail in one stream voids a
  // cross-stream commit atomically), then idempotent redo of committed
  // work. The redo callback runs concurrently across streams when
  // stream_local; the per-partition apply paths are the same ones
  // concurrent live commits exercise.
  uint64_t max_txn_id = 0;
  IDB_RETURN_IF_ERROR(wal_->RecoverCommitted(
      &worker_pool_, checkpoint, stream_local, [&](const WalRecord& record) {
        auto it = tables_.find(record.table);
        if (it == tables_.end()) return Status::OK();  // dropped table
        switch (record.type) {
          case WalRecordType::kInsert:
            return it->second->RedoInsert(record);
          case WalRecordType::kDegradeStep:
            return it->second->RedoDegrade(record);
          case WalRecordType::kDelete:
            return it->second->RedoDelete(record);
          case WalRecordType::kUpdateStable:
            return it->second->RedoUpdateStable(record);
          default:
            return Status::OK();
        }
      },
      &max_txn_id));
  // Resume transaction ids above everything in the replay range: a reused
  // id would alias this generation's records on the next recovery.
  tm_->EnsureTxnIdsAbove(max_txn_id);
  return Status::OK();
}

Result<const TableDef*> Database::CreateTable(const std::string& name,
                                              Schema schema) {
  // Exclusive against the daemon's background readers of tables_ (cadence
  // checkpoints, dirty polls, audit sweeps).
  std::unique_lock<std::shared_mutex> ddl(ddl_mu_);
  IDB_ASSIGN_OR_RETURN(const TableDef* def,
                       catalog_->CreateTable(name, std::move(schema)));
  IDB_RETURN_IF_ERROR(catalog_->SaveTo(options_.path + "/CATALOG", env_));
  auto table = std::make_unique<Table>(def, TableDir(def->id), MakeRuntime());
  IDB_RETURN_IF_ERROR(table->Open());
  IDB_RETURN_IF_ERROR(table->RebuildIndexes(&worker_pool_));
  degrader_->RegisterTable(table.get());
  tables_[def->id] = std::move(table);
  return def;
}

Status Database::DropTable(const std::string& name) {
  // Exclusive DDL lock: an in-progress audit sweep or cadence checkpoint
  // holds it shared, so the table cannot be destroyed under either.
  std::unique_lock<std::shared_mutex> ddl(ddl_mu_);
  const TableDef* def = catalog_->GetTable(name);
  if (def == nullptr) return Status::NotFound("no such table: " + name);
  const TableId id = def->id;
  degrader_->UnregisterTable(id);
  auto it = tables_.find(id);
  if (it != tables_.end()) {
    IDB_RETURN_IF_ERROR(it->second->Drop());
    tables_.erase(it);
  }
  IDB_RETURN_IF_ERROR(catalog_->DropTable(name));
  return catalog_->SaveTo(options_.path + "/CATALOG", env_);
}

Table* Database::GetTable(const std::string& name) const {
  const TableDef* def = catalog_->GetTable(name);
  return def == nullptr ? nullptr : GetTable(def->id);
}

Table* Database::GetTable(TableId id) const {
  auto it = tables_.find(id);
  return it == tables_.end() ? nullptr : it->second.get();
}

Status Database::Write(WriteBatch* batch, const WriteOptions& options) {
  batch->row_ids_.clear();
  if (batch->ops_.empty()) return Status::OK();
  batch->row_ids_.reserve(batch->ops_.size());
  auto txn = Begin();
  // Batches are overwhelmingly single-table: resolve the name once per run
  // of identical names instead of one catalog lookup per row.
  Table* table = nullptr;
  const std::string* resolved_name = nullptr;
  for (const WriteBatch::Op& op : batch->ops_) {
    if (resolved_name == nullptr || op.table != *resolved_name) {
      table = GetTable(op.table);
      resolved_name = &op.table;
    }
    if (table == nullptr) {
      Abort(txn.get());
      batch->row_ids_.clear();
      return Status::NotFound("no such table: " + op.table);
    }
    if (op.is_insert) {
      auto row_id = table->Insert(txn.get(), op.row);
      if (!row_id.ok()) {
        Abort(txn.get());
        batch->row_ids_.clear();
        return row_id.status();
      }
      batch->row_ids_.push_back(*row_id);
    } else {
      const Status status = table->Delete(txn.get(), op.row_id);
      if (!status.ok()) {
        Abort(txn.get());
        batch->row_ids_.clear();
        return status;
      }
      batch->row_ids_.push_back(kInvalidRowId);
    }
  }
  const Status status = tm_->Commit(txn.get(), options.sync);
  if (!status.ok()) batch->row_ids_.clear();
  return status;
}

Result<RowId> Database::Insert(const std::string& table_name,
                               const std::vector<Value>& row,
                               const WriteOptions& options) {
  WriteBatch batch;
  batch.Insert(table_name, row);
  IDB_RETURN_IF_ERROR(Write(&batch, options));
  return batch.row_ids()[0];
}

Status Database::Delete(const std::string& table_name, RowId row_id,
                        const WriteOptions& options) {
  WriteBatch batch;
  batch.Delete(table_name, row_id);
  return Write(&batch, options);
}

Status Database::Checkpoint() {
  // Fuzzy checkpoint: capture the replay-start LSN vector BEFORE flushing
  // any table state, at a point where no commit is between its WAL append
  // and its apply. A transaction committing mid-flush (a degradation
  // worker, a concurrent WriteBatch) may be only partially reflected in the
  // flushed metas; starting replay at `begin` re-applies it idempotently
  // instead of silently excluding it — without this, a degrade step
  // committing during the flush could resurface its accurate value after
  // recovery.
  const std::vector<Lsn> begin = tm_->CheckpointBeginPositions();

  // Write-ahead barrier: every record the partitions have already applied
  // must be durable BEFORE any store flush makes its effects durable.
  // Degrade commits reach the WAL buffers without an fsync; a store
  // checkpoint that persists their pops while the record still sits in an
  // unsynced WAL tail lets a crash forget the record but keep the pop — the
  // value is then gone from every store with no replay left to rebuild it.
  // Syncing the streams first restores the invariant that durable store
  // state is always covered by durable log.
  IDB_RETURN_IF_ERROR(wal_->Sync());

  // Incremental flush: only partitions mutated since their last flush do
  // I/O, fanned out over the degradation pool size — so one large cold
  // table no longer stalls the retirement cadence scrubbing depends on.
  // The shared DDL lock pins the table set for the whole flush: the daemon
  // checkpoints from its scheduler thread, and a concurrent DropTable must
  // not destroy a partition mid-flush.
  std::shared_lock<std::shared_mutex> ddl(ddl_mu_);
  std::vector<TablePartition*> units;
  for (auto& [id, table] : tables_) {
    for (uint32_t p = 0; p < table->num_partitions(); ++p) {
      units.push_back(table->partition(p));
    }
  }
  std::atomic<uint64_t> flushed{0};
  std::atomic<uint64_t> clean{0};
  IDB_RETURN_IF_ERROR(worker_pool_.Run(
      std::max<size_t>(options_.degradation.worker_threads, 1), units.size(),
      [&](size_t i) {
        IDB_ASSIGN_OR_RETURN(const bool ran,
                             units[i]->CheckpointIfDirty(begin));
        (ran ? flushed : clean).fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      }));
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  checkpoint_partitions_flushed_.fetch_add(flushed.load(),
                                           std::memory_order_relaxed);
  checkpoint_partitions_clean_.fetch_add(clean.load(),
                                         std::memory_order_relaxed);

  // Stamp the manifest from the per-partition low-water marks: retirement
  // must never outrun the weakest partition's durable coverage. Today every
  // partition just advanced to `begin`, so the minimum equals `begin` — but
  // deriving it from the partitions keeps the safety argument local if a
  // future path checkpoints partitions at different cadences.
  std::vector<Lsn> low_water = begin;
  for (TablePartition* unit : units) {
    const std::vector<Lsn> mark = unit->clean_through();
    if (mark.size() != low_water.size()) {
      // Empty (or stream-count-mismatched) mark = "nothing covered": pin
      // the manifest to zero rather than silently treating the partition
      // as covered. Unreachable while every partition advances above, but
      // a future partial-checkpoint cadence must fail safe.
      std::fill(low_water.begin(), low_water.end(), Lsn{0});
      break;
    }
    for (size_t s = 0; s < low_water.size(); ++s) {
      low_water[s] = std::min(low_water[s], mark[s]);
    }
  }
  return wal_->LogCheckpointAll(low_water).status();
}

uint64_t Database::DirtyPartitions() const {
  std::shared_lock<std::shared_mutex> ddl(ddl_mu_);
  uint64_t dirty = 0;
  for (const auto& [id, table] : tables_) {
    for (uint32_t p = 0; p < table->num_partitions(); ++p) {
      if (table->partition(p)->dirty()) ++dirty;
    }
  }
  return dirty;
}

AuditReport Database::RunAuditSweep(const DeletionAuditor& auditor, Micros now,
                                    Micros grace) const {
  std::shared_lock<std::shared_mutex> ddl(ddl_mu_);
  std::vector<Table*> tables;
  tables.reserve(tables_.size());
  for (const auto& [id, table] : tables_) tables.push_back(table.get());
  return auditor.Run(tables, now, grace);
}

Database::Stats Database::stats() const {
  Stats stats;
  stats.wal = wal_->stats();
  stats.txn = tm_->stats();
  stats.degradation = degrader_->stats();
  stats.scan.batches = scan_counters_.batches.load(std::memory_order_relaxed);
  stats.scan.rows = scan_counters_.rows.load(std::memory_order_relaxed);
  stats.scan.prefetch_stalls =
      scan_counters_.prefetch_stalls.load(std::memory_order_relaxed);
  stats.scan.rows_prefiltered =
      scan_counters_.rows_prefiltered.load(std::memory_order_relaxed);
  stats.scan.store_probes_issued =
      scan_counters_.store_probes_issued.load(std::memory_order_relaxed);
  stats.scan.store_probes_skipped =
      scan_counters_.store_probes_skipped.load(std::memory_order_relaxed);
  stats.scan.aggregate_partials_merged =
      scan_counters_.aggregate_partials_merged.load(std::memory_order_relaxed);
  stats.scan.morsels_claimed =
      scan_counters_.morsels_claimed.load(std::memory_order_relaxed);
  stats.scan.morsels_stolen =
      scan_counters_.morsels_stolen.load(std::memory_order_relaxed);
  stats.scan.steal_failures =
      scan_counters_.steal_failures.load(std::memory_order_relaxed);
  stats.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  stats.checkpoint_partitions_flushed =
      checkpoint_partitions_flushed_.load(std::memory_order_relaxed);
  stats.checkpoint_partitions_clean =
      checkpoint_partitions_clean_.load(std::memory_order_relaxed);
  if (maintenance_ != nullptr) stats.maintenance = maintenance_->stats();
  stats.service.submitted =
      service_counters_.submitted.load(std::memory_order_relaxed);
  stats.service.admitted =
      service_counters_.admitted.load(std::memory_order_relaxed);
  stats.service.queued = service_counters_.queued.load(std::memory_order_relaxed);
  stats.service.rejected_overload =
      service_counters_.rejected_overload.load(std::memory_order_relaxed);
  stats.service.rejected_shutdown =
      service_counters_.rejected_shutdown.load(std::memory_order_relaxed);
  stats.service.rejected_deadline =
      service_counters_.rejected_deadline.load(std::memory_order_relaxed);
  stats.service.timeouts =
      service_counters_.timeouts.load(std::memory_order_relaxed);
  stats.service.cancelled =
      service_counters_.cancelled.load(std::memory_order_relaxed);
  stats.service.max_queue_depth =
      service_counters_.max_queue_depth.load(std::memory_order_relaxed);
  stats.service.degradation_reserved_dispatches = worker_pool_.reserved_grants();
  const IoCounters io = env_->io_counters();
  stats.io.writes = io.writes;
  stats.io.syncs = io.syncs;
  stats.io.sync_failures = io.sync_failures;
  stats.io.injected_faults = io.injected_faults;
  stats.io.retries =
      stats.degradation.io_retries + stats.maintenance.io_retries;
  Status first = FirstBackgroundError();
  if (!first.ok()) stats.io.first_error = first.ToString();
  return stats;
}

Status Database::FirstBackgroundError() const {
  if (maintenance_ != nullptr) {
    Status status = maintenance_->first_error();
    if (!status.ok()) return status;
  }
  if (degrader_ != nullptr) {
    Status status = degrader_->first_error();
    if (!status.ok()) return status;
  }
  return Status::OK();
}

Result<size_t> Database::RunDegradationOnce() {
  return degrader_->RunDue(clock_->NowMicros());
}

Status Database::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  // Shutdown order contract (see the header): the service front end drains
  // FIRST — queued statements reject with Shutdown, in-flight ones finish —
  // so nothing new reaches the engine below; then the maintenance daemon
  // stops so no new background checkpoint or audit can start while the
  // engine drains; then the degrader's thread; then a bounded quiesce for
  // any still-in-flight caller-pumped pass; only then the final checkpoint.
  std::function<void()> pre_close;
  {
    std::lock_guard<std::mutex> lock(pre_close_mu_);
    pre_close = pre_close_hook_;
  }
  if (pre_close) pre_close();
  if (maintenance_ != nullptr) maintenance_->Stop();
  degrader_->Stop();
  if (!degrader_->Quiesce(options_.maintenance.close_quiesce_timeout)) {
    // Not fatal: checkpoints are fuzzy, so the final checkpoint is correct
    // against in-flight work — an orderly close just prefers quiescence.
    IDB_WARN("Close: degrader did not quiesce within %lld us",
             static_cast<long long>(options_.maintenance.close_quiesce_timeout));
  }
  assert(maintenance_ == nullptr || !maintenance_->running());
  assert(!degrader_->running());
  Status status = Checkpoint();
  // Surface the first sticky background I/O error even when the final
  // checkpoint succeeded: a background loop that hit (and maybe retried
  // past) a disk failure must not close with a silent OK.
  if (status.ok()) status = FirstBackgroundError();
  return status;
}

}  // namespace instantdb
