#ifndef INSTANTDB_DB_TABLE_H_
#define INSTANTDB_DB_TABLE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "db/table_partition.h"

namespace instantdb {

class WorkerPool;

/// Upper bound on DbOptions::partitions (sanity limit: one partition per
/// core is the useful range; this also caps what a corrupt PARTITIONS file
/// can make Open() attempt).
inline constexpr uint32_t kMaxPartitions = 1024;

/// \brief Cursor over one partition's heap, or one morsel's page range of
/// it, from Table::OpenPartitionCursor / Table::OpenMorselCursor.
///
/// The query layer's morsel loop and the deletion-assurance audit open the
/// page-range form (OpenMorselCursor); benches that shard a scan by hand
/// open one whole-partition cursor per thread — partitions own disjoint
/// rows and latches, so such cursors never contend. Each NextBatch holds
/// the partition's shared latch only while decoding and assembling that
/// batch (snapshot-per-batch semantics). Value-semantic and independent of
/// sibling cursors; the Table must outlive it.
class PartitionCursor {
 public:
  PartitionCursor() = default;

  /// One batch of TablePartition::ScanBatchFiltered: stable predicates
  /// run on the decoded tuples and state stores are probed only for the
  /// survivors (`ScanSpec{}` assembles every row). REPLACES `*out`'s
  /// contents; `limit` bounds tuples decoded, so a selective batch comes
  /// out short. `*done` is set once the range is exhausted; later calls
  /// return no rows with `*done` true. `ws` and `deltas` are the caller's
  /// per-worker scratch and counter accumulator.
  Status NextBatch(size_t limit, const ScanSpec& spec, ScanWorkspace* ws,
                   std::vector<RowView>* out, bool* done, ScanDeltas* deltas);

 private:
  friend class Table;
  explicit PartitionCursor(const TablePartition* partition,
                           PageId begin_page = 0,
                           PageId end_page = kInvalidPageId)
      : partition_(partition), pos_{begin_page, 0}, end_page_(end_page) {}

  const TablePartition* partition_ = nullptr;
  Rid pos_{0, 0};
  /// Exclusive page bound (kInvalidPageId = whole partition): a morsel
  /// cursor reports done at its range's end, not the heap's.
  PageId end_page_ = kInvalidPageId;
  bool done_ = false;
};

/// \brief One table: a router over N hash-partitions of the row-id space.
///
/// Every physical structure (heap file + buffer pool, per-(attribute, phase)
/// state stores, multi-resolution/bitmap indexes, latch, row map, in-place
/// schedule queues) lives in a `TablePartition`; the table routes each row
/// id to its owning partition with the deterministic hash `row_id % N`.
/// Recovery reuses the same hash — WAL records carry row ids, so redo needs
/// no partition-aware record types. With `TableRuntime::partitions == 1`
/// (the default) the single partition stores its files directly under the
/// table directory, preserving the unpartitioned on-disk layout; with N > 1
/// partition k lives under `<table-dir>/p<k>`. The partition count is
/// persisted in `<table-dir>/PARTITIONS` so a reopen with a different
/// DbOptions::partitions cannot mis-route recovered rows.
///
/// Partitioning is what lets throughput scale with cores: scans take one
/// partition latch at a time (writers and the degrader on other partitions
/// proceed unimpeded), and the degradation worker pool runs overdue steps
/// on distinct partitions concurrently — the paper's timeliness machinery
/// scales with the data volume it polices instead of running as one global
/// sequential sweep.
class Table {
 public:
  Table(const TableDef* def, std::string dir, const TableRuntime& runtime);
  ~Table();
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  /// Opens every partition (creating the directory layout on first open).
  /// Indexes are rebuilt separately (RebuildIndexes) after WAL replay so
  /// they reflect the recovered state.
  Status Open();
  /// Rebuilds every partition's indexes. Partitions are independent, so a
  /// table holding rows rebuilds them in parallel on `pool` (the caller
  /// plus its free workers) — this is what cuts recovery time on
  /// multi-partition tables. An empty table rebuilds inline.
  Status RebuildIndexes(WorkerPool* pool);
  /// Securely drops all storage (DROP TABLE).
  Status Drop();

  const TableDef& def() const { return *def_; }
  const Schema& schema() const { return def_->schema; }
  TableId id() const { return def_->id; }

  uint32_t num_partitions() const {
    return static_cast<uint32_t>(partitions_.size());
  }
  const TablePartition* partition(uint32_t i) const {
    return partitions_[i].get();
  }
  /// Mutable access for the database's incremental checkpoint fan-out
  /// (TablePartition::CheckpointIfDirty): partitions are the unit of
  /// checkpoint scheduling, exactly as they are for degradation steps.
  TablePartition* partition(uint32_t i) { return partitions_[i].get(); }
  /// Owning partition of a row id (deterministic; recovery routes WAL
  /// records with the same function).
  uint32_t PartitionOf(RowId row_id) const {
    return static_cast<uint32_t>(row_id % partitions_.size());
  }

  // --- DML (deferred-apply; effects run at txn commit) ----------------------

  /// Validates the full-accuracy row, assigns a row id, locks it, and
  /// queues the insert. Paper §II: inserts are granted only in the most
  /// accurate state. Row ids are allocated partition-affine: every insert
  /// of one transaction into this table draws from the same partition's
  /// allocator (partitions rotate across transactions), so a WriteBatch's
  /// rows — and their WAL redo — land in one partition and one log stream.
  Result<RowId> Insert(Transaction* txn, const std::vector<Value>& row);

  /// Locks and queues the removal of one tuple (stable + degradable parts).
  Status Delete(Transaction* txn, RowId row_id);

  /// Updates stable columns of one tuple (degradable updates are rejected
  /// by the binder; this API only accepts stable values).
  Status UpdateStable(Transaction* txn, RowId row_id,
                      const std::vector<Value>& stable);

  // --- read path -------------------------------------------------------------

  /// Snapshot scan: assembles every live row, walking partitions in order
  /// under each partition's shared latch. Stops early when `fn` returns
  /// false. Consistency is snapshot-per-partition: each partition is read
  /// atomically, but a row changed in a later partition while an earlier
  /// one was being read may reflect the newer state (rows never span
  /// partitions, so no row is ever torn).
  Status ScanRows(const std::function<bool(const RowView&)>& fn) const;

  /// Opens a cursor over partition `i` only, so parallel consumers can
  /// shard a table scan themselves (one cursor per partition, one thread
  /// per cursor) — the API the degradation-audit benches use to sweep a
  /// table at device speed. An out-of-range index yields an empty cursor
  /// (NextBatch reports done immediately) rather than undefined behavior.
  PartitionCursor OpenPartitionCursor(uint32_t i) const {
    if (i >= partitions_.size()) return PartitionCursor();
    return PartitionCursor(partitions_[i].get());
  }

  /// Morsel-grained sharding (util/morsel.h): per-partition page-range
  /// plans for the work-stealing scheduler. `plan[p]` is partition p's
  /// queue; Σ plan sizes is the claim total the scan counters assert
  /// against. `pages_per_morsel` 0 = kDefaultMorselPages
  /// (ScanOptions::morsel_pages plumbs through here).
  std::vector<std::vector<Morsel>> MorselPlan(uint32_t pages_per_morsel) const {
    std::vector<std::vector<Morsel>> plan;
    plan.reserve(partitions_.size());
    for (const auto& partition : partitions_) {
      plan.push_back(partition->MorselPlan(pages_per_morsel));
    }
    return plan;
  }

  /// Cursor over ONE morsel's page range — each claimed morsel gets its own
  /// resume position, so many workers share a partition without sharing
  /// cursor state. An out-of-range partition yields an empty cursor.
  PartitionCursor OpenMorselCursor(const Morsel& morsel) const {
    if (morsel.partition >= partitions_.size()) return PartitionCursor();
    return PartitionCursor(partitions_[morsel.partition].get(),
                           morsel.begin_page, morsel.end_page);
  }

  /// By-id batch fetch (index probes): `ids[0..n)` ascending, routed to
  /// their partitions, each partition fetched under one shared-latch
  /// acquisition (TablePartition::FetchRows). Rows come out in ascending
  /// row-id order; ids no longer live are skipped. Replace semantics,
  /// scratch and accounting as PartitionCursor::NextBatch; consistency is
  /// snapshot-per-partition.
  Status FetchRows(const RowId* ids, size_t n, const ScanSpec& spec,
                   ScanWorkspace* ws, std::vector<RowView>* out,
                   ScanDeltas* deltas) const;

  /// Point read: a one-id FetchRows. nullopt when the row is not live.
  Result<std::optional<RowView>> GetRow(RowId row_id) const;

  uint64_t live_rows() const;

  /// Rows matching an equality/range predicate on a degradable column at
  /// accuracy `level`, merged across every partition's multi-resolution
  /// index.
  Status IndexLookupEqual(int column, const Value& value, int level,
                          std::vector<RowId>* out) const;
  Status IndexLookupRange(int column, const Value& lo, const Value& hi,
                          int level, std::vector<RowId>* out) const;
  /// Same via the bitmap indexes (enabled by TableRuntime::bitmap_indexes);
  /// partition bitmaps are disjoint by construction and OR-merged.
  Result<Bitmap> BitmapLookupEqual(int column, const Value& value,
                                   int level) const;

  // --- degradation -----------------------------------------------------------

  /// Earliest pending transition deadline across all partitions (kForever
  /// if nothing is pending).
  Micros NextDeadline() const;

  /// Runs ONE degradation step on `partition` as a system transaction (see
  /// TablePartition::RunDegradationStep). After a phase-0 step the WAL
  /// epoch-key watermark advances using the table-wide safe time. Distinct
  /// partitions may be stepped concurrently.
  Result<size_t> RunDegradationStep(TransactionManager* tm, Micros now,
                                    size_t batch_limit, uint32_t partition);

  /// True if any store head of any partition is overdue at `now`.
  bool HasWorkAt(Micros now) const;
  /// True if any store head of `partition` is overdue at `now`.
  bool PartitionHasWorkAt(uint32_t partition, Micros now) const;

  // --- recovery redo ----------------------------------------------------------

  Status RedoInsert(const WalRecord& record);
  Status RedoDegrade(const WalRecord& record);
  Status RedoDelete(const WalRecord& record);
  Status RedoUpdateStable(const WalRecord& record);

  /// min over partitions of the phase-0 head insert times: every insert at
  /// or before this instant has left the accurate state in all partitions.
  /// Drives both epoch-key destruction (RunDegradationStep) and the
  /// deletion-assurance audit's lingering-key probe.
  Micros SafeEpochTime() const;

  using Stats = TablePartition::Stats;
  /// Aggregated over partitions; each partition snapshot is taken under its
  /// shared latch.
  Stats stats() const;
  /// Merged copy of every partition's lateness histogram (taken under each
  /// partition's shared latch).
  Histogram lateness_histogram() const;

 private:
  std::string PartitionDir(uint32_t index) const;
  std::string PartitionCountPath() const { return dir_ + "/PARTITIONS"; }
  TablePartition* Route(RowId row_id) const {
    return partitions_[PartitionOf(row_id)].get();
  }

  const TableDef* const def_;
  const std::string dir_;
  TableRuntime runtime_;

  std::vector<std::unique_ptr<TablePartition>> partitions_;
  /// Rotates the partition assigned to each inserting transaction (the
  /// partitions own the actual row-id allocators).
  std::atomic<uint32_t> next_affine_{0};
};

}  // namespace instantdb

#endif  // INSTANTDB_DB_TABLE_H_
