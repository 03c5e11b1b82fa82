#ifndef INSTANTDB_DB_TABLE_PARTITION_H_
#define INSTANTDB_DB_TABLE_PARTITION_H_

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/clock.h"
#include "common/options.h"
#include "db/scan_spec.h"
#include "index/bitmap_index.h"
#include "index/multires_index.h"
#include "storage/heap_file.h"
#include "storage/record.h"
#include "storage/state_store.h"
#include "txn/transaction.h"
#include "util/histogram.h"
#include "util/morsel.h"
#include "wal/wal_manager.h"

namespace instantdb {

/// Options shared by every table of a database (subset of DbOptions the
/// table layer needs).
struct TableRuntime {
  StorageOptions storage;
  DegradableLayout layout = DegradableLayout::kStateStores;
  bool bitmap_indexes = false;
  /// Number of hash-partitions of the row-id space per table. 1 keeps the
  /// single-partition layout (and on-disk paths) of unpartitioned tables.
  uint32_t partitions = 1;
  KeyManager* keys = nullptr;
  WalManager* wal = nullptr;
  Clock* clock = nullptr;
  /// All table storage I/O routes through this seam; nullptr = Env::Default().
  Env* env = nullptr;
};

/// \brief The physical state of one hash-partition of a table: slotted heap
/// for the stable part, FIFO state stores per (degradable attribute, phase),
/// multi-resolution + optional bitmap indexes, the row-id map, and the
/// degradation stepping logic.
///
/// `Table` (db/table.h) routes every row id to exactly one partition via a
/// deterministic hash, so partitions never share rows: each owns its own
/// reader-writer latch and its degradation steps lock per-partition store
/// heads. That is what lets the degradation worker pool run steps on
/// distinct partitions concurrently while preserving the paper's bounded
/// reader/degrader interference (B8) per partition.
///
/// Thread-safety: logical conflicts go through the 2PL LockManager (row/
/// store/table locks, store keys carry the partition index); physical
/// structures are protected by the per-partition latch (scans share it,
/// apply closures take it exclusive). Statistics are mutated under the
/// exclusive latch and read under the shared latch.
class TablePartition {
 public:
  TablePartition(const TableDef* def, std::string dir,
                 const TableRuntime& runtime, uint32_t index);
  ~TablePartition();
  TablePartition(const TablePartition&) = delete;
  TablePartition& operator=(const TablePartition&) = delete;

  /// Opens storage, rebuilds the row-id map from the heap, opens the state
  /// stores. Indexes are rebuilt separately (RebuildIndexes) after WAL
  /// replay so they reflect the recovered state.
  Status Open();
  Status RebuildIndexes();
  /// Unconditional flush of heap pages + state stores (stores skip
  /// themselves when individually clean). Prefer CheckpointIfDirty.
  Status Checkpoint();
  /// Incremental checkpoint: flushes only when a mutation applied since the
  /// last flush, then advances the clean-through low-water mark to
  /// `positions` — the per-stream fuzzy begin vector the caller captured
  /// under the commit barrier (TransactionManager::CheckpointBeginPositions)
  /// BEFORE any flushing. Correctness of the skip: every WAL record below
  /// `positions` was fully applied when the barrier returned, and an
  /// applied-but-unflushed mutation leaves the partition dirty — so a clean
  /// partition's durable state already covers everything below `positions`.
  /// Returns true when a flush ran, false when the partition was clean and
  /// only the watermark advanced.
  Result<bool> CheckpointIfDirty(const std::vector<Lsn>& positions);
  /// Per-stream low-water mark: this partition's durable state covers every
  /// WAL record below it. Empty until the first CheckpointIfDirty — the
  /// database then treats it as "nothing covered" (zeros).
  std::vector<Lsn> clean_through() const;
  /// Securely drops all storage of this partition.
  Status Drop();

  const TableDef& def() const { return *def_; }
  const Schema& schema() const { return def_->schema; }
  TableId id() const { return def_->id; }
  uint32_t index() const { return index_; }

  /// Largest row id seen in this partition's heap at Open() time (0 when
  /// empty); the router derives the table-wide row-id counter from it.
  RowId max_row_id() const { return max_row_id_; }

  /// Mints the next row id owned by this partition (id ≡ index mod
  /// partitions, so PartitionOf routes it straight back here). Partition-
  /// affine allocation is what lets a batch's inserts — and their WAL redo
  /// — land in a single partition and a single log stream.
  RowId AllocateRowId();
  /// Raises the allocator above a replayed row id (recovery redo).
  void EnsureRowAllocatorAbove(RowId row_id);

  // --- apply closures (commit-time + idempotent redo) ------------------------

  Status ApplyInsert(RowId row_id, Micros insert_time,
                     const std::vector<Value>& stable,
                     const std::vector<Value>& degradable,
                     bool degradable_available);
  Status ApplyDelete(RowId row_id);
  /// `old_values` is non-null on the live path (index maintenance) and null
  /// during redo (indexes are rebuilt wholesale after replay).
  Status ApplyDegrade(int column, int from_phase, int to_phase,
                      RowId up_to_row_id, const std::vector<StoreEntry>& moves,
                      const std::vector<Value>* old_values);
  Status ApplyUpdateStable(RowId row_id, const std::vector<Value>& stable);

  // --- read path -------------------------------------------------------------

  /// Snapshot scan of this partition under ONE shared-latch acquisition:
  /// decodes the heap a chunk at a time, assembles each chunk through the
  /// same survivor pass as the cursors (AssembleSurvivorsLocked, no filter)
  /// and calls `fn` per row. Stops early when `fn` returns false (reported
  /// via `*stopped`; see Table::ScanRows).
  Status ScanRows(const std::function<bool(const RowView&)>& fn,
                  bool* stopped) const;

  /// Splits this partition's heap into page-range morsels of
  /// `pages_per_morsel` pages (0 = kDefaultMorselPages), the unit the
  /// morsel scheduler hands to scan/degrade/audit workers. The last morsel
  /// is open-ended (end_page == kInvalidPageId) so rows appended after
  /// planning are still observed; an empty partition yields one open-ended
  /// morsel for the same reason. Each morsel cursor carries its own resume
  /// position through ScanBatchFiltered below.
  std::vector<Morsel> MorselPlan(uint32_t pages_per_morsel) const;

  /// One cursor batch (PartitionCursor::NextBatch): decodes up to `limit`
  /// heap tuples from `*pos` (stopping at `end_page`, exclusive;
  /// kInvalidPageId = the heap's end), runs `spec.filter` batch-at-a-time
  /// on the decoded stable values, and only then resolves the degradable
  /// part — for the SURVIVORS only, with one sorted merge per state store
  /// (StateStore::FindMany). Everything happens under a single shared-latch
  /// acquisition (snapshot-per-batch semantics). REPLACES `*out`'s contents
  /// (it does not append): the caller keeps passing the same vector and the
  /// RowView slots recycle their storage. `limit` bounds tuples DECODED,
  /// not rows emitted — a selective batch comes out short rather than
  /// holding the latch until it fills. Advances `*pos` to the resume
  /// position and sets `*done` once [*pos, end_page) is exhausted. `ws` is
  /// per-consumer scratch; `deltas` accumulates the accounting (see
  /// ScanDeltas).
  Status ScanBatchFiltered(Rid* pos, PageId end_page, size_t limit,
                           const ScanSpec& spec, ScanWorkspace* ws,
                           std::vector<RowView>* out, bool* done,
                           ScanDeltas* deltas) const;

  /// By-id form of ScanBatchFiltered, for index probes and point reads:
  /// under one shared-latch acquisition, looks each of `ids[0..n)`
  /// (ascending, all owned by this partition) up in the row map, decodes
  /// its heap tuple, and assembles the survivors through the same pass.
  /// Ids no longer live are skipped. Rows come out in `ids` order; same
  /// replace semantics, scratch and accounting as ScanBatchFiltered.
  Status FetchRows(const RowId* ids, size_t n, const ScanSpec& spec,
                   ScanWorkspace* ws, std::vector<RowView>* out,
                   ScanDeltas* deltas) const;

  /// True if the row id currently lives in this partition.
  bool Contains(RowId row_id) const;

  /// (column, phase) of the store currently holding `row_id`'s value, for
  /// every degradable column (kStateStores layout; empty under kInPlace).
  /// Used by Table::Delete to serialize against degradation steps.
  std::vector<std::pair<int, int>> StoresHolding(RowId row_id) const;

  uint64_t live_rows() const;

  Status IndexLookupEqual(int column, const Value& value, int level,
                          std::vector<RowId>* out) const;
  Status IndexLookupRange(int column, const Value& lo, const Value& hi,
                          int level, std::vector<RowId>* out) const;
  Result<Bitmap> BitmapLookupEqual(int column, const Value& value,
                                   int level) const;

  const MultiResolutionIndex* multires_index(int degradable_ordinal) const {
    return multires_[degradable_ordinal].get();
  }
  const BitmapColumnIndex* bitmap_index(int degradable_ordinal) const {
    return bitmaps_.empty() ? nullptr : bitmaps_[degradable_ordinal].get();
  }

  // --- degradation -----------------------------------------------------------

  /// Earliest pending transition deadline across this partition's stores
  /// (kForever if nothing is pending).
  Micros NextDeadline() const;

  /// Runs ONE degradation step on this partition as a system transaction:
  /// drains every entry whose deadline has passed (up to `batch_limit`)
  /// from the single most overdue (column, phase) store. Returns the number
  /// of tuples moved (0 when nothing is due). `*stepped_phase0` is set when
  /// the step drained a phase-0 store (the router then advances the WAL
  /// epoch-key watermark using the table-wide safe time).
  Result<size_t> RunDegradationStep(TransactionManager* tm, Micros now,
                                    size_t batch_limit, bool* stepped_phase0);

  /// True if any store head of this partition is overdue at `now`.
  bool HasWorkAt(Micros now) const;

  /// Earliest phase-0 head insert time (or `now` when phase 0 is empty):
  /// epoch keys up to the table-wide minimum of this are destroyable.
  Micros SafeEpochTime() const;

  struct Stats {
    uint64_t inserts = 0;
    uint64_t deletes = 0;
    uint64_t degrade_steps = 0;
    uint64_t values_degraded = 0;
    uint64_t values_removed = 0;
    uint64_t tuples_expired = 0;  // whole-tuple removals by the LCP

    void MergeFrom(const Stats& other) {
      inserts += other.inserts;
      deletes += other.deletes;
      degrade_steps += other.degrade_steps;
      values_degraded += other.values_degraded;
      values_removed += other.values_removed;
      tuples_expired += other.tuples_expired;
    }
  };
  /// True when a mutation applied since the last CheckpointIfDirty flush.
  /// Latch-free (two relaxed atomic loads): the maintenance daemon polls
  /// every partition each cadence point. May transiently read dirty for a
  /// partition a concurrent checkpoint is flushing right now — the daemon's
  /// extra checkpoint then finds it clean, which is benign.
  bool dirty() const {
    return mutation_seq_.load(std::memory_order_acquire) !=
           flushed_seq_.load(std::memory_order_acquire);
  }

  /// Deletion-assurance probe (maintain/audit.h): per-phase index-vs-storage
  /// reconciliation under ONE shared-latch acquisition, so a concurrent
  /// degrade step (which moves store entries and index postings together
  /// under the exclusive latch) can never be observed halfway. For every
  /// (degradable column, phase): `stale` counts index entries above what the
  /// phase's store (or in-place schedule queue) actually holds — postings
  /// still claiming accuracy the data has lost — and `missing` the opposite.
  struct IndexAuditCounts {
    uint64_t stale = 0;
    uint64_t missing = 0;
  };
  IndexAuditCounts AuditIndexes() const;

  /// Snapshot under the shared latch (safe against a concurrent degrader).
  Stats stats() const;
  /// Copy of the lateness histogram under the shared latch.
  Histogram lateness_histogram() const;

  BufferPool* heap_pool() const { return heap_pool_.get(); }
  const StateStore* store(int column, int phase) const;

 private:
  struct PendingDegrade {
    int column = -1;  // schema column index
    int phase = -1;
    Micros deadline = kForever;
  };

  std::string HeapPath() const { return dir_ + "/heap.db"; }
  std::string IndexPath() const { return dir_ + "/index.db"; }
  std::string StoreDir(int column, int phase) const;

  /// Deadline of the head entry of (column, phase), kForever if empty.
  Micros StoreHeadDeadline(int column, int phase) const;
  PendingDegrade MostOverdue() const;

  /// After a value of `row_id` reached ⊥: if every degradable attribute of
  /// the tuple is gone, remove the whole tuple (paper: disappearance).
  /// Caller holds the exclusive latch.
  Status MaybeExpireTupleLocked(RowId row_id);

  /// Decodes up to `limit` heap tuples of [*pos, end_page) into
  /// ws->tuples[0..ws->count), advancing `*pos` and setting `*done` as
  /// ScanBatchFiltered documents. Caller holds the latch.
  Status DecodeRangeLocked(Rid* pos, PageId end_page, size_t limit,
                           ScanWorkspace* ws, bool* done) const;

  /// The one row assembler of every read path: filters
  /// ws->tuples[0..count), probes stores for the survivors (FindMany
  /// merges), and fills `*out` (replace semantics). Caller holds the shared
  /// latch.
  void AssembleSurvivorsLocked(const ScanSpec& spec, ScanWorkspace* ws,
                               std::vector<RowView>* out,
                               ScanDeltas* deltas) const;

  const TableDef* const def_;
  const std::string dir_;
  TableRuntime runtime_;
  const uint32_t index_;

  std::unique_ptr<DiskManager> heap_disk_;
  std::unique_ptr<BufferPool> heap_pool_;
  std::unique_ptr<HeapFile> heap_;
  std::unique_ptr<DiskManager> index_disk_;
  std::unique_ptr<BufferPool> index_pool_;

  /// stores_[degradable_ordinal][phase].
  std::vector<std::vector<std::unique_ptr<StateStore>>> stores_;
  std::vector<std::unique_ptr<MultiResolutionIndex>> multires_;
  std::vector<std::unique_ptr<BitmapColumnIndex>> bitmaps_;

  /// In-place layout: FIFO schedule (row_id, insert_time) per (ordinal,
  /// phase), mirroring what the state stores provide for free.
  std::vector<std::vector<std::deque<std::pair<RowId, Micros>>>> inplace_queues_;

  mutable std::shared_mutex latch_;
  /// Serializes checkpoints of this partition and guards the incremental-
  /// checkpoint bookkeeping (flushed_seq_, clean_through_).
  mutable std::mutex ckpt_mu_;
  /// Monotone count of applied mutations (inserts, deletes, degrade moves,
  /// stable updates), bumped under the exclusive latch. The dirty test is
  /// `mutation_seq_ != flushed_seq_`.
  std::atomic<uint64_t> mutation_seq_{0};
  /// Written under ckpt_mu_; atomic so dirty() can poll it latch-free (the
  /// maintenance daemon's cadence test must not contend with checkpoints).
  std::atomic<uint64_t> flushed_seq_{0};
  std::vector<Lsn> clean_through_;   // under ckpt_mu_
  std::unordered_map<RowId, Rid> row_map_;
  RowId max_row_id_ = 0;
  /// Row-id allocator multiplier: the next id minted is
  /// `next_multiplier_ * partitions + index`.
  std::atomic<RowId> next_multiplier_{0};

  Stats stats_;
  Histogram lateness_;
};

}  // namespace instantdb

#endif  // INSTANTDB_DB_TABLE_PARTITION_H_
