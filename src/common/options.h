#ifndef INSTANTDB_COMMON_OPTIONS_H_
#define INSTANTDB_COMMON_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "common/clock.h"

namespace instantdb {

class CancelToken;

/// How the WAL prevents accurate values from surviving in log files past
/// their degradation deadline (DESIGN.md §3, experiment B5).
enum class WalPrivacyMode {
  /// Traditional WAL: records are kept until segment recycling. Accurate
  /// values linger — this is the unsafe baseline the paper warns about.
  kPlain,
  /// Segments containing values whose first degradation deadline passed are
  /// physically overwritten after a forced checkpoint.
  kScrub,
  /// Degradable payloads are encrypted under per-epoch keys; destroying the
  /// epoch key at transition time makes every log copy unreadable.
  kEncryptedEpoch,
};

/// Physical layout for degradable attribute values (experiment B4).
enum class DegradableLayout {
  /// One append-only FIFO store per (attribute, LCP state); degradation is
  /// sequential pop/append plus segment-granularity secure erase.
  kStateStores,
  /// Degradable values stored inline in the heap tuple; degradation is a
  /// random-access in-place overwrite. Ablation baseline.
  kInPlace,
};

/// How popped state-store segments are made unrecoverable.
enum class EraseMode {
  /// Overwrite the byte range with zeros, then sync.
  kOverwrite,
  /// Segments are encrypted with per-segment keys; erasing destroys the key.
  kCryptoErase,
};

struct StorageOptions {
  size_t page_size = 8192;
  size_t buffer_pool_pages = 4096;
  /// Capacity of one state-store segment in bytes.
  size_t segment_bytes = 64 * 1024;
  EraseMode erase_mode = EraseMode::kOverwrite;
};

struct WalOptions {
  WalPrivacyMode privacy_mode = WalPrivacyMode::kScrub;
  size_t segment_bytes = 1 * 1024 * 1024;
  /// Number of independent WAL streams commits are sharded over. Records
  /// route to stream `row_id % wal_streams` — the same hash the tables use
  /// for partitioning — so with wal_streams == partitions a partition's
  /// redo lives in exactly one stream and commits on distinct partitions
  /// neither share a log mutex nor queue behind one file's fsync. 0 (the
  /// default) means "match DbOptions::partitions" (standalone WalManager
  /// use treats it as 1); 1 keeps the unsharded on-disk layout byte-for-
  /// byte. The count is persisted in `wal/STREAMS` at creation — reopening
  /// with a different value keeps the on-disk count.
  size_t wal_streams = 0;
  /// Sync on every commit. Benchmarks disable this to isolate CPU costs.
  /// Durability is watermark-based either way: a committer blocks until the
  /// stream's synced LSN covers its bytes, and one leader's fdatasync
  /// absorbs every committer parked on the same stream (leader-based group
  /// commit) — so under concurrency this costs far less than one sync per
  /// commit.
  bool sync_on_commit = false;
  /// kEncryptedEpoch: width of one key epoch. Choosing it at or below the
  /// shortest phase-0 duration lets every epoch be destroyed as soon as its
  /// tuples leave the accurate state.
  Micros epoch_micros = kMicrosPerHour;
};

struct DegradationOptions {
  /// Run the degrader on a background thread (real deployments). Tests and
  /// benchmarks instead pump `DegradationEngine::RunDue()` manually.
  bool background_thread = false;
  /// Maximum tuples moved per degradation step transaction, bounding the
  /// time any store head stays locked.
  size_t step_batch_limit = 1024;
  /// Size of the Database's shared lazily-started worker pool
  /// (util/worker_pool.h), the engine's only source of worker threads:
  /// degradation passes, scans, aggregate drains, checkpoints, audit
  /// sweeps, and at Open the WAL recovery passes and index rebuilds all
  /// borrow the same threads, so it also bounds the recovery and
  /// index-rebuild fan-out (the caller plus at most this many helpers).
  /// Degradation steps remain their own system transactions with wait-die
  /// retry. 1 (the default) keeps the serial engine; raising it lets
  /// degradation and scan throughput scale on a multicore box.
  size_t worker_threads = 1;
};

struct ReadOptions {
  /// Paper §IV "future work" semantics: when true, selection predicates at
  /// accuracy k are also evaluated against tuples already degraded past k
  /// (matching iff the coarser stored value is consistent with the
  /// predicate). Default is the paper's strict, unambiguous semantics.
  bool include_coarser = false;
};

/// How a SELECT's heap scan fans out over a table (Session::scan_options).
/// The unit of read parallelism is the MORSEL — a page range of one
/// partition's heap (util/morsel.h) — not the whole partition: workers
/// claim morsels from per-partition queues with partition affinity and
/// steal from the busiest queue when their own runs dry, so parallelism is
/// not capped by the partition count and a skewed partition is shared by
/// many workers. Per-batch snapshot semantics (one partition latch per
/// batch) are unchanged at any parallelism.
struct ScanOptions {
  /// Number of claimers a heap scan (streaming cursor, materialized
  /// Session::Execute, aggregate pushdown) drains morsels with. 0 (the
  /// default) means DegradationOptions::worker_threads — a database
  /// configured with a worker pool reads with it too — EXCEPT on tables a
  /// few scan batches long (under ~2k live rows), which stay sequential:
  /// fanning out costs more than such a scan. Set an explicit value to
  /// force fan-out regardless of table size; it may exceed the partition
  /// count (claimers share partitions at morsel granularity) and is
  /// clamped to the morsel-plan size. Claimers are the calling thread plus
  /// pool workers, so they are also capped at the pool's free workers plus
  /// the caller: no scan spawns a thread. 1 scans inline on the caller's
  /// thread (rows in (partition, heap) order); higher values interleave
  /// rows across morsels in arrival order on the streaming path.
  size_t parallelism = 0;
  /// Heap pages per morsel. 0 (the default) = kDefaultMorselPages (16).
  /// Smaller morsels split work finer (better stealing on skew, more claim
  /// overhead); tests force 1 to exercise many morsels on tiny tables.
  uint32_t morsel_pages = 0;
  /// Capacity of the streaming cursor's prefetch queue, in batches. The
  /// queue is what lets scan I/O on one partition overlap σ/π evaluation of
  /// another partition's batch; it is bounded so a slow consumer
  /// backpressures the helpers instead of buffering the table. 0 means
  /// 2 × the claimer count.
  size_t prefetch_batches = 0;
  /// Predicate & aggregate pushdown below row assembly: stable-column WHERE
  /// terms are evaluated batch-at-a-time on the decoded heap tuples, state
  /// stores are probed only for the surviving rows (one sorted merge per
  /// store instead of one binary search per row), and ungrouped
  /// COUNT/SUM/AVG/MIN/MAX fold one partial per claimer inside the scan
  /// loop. On by default; off assembles every row through the same batched
  /// merge with no pre-filter and evaluates all of σ above assembly — the
  /// reference path the pushdown equivalence tests compare against.
  bool pushdown = true;
  /// Absolute statement deadline on the database's clock (0 = none). Every
  /// scan path checks it at morsel-claim and batch granularity and returns
  /// Status::Timeout — partial-safe: workers stop claiming, release their
  /// pool tokens, and the statement fails like any other error. The service
  /// front end sets it per statement from ServiceOptions::default_deadline
  /// (or a per-call override); embedders may set it directly.
  Micros deadline = 0;
  /// Cooperative cancellation handle (common/cancel.h), polled at the same
  /// granularity as `deadline`; a tripped token fails the statement with
  /// Status::Aborted. Not owned; must outlive the statement. nullptr = not
  /// cancellable.
  const CancelToken* cancel = nullptr;
};

struct WriteOptions {
  bool sync = false;
};

/// Priority class of one service-layer statement. The paper's purpose model
/// meets QoS here: a deployment maps purposes to classes (an interactive
/// GEO lookup is kHigh, a marketing export kLow), and admission drains
/// queues weighted by class while backpressure sheds the low classes first.
enum class ServiceClass : uint8_t { kHigh = 0, kNormal = 1, kLow = 2 };
inline constexpr size_t kNumServiceClasses = 3;

/// Configuration of the overload-safe service front end
/// (service/service.h): admission control, per-class weighted queueing,
/// backpressure shedding, statement deadlines, and the degradation priority
/// floor.
struct ServiceOptions {
  /// Statements executing concurrently across all sessions. Beyond it new
  /// arrivals queue (per class, up to `queue_depth`) and then reject with
  /// Status::Overloaded — latency stays bounded instead of collapsing.
  size_t max_concurrent = 8;
  /// Queued-but-unadmitted statements tolerated PER CLASS before arrivals
  /// of that class reject with Status::Overloaded.
  size_t queue_depth = 16;
  /// Weighted fair queueing across classes, indexed by ServiceClass: a
  /// class's share of admissions under contention is proportional to its
  /// weight (must be > 0).
  double per_class_weights[kNumServiceClasses] = {4.0, 2.0, 1.0};
  /// Worker-pool tokens reserved for the degradation engine's priority
  /// dispatches (WorkerPool::SetReserved): normal borrowers (scans,
  /// aggregates, checkpoints) never take the last N free workers, so
  /// overdue privacy steps fan out even at 100% query load — the paper's
  /// timeliness guarantee must not bend to foreground pressure. Clamped to
  /// the pool size.
  size_t reserved_degradation_workers = 1;
  /// Default statement deadline, relative to admission (0 = none). A
  /// statement past it returns Status::Timeout — while queued or at the
  /// scan paths' morsel/batch checks once running.
  Micros default_deadline = 0;
  /// Backpressure thresholds. WAL pressure: committers parked on
  /// group-commit sync watermarks (WalManager::SyncWaiters) at or above
  /// this count.
  size_t wal_waiters_high = 4;
  /// Degradation pressure: overdue (table, partition) units
  /// (DegradationEngine::OverdueUnits) at or above this count.
  size_t degradation_backlog_high = 1;
  /// How long one PressureState sample stays cached before admission
  /// resamples the signals (OverdueUnits walks table partitions — not free
  /// per admission). 0 = resample every admission (deterministic tests).
  Micros pressure_refresh = 10 * kMicrosPerMilli;
};

/// Configuration of the self-driving maintenance daemon (maintain/
/// maintenance_daemon.h): background checkpoint cadence plus continuous
/// deletion-assurance audits. The daemon is what makes the durability/
/// privacy loop autonomous — without it checkpoints (and therefore WAL
/// segment retirement, the scrub cadence) only happen when a caller asks.
struct MaintenanceOptions {
  /// Start the daemon at Database::Open. Off by default: tests and tools
  /// that assert exact checkpoint counts drive maintenance explicitly
  /// (MaintenanceDaemon::RunOnce) or not at all.
  bool enabled = false;
  /// Background checkpoint cadence FLOOR. Each cadence point checkpoints
  /// only when at least `checkpoint_dirty_threshold` partitions are dirty
  /// OR a live WAL segment holds a degradable payload past its phase-0
  /// deadline (retirement must not wait for new writes). The cadence is
  /// adaptive: the daemon schedules the next point at `interval` from now,
  /// pulled EARLIER to the earliest phase-0 deadline of any payload still
  /// in the live log (WalManager::EarliestPayloadDeadline) when that lands
  /// inside the window — so the interval no longer needs to sit below the
  /// shortest phase-0 duration; it only bounds the idle wake-up rate.
  Micros checkpoint_interval = kMicrosPerSecond;
  /// Minimum number of dirty partitions before a cadence checkpoint fires;
  /// below it the cadence point is recorded as skipped-clean. 0 makes every
  /// cadence point checkpoint unconditionally.
  uint64_t checkpoint_dirty_threshold = 1;
  /// Cadence of deletion-assurance audit sweeps (0 disables continuous
  /// audits; explicit MaintenanceDaemon::RunAuditNow always works).
  Micros audit_interval = 0;
  /// Slack an audit grants the degrader/daemon before a value past its
  /// deadline counts as exposed. 0 (exact) is right on a VirtualClock where
  /// degradation is pumped; real deployments set it to roughly one
  /// degradation-pass latency plus one checkpoint interval.
  Micros audit_grace = 0;
  /// Bound on how long Database::Close waits for an in-flight caller-driven
  /// degradation pass to drain before proceeding with the final checkpoint
  /// (the close is safe either way — checkpoints are fuzzy — but an orderly
  /// shutdown prefers quiescence).
  Micros close_quiesce_timeout = 5 * kMicrosPerSecond;
};

}  // namespace instantdb

#endif  // INSTANTDB_COMMON_OPTIONS_H_
