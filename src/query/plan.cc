#include "query/plan.h"

#include <algorithm>
#include <cctype>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <functional>
#include <mutex>

#include "common/cancel.h"
#include "common/strings.h"
#include "query/predicate.h"
#include "util/morsel.h"
#include "util/worker_pool.h"

namespace instantdb {
namespace plan {

namespace {

/// Batch size of the materializing and aggregate sinks of the morsel loop
/// (MorselScan): large enough that latch reacquisition is noise,
/// small enough that a batch never holds a partition latch for long.
constexpr size_t kMaterializedScanBatchRows = 1024;

/// Statement budget captured when a source opens: every scan path probes
/// the deadline and the CancelToken (ScanOptions) at morsel-claim and batch
/// granularity, so a doomed statement stops within one batch, releases its
/// workers (pool tokens are waited out by the normal error paths), and
/// fails partial-safe with Timeout/Aborted.
struct ScanBudget {
  const Clock* clock = nullptr;
  Micros deadline = 0;
  const CancelToken* cancel = nullptr;

  static ScanBudget Of(Session* session) {
    return ScanBudget{session->db()->clock(),
                      session->scan_options().deadline,
                      session->scan_options().cancel};
  }
  Status Check() const {
    if (deadline == 0 && cancel == nullptr) return Status::OK();
    return CheckStatementBudget(clock, deadline, cancel);
  }
};

/// Folds one scan's ScanDeltas into the database's atomic counters — once
/// per batch, outside any partition latch.
void FoldDeltas(Database::ScanCounters* counters, const ScanDeltas& deltas) {
  counters->rows.fetch_add(deltas.rows_scanned, std::memory_order_relaxed);
  counters->rows_prefiltered.fetch_add(deltas.rows_prefiltered,
                                       std::memory_order_relaxed);
  counters->store_probes_issued.fetch_add(deltas.probes_issued,
                                          std::memory_order_relaxed);
  counters->store_probes_skipped.fetch_add(deltas.probes_skipped,
                                           std::memory_order_relaxed);
}

/// The ScanSpec every read path assembles with. Pushdown puts the stable
/// conjuncts below assembly and skips the store probes when no degradable
/// column is referenced; without it, ScanSpec{} assembles every row in full
/// and σ runs whole above — the reference the pushdown tests compare with.
ScanSpec MakeScanSpec(const BoundQuery& query,
                      const StablePredicateFilter& filter, bool pushdown) {
  ScanSpec spec;
  if (!pushdown) return spec;
  spec.filter = filter.empty() ? nullptr : &filter;
  spec.need_degradable = !query.referenced_degradable.empty();
  return spec;
}

/// Finds the level of a literal value in a hierarchy (tree labels can sit at
/// any level; interval bucket bounds at several — prefer the leaf).
Result<int> LiteralLevel(const DomainHierarchy& hierarchy, const Value& value) {
  for (int level = 0; level < hierarchy.height(); ++level) {
    if (hierarchy.ValidateAtLevel(value, level).ok()) return level;
  }
  return Status::InvalidArgument("literal '" + value.ToString() +
                                 "' is not a value of domain " +
                                 hierarchy.name());
}

/// Case-insensitive label lookup across all levels of a tree domain (the
/// paper's `LIKE "%FRANCE%"` names the node "France").
Result<std::pair<Value, int>> ResolveLabel(const DomainHierarchy& hierarchy,
                                           const std::string& label) {
  const auto* tree = dynamic_cast<const GeneralizationTree*>(&hierarchy);
  if (tree == nullptr) {
    return Status::NotFound("not a tree domain");
  }
  for (int level = 0; level < tree->height(); ++level) {
    for (const std::string& candidate : tree->LabelsAtLevel(level)) {
      if (EqualsIgnoreCase(candidate, label)) {
        return std::make_pair(Value::String(candidate), level);
      }
    }
  }
  return Status::NotFound("no label '" + label + "' in domain " +
                          hierarchy.name());
}

/// Parses the paper's bucket literal syntax 'lo-hi' for interval domains.
bool ParseBucketLiteral(const std::string& text, int64_t* lo, int64_t* hi) {
  const size_t dash = text.find('-', 1);
  if (dash == std::string::npos) return false;
  char* end = nullptr;
  *lo = std::strtoll(text.c_str(), &end, 10);
  if (end != text.c_str() + dash) return false;
  *hi = std::strtoll(text.c_str() + dash + 1, &end, 10);
  return *end == '\0';
}

Status BindPredicate(const Schema& schema, Session* session, TableId table_id,
                     const PredicateAst& ast, BoundPredicate* out) {
  out->column = ResolveColumnName(schema, ast.column);
  if (out->column < 0) {
    return Status::InvalidArgument("unknown column: " + ast.column);
  }
  const ColumnDef& column = schema.column(out->column);
  out->degradable = column.kind == ColumnKind::kDegradable;
  out->op = ast.op;
  out->value = ast.value;
  out->value2 = ast.value2;
  if (!out->degradable) {
    if (ast.op == ComparisonOp::kLike) {
      if (ast.value.type() != ValueType::kString) {
        return Status::InvalidArgument("LIKE needs a string pattern");
      }
      std::string pattern = ast.value.str();
      out->like_prefix_wildcard = StartsWith(pattern, "%");
      out->like_suffix_wildcard = EndsWith(pattern, "%") && pattern.size() > 1;
      if (out->like_prefix_wildcard) pattern.erase(0, 1);
      if (out->like_suffix_wildcard && !pattern.empty()) pattern.pop_back();
      out->like_core = pattern;
    }
    return Status::OK();
  }

  const DomainHierarchy& hierarchy = *column.hierarchy;
  out->level = session->AccuracyFor(table_id, out->column);

  switch (ast.op) {
    case ComparisonOp::kEq:
    case ComparisonOp::kNe: {
      Value literal = ast.value;
      if (hierarchy.value_type() == ValueType::kInt64 &&
          literal.type() == ValueType::kString) {
        // '2000-3000' bucket syntax: the width names the level.
        int64_t lo, hi;
        if (!ParseBucketLiteral(literal.str(), &lo, &hi)) {
          return Status::InvalidArgument("bad bucket literal: " +
                                         literal.str());
        }
        const auto* interval =
            static_cast<const IntervalHierarchy*>(&hierarchy);
        IDB_ASSIGN_OR_RETURN(out->literal_level,
                             interval->LevelForWidth(hi - lo));
        literal = Value::Int64(lo);
      } else {
        IDB_ASSIGN_OR_RETURN(out->literal_level,
                             LiteralLevel(hierarchy, literal));
      }
      IDB_ASSIGN_OR_RETURN(out->literal_interval,
                           hierarchy.LeafRange(literal, out->literal_level));
      out->value = literal;
      out->index_usable = ast.op == ComparisonOp::kEq;
      return Status::OK();
    }
    case ComparisonOp::kLike: {
      if (ast.value.type() != ValueType::kString) {
        return Status::InvalidArgument("LIKE needs a string pattern");
      }
      std::string pattern = ast.value.str();
      out->like_prefix_wildcard = StartsWith(pattern, "%");
      out->like_suffix_wildcard = EndsWith(pattern, "%") && pattern.size() > 1;
      if (out->like_prefix_wildcard) pattern.erase(0, 1);
      if (out->like_suffix_wildcard && !pattern.empty()) pattern.pop_back();
      out->like_core = pattern;
      // `%France%` resolves to the France node: evaluated (and indexed) as
      // an equality against that node's subtree.
      auto label = ResolveLabel(hierarchy, pattern);
      if (label.ok()) {
        out->value = label->first;
        out->literal_level = label->second;
        auto interval = hierarchy.LeafRange(label->first, label->second);
        if (interval.ok()) {
          out->literal_interval = *interval;
          out->index_usable = true;
        }
      }
      return Status::OK();
    }
    case ComparisonOp::kBetween: {
      if (hierarchy.value_type() != ValueType::kInt64) {
        return Status::NotSupported("BETWEEN on categorical domains");
      }
      if (ast.value.type() != ValueType::kInt64 ||
          ast.value2.type() != ValueType::kInt64) {
        return Status::InvalidArgument("BETWEEN bounds must be integers");
      }
      // Bounds generalize to the demanded level's buckets.
      IDB_ASSIGN_OR_RETURN(Value lo,
                           hierarchy.Generalize(ast.value, 0, out->level));
      IDB_ASSIGN_OR_RETURN(Value hi,
                           hierarchy.Generalize(ast.value2, 0, out->level));
      out->value = lo;
      out->value2 = hi;
      out->literal_level = out->level;
      IDB_ASSIGN_OR_RETURN(out->literal_interval,
                           hierarchy.LeafRange(lo, out->level));
      IDB_ASSIGN_OR_RETURN(out->literal_interval2,
                           hierarchy.LeafRange(hi, out->level));
      out->index_usable = true;
      return Status::OK();
    }
    case ComparisonOp::kLt:
    case ComparisonOp::kLe:
    case ComparisonOp::kGt:
    case ComparisonOp::kGe: {
      if (hierarchy.value_type() != ValueType::kInt64) {
        return Status::NotSupported(
            "ordering predicates on categorical domains");
      }
      if (ast.value.type() != ValueType::kInt64) {
        return Status::InvalidArgument("ordering literal must be an integer");
      }
      return Status::OK();
    }
  }
  return Status::OK();
}

/// Evaluates one bound predicate against a value already generalized to
/// `value_level` (== min(k, stored level) under include_coarser).
bool EvalDegradablePredicate(const DomainHierarchy& hierarchy,
                             const BoundPredicate& pred, const Value& value,
                             int value_level) {
  switch (pred.op) {
    case ComparisonOp::kEq:
    case ComparisonOp::kNe: {
      auto row_interval = hierarchy.LeafRange(value, value_level);
      if (!row_interval.ok()) return false;
      const bool contains = pred.literal_interval.Contains(*row_interval);
      return pred.op == ComparisonOp::kEq ? contains : !contains;
    }
    case ComparisonOp::kLike: {
      if (pred.literal_level >= 0) {
        auto row_interval = hierarchy.LeafRange(value, value_level);
        return row_interval.ok() &&
               pred.literal_interval.Contains(*row_interval);
      }
      return MatchLike(hierarchy.DisplayValue(value, value_level), pred);
    }
    case ComparisonOp::kBetween: {
      auto row_interval = hierarchy.LeafRange(value, value_level);
      if (!row_interval.ok()) return false;
      return row_interval->lo >= pred.literal_interval.lo &&
             row_interval->hi <= pred.literal_interval2.hi;
    }
    case ComparisonOp::kLt:
      return value.int64() < pred.value.int64();
    case ComparisonOp::kLe:
      return value.int64() <= pred.value.int64();
    case ComparisonOp::kGt:
      // Bucket lower-bound comparison: a bucket qualifies when it lies
      // entirely above the literal is too strict for coarse levels; we
      // compare lower bounds (documented choice).
      return value.int64() > pred.value.int64();
    case ComparisonOp::kGe:
      return value.int64() >= pred.value.int64();
  }
  return false;
}

/// Applies computability + f_k + σ_P to one stored row. Returns true and
/// fills `out` when the row qualifies under the bound accuracy levels.
/// `stable_prefiltered` tells it the read already evaluated every
/// stable-column conjunct below row assembly (ScanSpec pushdown), so only
/// the degradable terms are checked here.
bool EvaluateRow(const BoundQuery& query, const ReadOptions& read_options,
                 const RowView& view, EvaluatedRow* out,
                 bool stable_prefiltered) {
  const Schema& schema = query.table->schema();
  out->row_id = view.row_id;
  out->values = view.values;
  out->degradable_level.clear();

  // Computability (σ over ∪_{j≤k} ST_j) and f_k generalization.
  for (int col : query.referenced_degradable) {
    const ColumnDef& column = schema.column(col);
    const int ordinal = schema.DegradableOrdinal(col);
    const int phase = view.phases[ordinal];
    const int k = query.accuracy.at(col);
    if (phase >= column.lcp.num_phases()) {
      return false;  // value removed (⊥): never computable
    }
    const int stored_level = column.lcp.phase(phase).level;
    if (stored_level > k && !read_options.include_coarser) {
      return false;  // coarser than demanded: not in any ST_{j<=k}
    }
    const int target_level = std::max(stored_level, k);
    Value vk = view.values[col];
    if (stored_level < target_level) {
      auto generalized =
          column.hierarchy->Generalize(vk, stored_level, target_level);
      if (!generalized.ok()) return false;
      vk = *generalized;
    }
    out->values[col] = vk;
    out->degradable_level.Set(col, target_level);
  }

  // σ_P over the generalized image.
  for (const BoundPredicate& pred : query.predicates) {
    const ColumnDef& column = schema.column(pred.column);
    if (pred.degradable) {
      const int level = out->degradable_level.Get(pred.column);
      if (!EvalDegradablePredicate(*column.hierarchy, pred,
                                   out->values[pred.column], level)) {
        return false;
      }
    } else {
      // Stable terms already ran below row assembly when the read pushed
      // them down; only the pushdown-off reference path checks them here.
      if (stable_prefiltered) continue;
      if (!EvalStablePredicate(pred, out->values[pred.column])) return false;
    }
  }
  return true;
}

/// Whole-batch σ: evaluates every view, appending the qualifying rows to
/// `out` (recycled slots, see EvaluatedBatch) — one call per batch on
/// every read path.
void EvaluateViews(const BoundQuery& query, const ReadOptions& read_options,
                   const std::vector<RowView>& views, EvaluatedBatch* out,
                   bool stable_prefiltered) {
  for (const RowView& view : views) {
    EvaluatedRow* slot = out->Add();
    if (!EvaluateRow(query, read_options, view, slot, stable_prefiltered)) {
      out->DropLast();
    }
  }
}

/// The morsel plan a scan of `parallelism` claimers drains. A single
/// claimer gets every partition's morsels flattened into one queue: the
/// scheduler's steal-from-busiest would otherwise jump to the largest
/// partition once partition 0 runs dry, and a parallelism-1 scan must
/// return rows in (partition, page) order.
std::vector<std::vector<Morsel>> PlanMorsels(const Table& table,
                                             uint32_t morsel_pages,
                                             size_t parallelism) {
  std::vector<std::vector<Morsel>> plan = table.MorselPlan(morsel_pages);
  if (parallelism > 1 || plan.size() <= 1) return plan;
  for (size_t p = 1; p < plan.size(); ++p) {
    plan[0].insert(plan[0].end(), plan[p].begin(), plan[p].end());
  }
  plan.resize(1);
  return plan;
}

/// \brief One heap scan: the single morsel loop behind every heap-scan
/// path — streaming cursors, materialized reads and aggregate pushdown.
///
/// The fan-out is resolved and the morsel plan built once, here. Each
/// claimer (the calling thread or a borrowed pool worker) repeats Step:
/// claim a page-range morsel from the shared work-stealing scheduler
/// (partition-affine home queues, stealing from the busiest partition, so
/// parallelism is not capped by the partition count) → open its cursor →
/// check the statement budget → fetch one batch under that partition's
/// shared latch → fold the scan counters → evaluate σ into the claimer's
/// batch. The sinks differ only in what they do with that batch.
/// Isolation is snapshot-per-batch on every path: a concurrent degrader
/// may land between two batches of one morsel.
class MorselScan {
 public:
  /// One claimer's private state: a stable id for morsel affinity (claimer
  /// w's home queue is partition w % partitions), the morsel being
  /// drained, scratch, and the qualifying rows of its latest batch.
  struct Claimer {
    explicit Claimer(size_t id) : id(id) {}
    const size_t id;
    Morsel morsel;
    PartitionCursor cursor;
    bool draining = false;  // `cursor` has rows of `morsel` left
    ScanWorkspace ws;
    std::vector<RowView> views;
    EvaluatedBatch batch;
  };

  MorselScan(Session* session, const BoundQuery& query, size_t batch_rows)
      : read_options_(session->read_options()),
        counters_(session->db()->scan_counters()),
        budget_(ScanBudget::Of(session)),
        pool_(session->db()->worker_pool()),
        query_(query),
        batch_rows_(batch_rows),
        pushdown_(session->scan_options().pushdown),
        filter_(query.table->schema(), query.predicates),
        parallelism_(ResolveScanParallelism(session, *query.table)),
        sched_(PlanMorsels(*query.table, session->scan_options().morsel_pages,
                           parallelism_),
               MorselStatsSink{&counters_->morsels_claimed,
                               &counters_->morsels_stolen,
                               &counters_->steal_failures}),
        claimers_(std::max<size_t>(1, std::min(parallelism_, sched_.total()))),
        spec_(MakeScanSpec(query, filter_, pushdown_)) {}

  /// Claimers the scan wants: the resolved parallelism clamped to the
  /// morsel-plan size. How many actually run is capped by the pool's free
  /// workers plus the caller.
  size_t claimers() const { return claimers_; }
  size_t morsels() const { return sched_.total(); }
  const ScanBudget& budget() const { return budget_; }
  Database::ScanCounters* counters() const { return counters_; }
  WorkerPool* pool() const { return pool_; }

  /// One turn of the loop for `c`, replacing `c->batch` with the
  /// qualifying rows of one heap batch of `c->morsel` (possibly none).
  /// Returns false once the scheduler has nothing left for `c`.
  Result<bool> Step(Claimer* c) {
    c->batch.Clear();
    if (!c->draining) {
      if (!sched_.Claim(c->id, &c->morsel)) return false;
      c->cursor = query_.table->OpenMorselCursor(c->morsel);
      c->draining = true;
    }
    IDB_RETURN_IF_ERROR(budget_.Check());
    bool done = false;
    ScanDeltas deltas;
    IDB_RETURN_IF_ERROR(c->cursor.NextBatch(batch_rows_, spec_, &c->ws,
                                            &c->views, &done, &deltas));
    c->draining = !done;
    if (deltas.rows_scanned > 0) {
      counters_->batches.fetch_add(1, std::memory_order_relaxed);
      FoldDeltas(counters_, deltas);
    }
    EvaluateViews(query_, read_options_, c->views, &c->batch, pushdown_);
    return true;
  }

  /// Runs the loop to exhaustion on up to claimers() participants — the
  /// caller plus whatever pool workers are free right now — handing each
  /// non-empty batch to `sink` on its claimer's thread.
  Status Drain(const std::function<void(Claimer*)>& sink) {
    return pool_->Run(claimers_, claimers_, [&](size_t id) -> Status {
      Claimer claimer(id);
      for (;;) {
        IDB_ASSIGN_OR_RETURN(const bool more, Step(&claimer));
        if (!more) return Status::OK();
        if (claimer.batch.size > 0) sink(&claimer);
      }
    });
  }

 private:
  const ReadOptions read_options_;
  Database::ScanCounters* const counters_;
  const ScanBudget budget_;
  WorkerPool* const pool_;
  const BoundQuery& query_;
  const size_t batch_rows_;
  const bool pushdown_;
  const StablePredicateFilter filter_;
  const size_t parallelism_;
  MorselScheduler sched_;
  const size_t claimers_;
  const ScanSpec spec_;
};

/// Appends `from`'s rows to `to`, leaving `from` empty: a swap when `to`
/// holds nothing yet (the common case — most morsels fit one batch).
void AppendBatch(EvaluatedBatch* from, EvaluatedBatch* to) {
  if (to->size == 0) {
    to->Swap(from);
  } else {
    for (size_t i = 0; i < from->size; ++i) {
      *to->Add() = std::move(from->rows[i]);
    }
  }
  from->Clear();
}

/// Streaming sink: the consumer thread is always a claimer — whenever the
/// queue is empty it scans its own next batch inline — helped by however
/// many pool workers TryDispatch lends when the cursor opens, whose
/// qualifying batches flow through a bounded queue. No thread is ever
/// spawned: a saturated pool leaves the consumer scanning alone. At
/// parallelism 1 the consumer always does, over a one-queue plan, so rows
/// come out in (partition, page) order; otherwise they interleave across
/// morsels in arrival order. Batch storage circulates through a spare
/// pool, so a steady-state scan stops allocating. The queue bound
/// backpressures helpers when the consumer is slow; the consumer counts a
/// prefetch stall each time its own claims are dry and it has to wait for
/// a helper's batch.
class StreamingScanSource : public RowSource {
 public:
  StreamingScanSource(Session* session, const BoundQuery& query,
                      size_t batch_rows)
      : scan_(session, query, batch_rows),
        queue_capacity_(session->scan_options().prefetch_batches != 0
                            ? session->scan_options().prefetch_batches
                            : 2 * scan_.claimers()) {
    if (scan_.claimers() == 1) return;
    // Under mu_, so a helper that finishes at once cannot decrement
    // helpers_live_ before it is set.
    std::lock_guard<std::mutex> lock(mu_);
    helpers_live_ = scan_.pool()->TryDispatch(
        scan_.claimers() - 1, [this](size_t slot) { Help(slot + 1); },
        &ticket_);
  }

  ~StreamingScanSource() override {
    {
      // The lock orders the store against a helper's wait predicate so the
      // notify cannot fall between its check and its sleep.
      std::lock_guard<std::mutex> lock(mu_);
      closed_.store(true, std::memory_order_relaxed);
    }
    cv_.notify_all();
    scan_.pool()->Wait(&ticket_);
  }

  Result<bool> NextBatch(EvaluatedBatch* out) override {
    std::unique_lock<std::mutex> lock(mu_);
    bool stalled = false;
    for (;;) {
      if (!error_.ok()) return error_;
      // Budget probe ahead of the queue: a doomed statement must not keep
      // streaming batches the helpers already buffered.
      IDB_RETURN_IF_ERROR(scan_.budget().Check());
      if (!queue_.empty()) {
        out->Clear();
        out->Swap(&queue_.front());
        // The consumer's previous batch storage goes back to the spare
        // pool for a helper to refill.
        spares_.push_back(std::move(queue_.front()));
        queue_.pop_front();
        cv_.notify_all();
        return true;
      }
      if (consumer_more_) {
        lock.unlock();
        Result<bool> more = scan_.Step(&consumer_);
        lock.lock();
        if (!more.ok()) {
          error_ = more.status();
          return error_;
        }
        consumer_more_ = *more;
        if (consumer_.batch.size > 0) {
          out->Swap(&consumer_.batch);
          return true;
        }
        continue;
      }
      if (helpers_live_ == 0) return false;
      // One stall per pull, not per wakeup: helper-exit notifications must
      // not inflate the producer-bound signal the benches read.
      if (!stalled) {
        stalled = true;
        scan_.counters()->prefetch_stalls.fetch_add(1,
                                                    std::memory_order_relaxed);
      }
      cv_.wait(lock);
    }
  }

 private:
  void Help(size_t id) {
    MorselScan::Claimer claimer(id);
    Status status;
    // An early Close (cursor dropped mid-stream) must not keep helpers
    // scanning the rest of the table before the destructor's Wait.
    while (!closed_.load(std::memory_order_relaxed)) {
      Result<bool> more = scan_.Step(&claimer);
      if (!more.ok()) {
        status = more.status();
        break;
      }
      if (!*more) break;
      if (claimer.batch.size == 0) continue;  // fully filtered: no lock
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        return queue_.size() < queue_capacity_ ||
               closed_.load(std::memory_order_relaxed);
      });
      if (closed_.load(std::memory_order_relaxed)) break;
      queue_.emplace_back();
      queue_.back().Swap(&claimer.batch);
      if (!spares_.empty()) {
        claimer.batch.Swap(&spares_.back());
        spares_.pop_back();
      }
      cv_.notify_all();
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (!status.ok() && error_.ok()) error_ = status;
    --helpers_live_;
    cv_.notify_all();
  }

  MorselScan scan_;
  const size_t queue_capacity_;
  /// Touched only by the consumer thread.
  MorselScan::Claimer consumer_{0};
  bool consumer_more_ = true;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<EvaluatedBatch> queue_;
  std::vector<EvaluatedBatch> spares_;
  Status error_;
  size_t helpers_live_ = 0;
  /// Atomic so helpers can poll it between batches without the mutex.
  std::atomic<bool> closed_{false};
  WorkerPool::Ticket ticket_;
};

/// Materializing sink: one bucket per morsel, concatenated in ordinal
/// order — (partition, begin_page) ascending — so rows come out in the
/// parallelism-1 order no matter which claimer drained what. Used when
/// the caller asks for an unbounded batch (Session::Execute, DELETE,
/// GROUP BY).
class MaterializedScanSource : public RowSource {
 public:
  MaterializedScanSource(Session* session, const BoundQuery& query)
      : scan_(session, query, kMaterializedScanBatchRows) {}

  Result<bool> NextBatch(EvaluatedBatch* out) override {
    if (scanned_) return false;
    scanned_ = true;
    std::vector<EvaluatedBatch> buckets(scan_.morsels());
    IDB_RETURN_IF_ERROR(scan_.Drain([&](MorselScan::Claimer* c) {
      AppendBatch(&c->batch, &buckets[c->morsel.ordinal]);
    }));
    out->Clear();
    for (EvaluatedBatch& bucket : buckets) AppendBatch(&bucket, out);
    return out->size > 0;
  }

 private:
  MorselScan scan_;
  bool scanned_ = false;
};

/// Probes the multi-resolution index once (row ids only — cheap), then
/// feeds the sorted ids, a slice of at most `batch_rows` at a time, to the
/// same assemble → fold → σ stage as the heap scan: Table::FetchRows
/// assembles each slice under one latch per partition with this query's
/// ScanSpec. Rows come out in ascending row-id order.
class IndexScanSource : public RowSource {
 public:
  IndexScanSource(Session* session, const BoundQuery& query,
                  std::vector<RowId> rids, size_t batch_rows)
      : read_options_(session->read_options()),
        counters_(session->db()->scan_counters()),
        budget_(ScanBudget::Of(session)),
        query_(query),
        rids_(std::move(rids)),
        batch_rows_(std::max<size_t>(batch_rows, 1)),
        pushdown_(session->scan_options().pushdown),
        filter_(query.table->schema(), query.predicates),
        spec_(MakeScanSpec(query, filter_, pushdown_)) {}

  Result<bool> NextBatch(EvaluatedBatch* out) override {
    out->Clear();
    while (out->size == 0 && next_ < rids_.size()) {
      IDB_RETURN_IF_ERROR(budget_.Check());
      const size_t n = std::min(batch_rows_, rids_.size() - next_);
      ScanDeltas deltas;
      IDB_RETURN_IF_ERROR(query_.table->FetchRows(rids_.data() + next_, n,
                                                  spec_, &ws_, &views_,
                                                  &deltas));
      next_ += n;
      counters_->batches.fetch_add(1, std::memory_order_relaxed);
      FoldDeltas(counters_, deltas);
      EvaluateViews(query_, read_options_, views_, out, pushdown_);
    }
    return out->size > 0;
  }

 private:
  const ReadOptions read_options_;
  Database::ScanCounters* const counters_;
  const ScanBudget budget_;
  const BoundQuery& query_;
  std::vector<RowId> rids_;
  const size_t batch_rows_;
  const bool pushdown_;
  const StablePredicateFilter filter_;
  const ScanSpec spec_;
  ScanWorkspace ws_;
  std::vector<RowView> views_;
  size_t next_ = 0;
};

}  // namespace

Result<bool> RowSource::Next(EvaluatedRow* out) {
  while (adapter_next_ >= adapter_batch_.size) {
    if (adapter_done_) return false;
    adapter_next_ = 0;
    IDB_ASSIGN_OR_RETURN(const bool more, NextBatch(&adapter_batch_));
    if (!more) {
      adapter_done_ = true;
      return false;
    }
  }
  *out = std::move(adapter_batch_.rows[adapter_next_++]);
  return true;
}

size_t ResolveScanParallelism(Session* session, const Table& table) {
  size_t parallelism = session->scan_options().parallelism;
  if (parallelism == 0) {
    // Auto mode stays inline on small tables: worker dispatch costs tens of
    // microseconds, which dwarfs the whole scan of a table a few batches
    // long (point SELECTs, small aggregates, DELETEs). An explicit
    // parallelism setting is always honored. No partition clamp: the unit
    // of parallelism is the morsel, and every scan path clamps to its own
    // morsel-plan size at dispatch time.
    if (table.live_rows() < kParallelScanMinRows) return 1;
    parallelism = std::max<size_t>(
        session->db()->options().degradation.worker_threads, 1);
  }
  return std::max<size_t>(parallelism, 1);
}

Result<BoundQuery> BindQuery(Session* session, const std::string& table_name,
                             const std::vector<PredicateAst>& where,
                             const std::vector<int>& projected_columns) {
  BoundQuery query;
  const TableDef* def = ResolveTableName(session->db()->catalog(), table_name,
                                         /*allow_prefix=*/false);
  if (def == nullptr) {
    return Status::NotFound("no such table: " + table_name);
  }
  query.table = session->db()->GetTable(def->id);
  const Schema& schema = query.table->schema();

  for (const PredicateAst& ast : where) {
    BoundPredicate pred;
    IDB_RETURN_IF_ERROR(BindPredicate(schema, session, def->id, ast, &pred));
    if (pred.degradable) {
      query.referenced_degradable.insert(pred.column);
      query.accuracy[pred.column] = pred.level;
    }
    query.predicates.push_back(std::move(pred));
  }
  for (int col : projected_columns) {
    if (col >= 0 && schema.column(col).kind == ColumnKind::kDegradable) {
      query.referenced_degradable.insert(col);
      query.accuracy[col] = session->AccuracyFor(def->id, col);
    }
  }
  return query;
}

std::string RenderValue(const Schema& schema, int col, const Value& value,
                        const DegradableLevels& levels) {
  const ColumnDef& column = schema.column(col);
  if (value.is_null()) return "NULL";
  if (column.kind == ColumnKind::kDegradable) {
    return column.hierarchy->DisplayValue(value, levels.Get(col, 0));
  }
  return value.ToString();
}

namespace {

/// The degradable predicate an index probe would serve, or nullptr when the
/// query takes a heap scan (shared by MakeRowSource and CanPushAggregate so
/// both always agree on the access path).
const BoundPredicate* UsableIndexPredicate(Session* session,
                                           const BoundQuery& query) {
  if (!session->use_indexes() || session->read_options().include_coarser) {
    return nullptr;
  }
  for (const BoundPredicate& pred : query.predicates) {
    if (pred.degradable && pred.index_usable) return &pred;
  }
  return nullptr;
}

}  // namespace

Result<std::unique_ptr<RowSource>> MakeRowSource(Session* session,
                                                 const BoundQuery& query,
                                                 size_t scan_batch_rows) {
  const BoundPredicate* index_pred = UsableIndexPredicate(session, query);
  if (index_pred != nullptr) {
    std::vector<RowId> rids;
    if (index_pred->op == ComparisonOp::kBetween) {
      IDB_RETURN_IF_ERROR(query.table->IndexLookupRange(
          index_pred->column, index_pred->value, index_pred->value2,
          index_pred->level, &rids));
    } else {
      // Equality / label-LIKE: probe at the literal's own level so every
      // computable phase tree is visited.
      IDB_RETURN_IF_ERROR(query.table->IndexLookupEqual(
          index_pred->column, index_pred->value,
          std::max(index_pred->literal_level, index_pred->level), &rids));
    }
    std::sort(rids.begin(), rids.end());
    return std::unique_ptr<RowSource>(new IndexScanSource(
        session, query, std::move(rids),
        scan_batch_rows == SIZE_MAX ? kStreamingScanBatchRows
                                    : scan_batch_rows));
  }
  if (scan_batch_rows == SIZE_MAX) {
    return std::unique_ptr<RowSource>(
        new MaterializedScanSource(session, query));
  }
  return std::unique_ptr<RowSource>(
      new StreamingScanSource(session, query, scan_batch_rows));
}

Result<SelectPlan> BindSelect(Session* session, const SelectAst& ast) {
  SelectPlan select;
  {
    const TableDef* def = ResolveTableName(session->db()->catalog(), ast.table,
                                           /*allow_prefix=*/false);
    if (def == nullptr) return Status::NotFound("no such table: " + ast.table);
    select.schema = &def->schema;
  }
  const Schema& schema = *select.schema;

  select.items = ast.items;
  if (ast.star) {
    for (int i = 0; i < schema.num_columns(); ++i) {
      select.items.push_back(
          SelectItem{AggregateKind::kNone, schema.column(i).name});
    }
  }

  std::vector<int> projected;
  for (const SelectItem& item : select.items) {
    if (item.aggregate != AggregateKind::kNone) select.has_aggregate = true;
    int col = -1;
    if (!item.column.empty()) {
      col = ResolveColumnName(schema, item.column);
      if (col < 0) {
        return Status::InvalidArgument("unknown column: " + item.column);
      }
      projected.push_back(col);
    }
    select.item_columns.push_back(col);
    switch (item.aggregate) {
      case AggregateKind::kNone:
        select.output_columns.push_back(item.column);
        break;
      case AggregateKind::kCount:
        select.output_columns.push_back(
            item.column.empty() ? "COUNT(*)" : "COUNT(" + item.column + ")");
        break;
      case AggregateKind::kSum:
        select.output_columns.push_back("SUM(" + item.column + ")");
        break;
      case AggregateKind::kAvg:
        select.output_columns.push_back("AVG(" + item.column + ")");
        break;
      case AggregateKind::kMin:
        select.output_columns.push_back("MIN(" + item.column + ")");
        break;
      case AggregateKind::kMax:
        select.output_columns.push_back("MAX(" + item.column + ")");
        break;
    }
  }
  if (!ast.group_by.empty()) {
    select.group_col = ResolveColumnName(schema, ast.group_by);
    if (select.group_col < 0) {
      return Status::InvalidArgument("unknown column: " + ast.group_by);
    }
    projected.push_back(select.group_col);
    select.has_aggregate = true;
  }

  IDB_ASSIGN_OR_RETURN(select.query,
                       BindQuery(session, ast.table, ast.where, projected));
  return select;
}

bool CanPushAggregate(Session* session, const SelectPlan& select) {
  if (!session->scan_options().pushdown) return false;
  if (!select.has_aggregate || select.group_col >= 0) return false;
  for (const SelectItem& item : select.items) {
    // A non-aggregate item needs per-row output; partials can't carry it.
    if (item.aggregate == AggregateKind::kNone) return false;
  }
  return UsableIndexPredicate(session, select.query) == nullptr;
}

void InitPartials(size_t items, AggregatePartials* agg) {
  agg->count = 0;
  agg->sums.assign(items, 0);
  agg->mins.assign(items, Value::Null());
  agg->maxs.assign(items, Value::Null());
  agg->non_null.assign(items, 0);
}

void FoldAggregateRow(const SelectPlan& select, const EvaluatedRow& row,
                      AggregatePartials* agg) {
  ++agg->count;
  const auto& items = select.items;
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].aggregate == AggregateKind::kNone || items[i].column.empty()) {
      continue;
    }
    const Value& v = row.values[select.item_columns[i]];
    if (v.is_null()) continue;
    ++agg->non_null[i];
    if (v.type() == ValueType::kInt64 || v.type() == ValueType::kTimestamp) {
      agg->sums[i] += static_cast<double>(v.int64());
    } else if (v.type() == ValueType::kDouble) {
      agg->sums[i] += v.dbl();
    }
    if (agg->mins[i].is_null() || v.Compare(agg->mins[i]) < 0) {
      agg->mins[i] = v;
    }
    if (agg->maxs[i].is_null() || v.Compare(agg->maxs[i]) > 0) {
      agg->maxs[i] = v;
    }
  }
}

namespace {

/// Merge is associative over per-claimer partials: counts and sums add,
/// extrema compare — so claim order never matters.
void MergePartials(const AggregatePartials& in, AggregatePartials* out) {
  out->count += in.count;
  for (size_t i = 0; i < in.sums.size(); ++i) {
    out->sums[i] += in.sums[i];
    out->non_null[i] += in.non_null[i];
    if (!in.mins[i].is_null() &&
        (out->mins[i].is_null() || in.mins[i].Compare(out->mins[i]) < 0)) {
      out->mins[i] = in.mins[i];
    }
    if (!in.maxs[i].is_null() &&
        (out->maxs[i].is_null() || in.maxs[i].Compare(out->maxs[i]) > 0)) {
      out->maxs[i] = in.maxs[i];
    }
  }
}

}  // namespace

Result<AggregatePartials> ExecuteAggregatePushdown(Session* session,
                                                   const SelectPlan& select) {
  // One partial per CLAIMER, not per partition: a claimer folds every
  // morsel it claims — home partition or stolen — into its own
  // accumulator, and merge associativity makes the claim order irrelevant.
  // A query referencing no degradable column (COUNT(*) over stable
  // predicates) never touches a state store at all.
  MorselScan scan(session, select.query, kMaterializedScanBatchRows);
  std::vector<AggregatePartials> partials(scan.claimers());
  for (AggregatePartials& partial : partials) {
    InitPartials(select.items.size(), &partial);
  }
  IDB_RETURN_IF_ERROR(scan.Drain([&](MorselScan::Claimer* c) {
    for (size_t i = 0; i < c->batch.size; ++i) {
      FoldAggregateRow(select, c->batch.rows[i], &partials[c->id]);
    }
  }));

  AggregatePartials merged;
  InitPartials(select.items.size(), &merged);
  for (const AggregatePartials& partial : partials) {
    MergePartials(partial, &merged);
  }
  scan.counters()->aggregate_partials_merged.fetch_add(
      partials.size(), std::memory_order_relaxed);
  return merged;
}

}  // namespace plan
}  // namespace instantdb
