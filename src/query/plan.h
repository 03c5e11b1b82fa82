#ifndef INSTANTDB_QUERY_PLAN_H_
#define INSTANTDB_QUERY_PLAN_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "db/table.h"
#include "query/ast.h"
#include "query/levels.h"
#include "query/session.h"

/// \file
/// \brief Internal query-plan layer shared by the streaming Cursor and the
/// materializing executor: predicate binding, accuracy resolution, and the
/// batch-at-a-time row source (scan → σ at accuracy level) that both build
/// on — one morsel loop, fanned out over the database's worker pool per the
/// session's ScanOptions.
///
/// Nothing here is part of the stable public API; embedders should use
/// `Session` / `Cursor` (query/session.h, query/cursor.h).

namespace instantdb {
namespace plan {

/// A WHERE conjunct after binding: resolved column, effective accuracy
/// level, and (for degradable columns) the literal normalized to a
/// hierarchy node with its leaf interval.
struct BoundPredicate {
  int column = -1;
  bool degradable = false;
  int level = 0;  // accuracy k of this column under the active purpose
  ComparisonOp op = ComparisonOp::kEq;
  Value value;
  Value value2;

  // Degradable Eq/Like-as-label/Between: literal as hierarchy node.
  int literal_level = -1;
  LeafInterval literal_interval;
  LeafInterval literal_interval2;  // BETWEEN upper bound
  bool index_usable = false;

  // Unresolved LIKE: case-insensitive substring match flags.
  std::string like_core;
  bool like_prefix_wildcard = false;  // pattern starts with %
  bool like_suffix_wildcard = false;  // pattern ends with %
};

/// One bound table access: σ conjuncts plus the accuracy demanded of every
/// referenced degradable column.
struct BoundQuery {
  Table* table = nullptr;
  std::vector<BoundPredicate> predicates;
  /// Accuracy per referenced degradable column index.
  std::map<int, int> accuracy;
  /// Referenced degradable column indexes (projection + predicates).
  std::set<int> referenced_degradable;
};

/// One evaluated row: schema-ordered values at purpose accuracy, plus the
/// effective level of each degradable column (for display rendering).
/// Assignment reuses the vectors' capacity, which is what EvaluatedBatch's
/// slot recycling relies on.
struct EvaluatedRow {
  RowId row_id = kInvalidRowId;
  std::vector<Value> values;
  DegradableLevels degradable_level;  // column -> rendered level
};

/// One batch of qualifying rows, with slot storage reused across batches:
/// Clear() keeps every row's vectors allocated, so a steady-state scan
/// stops allocating after its first few batches (the read path's arena).
struct EvaluatedBatch {
  /// Valid rows are rows[0 .. size); entries beyond hold recycled storage.
  std::vector<EvaluatedRow> rows;
  size_t size = 0;

  void Clear() { size = 0; }
  /// Next writable slot (recycled or grown).
  EvaluatedRow* Add() {
    if (size == rows.size()) rows.emplace_back();
    return &rows[size++];
  }
  /// Drops the most recently added slot (row did not qualify).
  void DropLast() { --size; }
  void Swap(EvaluatedBatch* other) {
    rows.swap(other->rows);
    std::swap(size, other->size);
  }
};

/// Binds table + WHERE conjuncts + projected columns against the catalog and
/// the session's active purpose.
Result<BoundQuery> BindQuery(Session* session, const std::string& table_name,
                             const std::vector<PredicateAst>& where,
                             const std::vector<int>& projected_columns);

/// Renders one output value (buckets as "[lo..hi]", levels applied).
std::string RenderValue(const Schema& schema, int col, const Value& value,
                        const DegradableLevels& levels);

/// \brief Pull-based source of qualifying rows: the scan → σ stage of the
/// operator pipeline, pulled a batch at a time. Implementations stream from
/// the heap's morsel loop (see MakeRowSource) or from a multi-resolution
/// index probe.
class RowSource {
 public:
  virtual ~RowSource() = default;
  /// Pulls the next batch of qualifying rows into `*out` (storage reused or
  /// swapped). Returns false at end of stream. A returned batch may be
  /// empty only at end of stream.
  virtual Result<bool> NextBatch(EvaluatedBatch* out) = 0;
  /// Row-at-a-time adapter over NextBatch for consumers that fold rows into
  /// running state (aggregates, DELETE). Moves each row out of an internal
  /// batch; do not interleave with NextBatch on the same source.
  Result<bool> Next(EvaluatedRow* out);

 private:
  EvaluatedBatch adapter_batch_;
  size_t adapter_next_ = 0;
  bool adapter_done_ = false;
};

/// Default heap-scan batch for streaming cursors: bounds both peak memory
/// and how long one batch holds the table's shared latch.
inline constexpr size_t kStreamingScanBatchRows = 256;

/// Below this many live rows, auto-resolved parallelism (ScanOptions 0)
/// stays at 1: dispatching scan workers costs more than scanning a
/// few-batches table inline.
inline constexpr uint64_t kParallelScanMinRows = 8 * kStreamingScanBatchRows;

/// Resolved scan fan-out: how many claimers a heap scan of `table` wants
/// under the session's ScanOptions. 0 resolves to
/// DegradationOptions::worker_threads — but stays 1 on tables below
/// kParallelScanMinRows, where worker dispatch would dominate. Explicit
/// values are honored. No partition clamp: scans parallelize at morsel
/// (page-range) granularity, so the fan-out may exceed the partition count;
/// the scan clamps it once to its morsel-plan size, and the pool caps it
/// at its free workers plus the calling thread.
size_t ResolveScanParallelism(Session* session, const Table& table);

/// Chooses the access path (index probe when a usable degradable predicate
/// exists and the session allows indexes, heap scan otherwise) and returns
/// the corresponding source. `query` must outlive the source. ReadOptions
/// and ScanOptions are captured from the session at this point.
///
/// `scan_batch_rows` sets the heap-scan batch size. Every heap scan runs
/// the same morsel loop: claimers take page-range morsels from a shared
/// work-stealing scheduler (util/morsel.h) and fetch one latched batch at
/// a time, so isolation is snapshot-per-batch on every path (a row
/// relocated by a concurrent update may be missed or observed twice).
/// Streaming cursors get a source whose consumer thread always scans
/// inline, helped by whatever pool workers are free when it opens; helper
/// batches arrive through a bounded queue, so with helpers rows interleave
/// across morsels in arrival order, and without them (parallelism 1 or a
/// saturated pool) the consumer scans alone. At parallelism 1 rows come
/// out in (partition, page) order. Materializing callers (Execute, DELETE,
/// GROUP BY) pass SIZE_MAX: per-morsel results concatenate in (partition,
/// page) order, so rows come out in that order at any parallelism.
Result<std::unique_ptr<RowSource>> MakeRowSource(
    Session* session, const BoundQuery& query,
    size_t scan_batch_rows = kStreamingScanBatchRows);

/// Fully bound SELECT: access path + projection + aggregation shape.
struct SelectPlan {
  const Schema* schema = nullptr;
  std::vector<SelectItem> items;    // star already expanded
  std::vector<int> item_columns;    // per item: schema column (-1 = COUNT(*))
  std::vector<std::string> output_columns;  // rendered header names
  int group_col = -1;               // schema column, -1 = none
  bool has_aggregate = false;
  BoundQuery query;
};

/// Binds a SELECT statement into an executable plan.
Result<SelectPlan> BindSelect(Session* session, const SelectAst& ast);

/// Aggregate state of one group (or of one scan worker's share of an
/// ungrouped query), indexed like SelectPlan::items. COUNT(*) reads
/// `count`; COUNT(col)/AVG read `non_null`; SUM/AVG read `sums`; MIN/MAX
/// read `mins`/`maxs`.
struct AggregatePartials {
  uint64_t count = 0;
  std::vector<double> sums;
  std::vector<Value> mins;
  std::vector<Value> maxs;
  std::vector<uint64_t> non_null;
};

/// Resets `agg` to the empty state for `items` select items.
void InitPartials(size_t items, AggregatePartials* agg);

/// Folds one qualifying row into `agg`: the one set of per-item aggregate
/// transitions, shared by the pushdown workers and the executor's
/// row-source path.
void FoldAggregateRow(const SelectPlan& select, const EvaluatedRow& row,
                      AggregatePartials* agg);

/// True when `select` can compute below the cursor: pushdown enabled on the
/// session, ungrouped, every item an aggregate, and no usable index
/// predicate (index probes feed the executor's row-source fold).
bool CanPushAggregate(Session* session, const SelectPlan& select);

/// Aggregate pushdown: computes COUNT/SUM/AVG/MIN/MAX partials inside the
/// heap scan's morsel loop — one partial per claimer, folded a latched
/// batch at a time with the stable predicates pushed below row assembly —
/// then merges them (merge is associative, so the claim order never
/// matters). Aggregate queries stop shipping qualifying rows through a row
/// source entirely; a query referencing no degradable column (COUNT(*) over
/// stable predicates) also skips every state-store probe. Only valid when
/// CanPushAggregate(session, select).
Result<AggregatePartials> ExecuteAggregatePushdown(Session* session,
                                                   const SelectPlan& select);

}  // namespace plan
}  // namespace instantdb

#endif  // INSTANTDB_QUERY_PLAN_H_
