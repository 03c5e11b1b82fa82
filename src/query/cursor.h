#ifndef INSTANTDB_QUERY_CURSOR_H_
#define INSTANTDB_QUERY_CURSOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/value.h"
#include "common/result.h"
#include "query/ast.h"
#include "query/levels.h"
#include "storage/page.h"

namespace instantdb {

class Session;
namespace plan {
struct SelectPlan;
}  // namespace plan

/// \brief One batch of projected output rows, owned by the Cursor and
/// served by `Cursor::NextBatch`. Valid until the next
/// NextBatch/Next/Close call; storage is reused across batches.
///
/// Values are materialized per batch (π over the scan → σ output); display
/// strings are NOT — `display(i)` renders row i's strings on first access
/// and caches them, so a consumer that only reads `values` never pays for
/// string formatting (the dominant per-row cost of the old row-at-a-time
/// pipeline).
class CursorBatch {
 public:
  size_t size() const { return size_; }
  RowId row_id(size_t i) const { return row_ids_[i]; }
  /// Projected values of row i, in SELECT-item order.
  const std::vector<Value>& values(size_t i) const { return values_[i]; }
  /// Display renderings of row i (bucket values render as "[lo..hi]"),
  /// produced lazily on first access.
  const std::vector<std::string>& display(size_t i) const;

  /// Moves row i's projected values out, leaving the slot empty. For
  /// single-pass materializing drains (each row taken once); streaming
  /// consumers should read `values(i)` instead — a taken slot costs a
  /// reallocation when the batch is recycled. If row i's display is also
  /// wanted, take (or read) it BEFORE the values: rendering reads them.
  std::vector<Value> TakeValues(size_t i) { return std::move(values_[i]); }
  /// Moves row i's display strings out, rendering them first if needed.
  std::vector<std::string> TakeDisplay(size_t i) {
    display(i);
    display_valid_[i] = 0;
    return std::move(display_[i]);
  }

 private:
  friend class Cursor;

  /// Clears rows, keeping per-row storage for reuse. `plan` provides the
  /// schema/items for lazy rendering (null for pre-rendered buffered
  /// results).
  void Reset(const plan::SelectPlan* plan);
  /// Appends one row slot and returns its index (storage recycled).
  size_t Append(RowId row_id);
  /// Adopts an eagerly-materialized result (aggregates, DML) as one
  /// pre-rendered batch: values and display strings move over verbatim,
  /// every display slot is marked rendered (no plan needed). The single
  /// place the parallel per-row vectors are assembled outside
  /// Reset/Append.
  void AdoptBuffered(std::vector<std::vector<Value>>&& rows,
                     std::vector<std::vector<std::string>>&& display);

  const plan::SelectPlan* plan_ = nullptr;
  std::vector<RowId> row_ids_;
  std::vector<std::vector<Value>> values_;
  std::vector<DegradableLevels> levels_;
  mutable std::vector<std::vector<std::string>> display_;
  mutable std::vector<uint8_t> display_valid_;
  size_t size_ = 0;
};

/// \brief One streamed output row: a view into the cursor's current batch,
/// filled by `Cursor::Next`. Valid until the next Next/NextBatch/Close call
/// on the cursor; copy out anything that must outlive the pull. Display
/// strings are rendered lazily on first `display()` access.
class CursorRow {
 public:
  RowId row_id() const { return batch_->row_id(index_); }
  /// Projected values in SELECT-item order.
  const std::vector<Value>& values() const { return batch_->values(index_); }
  /// Display renderings (rendered on first access, then cached in the
  /// batch).
  const std::vector<std::string>& display() const {
    return batch_->display(index_);
  }

 private:
  friend class Cursor;
  const CursorBatch* batch_ = nullptr;
  size_t index_ = 0;
};

/// \brief Pull-based result iterator: the scalable read path.
///
/// A cursor executes a SELECT as a batch-at-a-time operator pipeline
/// (scan → σ at the purpose's accuracy level → π), so a SELECT over
/// millions of rows never materializes more than a bounded window of scan
/// batches. Obtained from `Session::ExecuteCursor` or
/// `PreparedStatement::ExecuteCursor`:
///
/// \code
///   auto cursor = session.ExecuteCursor("SELECT user, location FROM pings");
///   CursorRow row;
///   while (true) {
///     auto more = (*cursor)->Next(&row);
///     if (!more.ok() || !*more) break;
///     Consume(row.values());           // row.display() renders on demand
///   }
/// \endcode
///
/// **Parallel fan-out.** The scan side runs at the session's
/// `ScanOptions::parallelism` (0 = match the database's worker pool). The
/// unit of parallelism is the morsel, a page range of one partition, so the
/// fan-out is not clamped to the partition count. The consumer's thread
/// always scans morsels itself, helped by however many pool workers are
/// free when the cursor opens (at most parallelism − 1); no thread is ever
/// spawned for a scan. With helpers, their batches arrive through a bounded
/// queue and rows interleave across morsels in arrival order (no global
/// order). At parallelism 1 the consumer scans alone and rows come out in
/// (partition, heap) order. Either way `Next` is a view into the current
/// batch and `NextBatch` exposes the batches themselves — the bulk API the
/// benches drain.
///
/// Isolation is snapshot-per-batch at every parallelism: each scan batch is
/// assembled under one partition's shared latch, rows inserted, deleted or
/// degraded while the cursor is open may or may not be observed (never
/// torn), and a row physically relocated by a concurrent update can be
/// missed or seen twice. Materialized reads through `Session::Execute` have
/// the same per-batch isolation; they return rows in (partition, heap)
/// order at any parallelism. Aggregate/GROUP BY statements are supported
/// but buffer their (small) aggregated result before streaming it.
class Cursor {
 public:
  ~Cursor();
  Cursor(const Cursor&) = delete;
  Cursor& operator=(const Cursor&) = delete;

  /// Output column names, available immediately after open.
  const std::vector<std::string>& columns() const;

  /// Pulls the next row into `*out` as a view into the current batch
  /// (valid until the next Next/NextBatch/Close). Returns true when a row
  /// was produced, false at end of stream. Calling Next after the end (or
  /// after Close) keeps returning false. Do not interleave with NextBatch.
  Result<bool> Next(CursorRow* out);

  /// Advances to the next batch of rows and points `*out` at it (valid
  /// until the next NextBatch/Next/Close). Returns false at end of stream.
  /// Batches are non-empty while the stream lasts.
  Result<bool> NextBatch(const CursorBatch** out);
  /// Mutable variant for consumers that move rows out of the batch
  /// (CursorBatch::TakeValues/TakeDisplay) — the materializing executor's
  /// drain, which would otherwise deep-copy the whole result.
  Result<bool> NextBatch(CursorBatch** out);

  /// Releases pipeline resources early (stopping any scan helpers);
  /// Next/NextBatch return false afterwards. Also run by the destructor.
  void Close();

  /// Rows handed out so far (per row via Next, per batch via NextBatch).
  uint64_t rows_returned() const;

  /// Opens the pipeline for one parsed statement (SELECT streams; other
  /// statements execute eagerly and stream their result rows). Most callers
  /// use `Session::ExecuteCursor(sql)` instead.
  ///
  /// `scan_batch_rows` bounds how many rows one heap-scan batch assembles
  /// under a partition's shared latch. The streaming default (0) keeps
  /// memory bounded; `Session::Execute` passes SIZE_MAX, which materializes
  /// the whole result on the worker pool in (partition, heap) order.
  static Result<std::unique_ptr<Cursor>> Open(Session* session,
                                              const StatementAst& statement,
                                              size_t scan_batch_rows = 0);

 private:
  struct Impl;
  explicit Cursor(std::unique_ptr<Impl> impl);

  /// Fetches the next non-empty batch into the impl's CursorBatch without
  /// touching rows_returned. Returns false at end of stream.
  Result<bool> FetchBatch();

  std::unique_ptr<Impl> impl_;
};

}  // namespace instantdb

#endif  // INSTANTDB_QUERY_CURSOR_H_
