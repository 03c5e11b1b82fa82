#include "query/cursor.h"

#include "query/executor.h"
#include "query/plan.h"
#include "query/session.h"

namespace instantdb {

void CursorBatch::Reset(const plan::SelectPlan* plan) {
  plan_ = plan;
  size_ = 0;
}

size_t CursorBatch::Append(RowId row_id) {
  const size_t i = size_++;
  if (i == row_ids_.size()) {
    row_ids_.emplace_back();
    values_.emplace_back();
    levels_.emplace_back();
    display_.emplace_back();
    display_valid_.push_back(0);
  }
  row_ids_[i] = row_id;
  display_valid_[i] = 0;
  return i;
}

void CursorBatch::AdoptBuffered(
    std::vector<std::vector<Value>>&& rows,
    std::vector<std::vector<std::string>>&& display) {
  plan_ = nullptr;
  size_ = rows.size();
  row_ids_.assign(size_, kInvalidRowId);
  values_ = std::move(rows);
  levels_.clear();
  levels_.resize(size_);
  display_ = std::move(display);
  display_.resize(size_);  // pad DML results that carry no display strings
  display_valid_.assign(size_, 1);
}

const std::vector<std::string>& CursorBatch::display(size_t i) const {
  if (!display_valid_[i]) {
    // Lazy π rendering: only consumers that actually read display strings
    // pay for hierarchy lookups and formatting.
    std::vector<std::string>& out = display_[i];
    out.clear();
    const plan::SelectPlan& select = *plan_;
    out.reserve(select.item_columns.size());
    for (size_t k = 0; k < select.item_columns.size(); ++k) {
      out.push_back(plan::RenderValue(*select.schema, select.item_columns[k],
                                      values_[i][k], levels_[i]));
    }
    display_valid_[i] = 1;
  }
  return display_[i];
}

/// Pipeline state: either a live streaming pipeline (non-aggregate SELECT)
/// or a buffered result (aggregates, DML, purpose statements) served as one
/// pre-rendered batch.
struct Cursor::Impl {
  // Streaming: plan owns the bound query the source references, so it lives
  // behind a stable pointer and must be destroyed after the source.
  std::unique_ptr<plan::SelectPlan> plan;
  std::unique_ptr<plan::RowSource> source;
  /// Reused scan → σ output the batch projection reads from.
  plan::EvaluatedBatch evaluated;

  /// Current projected batch (reused storage); what Next/NextBatch expose.
  CursorBatch batch;
  size_t next_row = 0;   // Next()'s position within `batch`
  bool batch_live = false;

  /// Buffered fallback: the whole result is one pre-rendered batch.
  bool use_buffer = false;
  bool buffer_served = false;

  std::vector<std::string> columns;
  uint64_t rows_returned = 0;
  bool closed = false;
};

Cursor::Cursor(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

Cursor::~Cursor() { Close(); }

const std::vector<std::string>& Cursor::columns() const {
  return impl_->columns;
}

uint64_t Cursor::rows_returned() const { return impl_->rows_returned; }

void Cursor::Close() {
  if (impl_ == nullptr || impl_->closed) return;
  impl_->closed = true;
  impl_->source.reset();  // waits out any scan helpers
  impl_->plan.reset();
  impl_->batch = CursorBatch{};
  impl_->batch_live = false;
}

Result<bool> Cursor::FetchBatch() {
  Impl& impl = *impl_;
  impl.batch_live = false;
  impl.next_row = 0;
  if (impl.closed) return false;

  if (impl.use_buffer) {
    if (impl.buffer_served) return false;
    impl.buffer_served = true;
    if (impl.batch.size() == 0) return false;
    impl.batch_live = true;
    return true;
  }

  impl.evaluated.Clear();
  IDB_ASSIGN_OR_RETURN(const bool more, impl.source->NextBatch(&impl.evaluated));
  if (!more) return false;

  // π over the whole batch into reused storage: copy the projected values,
  // carry the per-row levels for lazy display rendering.
  const plan::SelectPlan& select = *impl.plan;
  impl.batch.Reset(impl.plan.get());
  for (size_t r = 0; r < impl.evaluated.size; ++r) {
    const plan::EvaluatedRow& row = impl.evaluated.rows[r];
    const size_t i = impl.batch.Append(row.row_id);
    std::vector<Value>& out = impl.batch.values_[i];
    out.resize(select.item_columns.size());
    for (size_t k = 0; k < select.item_columns.size(); ++k) {
      out[k] = row.values[select.item_columns[k]];
    }
    impl.batch.levels_[i] = row.degradable_level;
  }
  impl.batch_live = impl.batch.size() > 0;
  return impl.batch_live;
}

Result<bool> Cursor::Next(CursorRow* out) {
  Impl& impl = *impl_;
  while (!impl.batch_live || impl.next_row >= impl.batch.size()) {
    IDB_ASSIGN_OR_RETURN(const bool more, FetchBatch());
    if (!more) return false;
  }
  out->batch_ = &impl.batch;
  out->index_ = impl.next_row++;
  ++impl.rows_returned;
  return true;
}

Result<bool> Cursor::NextBatch(CursorBatch** out) {
  IDB_ASSIGN_OR_RETURN(const bool more, FetchBatch());
  if (!more) return false;
  impl_->next_row = impl_->batch.size();  // Next() may not re-serve these
  impl_->rows_returned += impl_->batch.size();
  *out = &impl_->batch;
  return true;
}

Result<bool> Cursor::NextBatch(const CursorBatch** out) {
  CursorBatch* batch = nullptr;
  IDB_ASSIGN_OR_RETURN(const bool more, NextBatch(&batch));
  if (more) *out = batch;
  return more;
}

Result<std::unique_ptr<Cursor>> Cursor::Open(Session* session,
                                             const StatementAst& statement,
                                             size_t scan_batch_rows) {
  if (scan_batch_rows == 0) scan_batch_rows = plan::kStreamingScanBatchRows;
  auto impl = std::make_unique<Impl>();
  const auto* select_ast = std::get_if<SelectAst>(&statement);
  QueryResult buffered;
  if (select_ast != nullptr) {
    // Plan exactly once, whichever entry point the statement came through.
    auto plan = std::make_unique<plan::SelectPlan>();
    IDB_ASSIGN_OR_RETURN(*plan, plan::BindSelect(session, *select_ast));
    if (!plan->has_aggregate) {
      impl->columns = plan->output_columns;
      impl->plan = std::move(plan);
      IDB_ASSIGN_OR_RETURN(impl->source,
                           plan::MakeRowSource(session, impl->plan->query,
                                               scan_batch_rows));
      return std::unique_ptr<Cursor>(new Cursor(std::move(impl)));
    }
    // Aggregates execute eagerly over the bound plan; the cursor streams
    // the (small) aggregated result.
    IDB_ASSIGN_OR_RETURN(buffered, ExecuteAggregate(session, *plan));
  } else {
    // Non-SELECT statements execute eagerly; the cursor streams their
    // summary result.
    IDB_ASSIGN_OR_RETURN(buffered, ExecuteStatement(session, statement));
  }
  impl->use_buffer = true;
  impl->columns = buffered.columns;
  impl->batch.AdoptBuffered(std::move(buffered.rows),
                            std::move(buffered.display));
  return std::unique_ptr<Cursor>(new Cursor(std::move(impl)));
}

}  // namespace instantdb
