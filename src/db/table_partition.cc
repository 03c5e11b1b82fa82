#include "db/table_partition.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "common/strings.h"
#include "io/env.h"

namespace instantdb {

TablePartition::TablePartition(const TableDef* def, std::string dir,
                               const TableRuntime& runtime, uint32_t index)
    : def_(def), dir_(std::move(dir)), runtime_(runtime), index_(index) {
  if (runtime_.env == nullptr) runtime_.env = Env::Default();
}

TablePartition::~TablePartition() = default;

std::string TablePartition::StoreDir(int column, int phase) const {
  return dir_ + StringPrintf("/stores/c%d.p%d", column, phase);
}

const StateStore* TablePartition::store(int column, int phase) const {
  const int ordinal = schema().DegradableOrdinal(column);
  if (ordinal < 0 || static_cast<size_t>(ordinal) >= stores_.size() ||
      phase < 0 || static_cast<size_t>(phase) >= stores_[ordinal].size()) {
    return nullptr;  // kInPlace layout has no stores
  }
  return stores_[ordinal][phase].get();
}

Status TablePartition::Open() {
  IDB_RETURN_IF_ERROR(runtime_.env->CreateDirs(dir_));
  // Heap pages get CRC stamps (reserved header word): a torn page write
  // surfaces as Corruption instead of decoding garbage rows.
  IDB_ASSIGN_OR_RETURN(
      heap_disk_, DiskManager::Open(HeapPath(), runtime_.storage.page_size,
                                    runtime_.env, /*checksum_pages=*/true));
  heap_pool_ = std::make_unique<BufferPool>(
      heap_disk_.get(), runtime_.storage.buffer_pool_pages);
  heap_ = std::make_unique<HeapFile>(heap_pool_.get());
  IDB_RETURN_IF_ERROR(heap_->Open());

  // Rebuild the row-id map (and in-place schedules) from the heap.
  row_map_.clear();
  inplace_queues_.assign(schema().degradable_columns().size(), {});
  for (size_t d = 0; d < schema().degradable_columns().size(); ++d) {
    const ColumnDef& col = schema().column(schema().degradable_columns()[d]);
    inplace_queues_[d].assign(col.lcp.num_phases(), {});
  }
  RowId max_row = 0;
  std::vector<HeapTuple> tuples;  // only for kInPlace schedule rebuild
  Status scan_status;
  IDB_RETURN_IF_ERROR(heap_->Scan([&](Rid rid, Slice record) {
    HeapTuple tuple;
    scan_status = DecodeHeapTuple(schema(), runtime_.layout, record, &tuple);
    if (!scan_status.ok()) return false;
    row_map_[tuple.row_id] = rid;
    max_row = std::max(max_row, tuple.row_id);
    if (runtime_.layout == DegradableLayout::kInPlace) {
      tuples.push_back(std::move(tuple));
    }
    return true;
  }));
  IDB_RETURN_IF_ERROR(scan_status);
  max_row_id_ = max_row;

  if (runtime_.layout == DegradableLayout::kInPlace) {
    std::sort(tuples.begin(), tuples.end(),
              [](const HeapTuple& a, const HeapTuple& b) {
                return a.row_id < b.row_id;
              });
    for (const HeapTuple& tuple : tuples) {
      for (size_t d = 0; d < tuple.degradable.size(); ++d) {
        const int phases = static_cast<int>(inplace_queues_[d].size());
        if (tuple.degradable[d].phase < phases) {
          inplace_queues_[d][tuple.degradable[d].phase].emplace_back(
              tuple.row_id, tuple.insert_time);
        }
      }
    }
  }

  // State stores (kStateStores layout only).
  stores_.clear();
  if (runtime_.layout == DegradableLayout::kStateStores) {
    for (int col_idx : schema().degradable_columns()) {
      const ColumnDef& col = schema().column(col_idx);
      std::vector<std::unique_ptr<StateStore>> per_phase;
      for (int p = 0; p < col.lcp.num_phases(); ++p) {
        auto store = std::make_unique<StateStore>(
            StoreDir(col_idx, p), id(), col_idx, p, runtime_.storage,
            runtime_.keys, runtime_.env);
        IDB_RETURN_IF_ERROR(store->Open());
        // Ids of fully degraded (expired) tuples have left the heap but
        // must never be re-allocated: an append of a reused id would be
        // mistaken for WAL redo of the popped value and dropped.
        if (store->LastAppendedRowId() != kInvalidRowId) {
          max_row_id_ = std::max(max_row_id_, store->LastAppendedRowId());
        }
        per_phase.push_back(std::move(store));
      }
      stores_.push_back(std::move(per_phase));
    }
  }

  // Row-id allocator: this partition mints ids congruent to its index
  // (id = m * partitions + index), resuming above everything recovered.
  const RowId stride = runtime_.partitions == 0 ? 1 : runtime_.partitions;
  next_multiplier_.store(
      max_row_id_ == 0 ? (index_ == 0 ? 1 : 0) : max_row_id_ / stride + 1,
      std::memory_order_relaxed);
  return Status::OK();
}

RowId TablePartition::AllocateRowId() {
  const RowId stride = runtime_.partitions == 0 ? 1 : runtime_.partitions;
  const RowId m = next_multiplier_.fetch_add(1, std::memory_order_relaxed);
  return m * stride + index_;
}

void TablePartition::EnsureRowAllocatorAbove(RowId row_id) {
  const RowId stride = runtime_.partitions == 0 ? 1 : runtime_.partitions;
  const RowId next = row_id / stride + 1;
  RowId expect = next_multiplier_.load(std::memory_order_relaxed);
  while (next > expect &&
         !next_multiplier_.compare_exchange_weak(expect, next,
                                                 std::memory_order_relaxed)) {
  }
}

Status TablePartition::RebuildIndexes() {
  // Indexes are derived data: recreate the index file from scratch.
  index_pool_.reset();
  index_disk_.reset();
  if (runtime_.env->FileExists(IndexPath())) {
    IDB_RETURN_IF_ERROR(runtime_.env->RemoveFile(IndexPath()));
  }
  // No page checksums here: B-tree nodes use the reserved header word for
  // the leftmost-child pointer (see DiskManager).
  IDB_ASSIGN_OR_RETURN(
      index_disk_, DiskManager::Open(IndexPath(), runtime_.storage.page_size,
                                     runtime_.env));
  index_pool_ = std::make_unique<BufferPool>(
      index_disk_.get(), runtime_.storage.buffer_pool_pages);

  multires_.clear();
  bitmaps_.clear();
  for (int col_idx : schema().degradable_columns()) {
    const ColumnDef& col = schema().column(col_idx);
    auto index = std::make_unique<MultiResolutionIndex>(col, index_pool_.get());
    IDB_RETURN_IF_ERROR(index->Init());
    multires_.push_back(std::move(index));
    if (runtime_.bitmap_indexes) {
      bitmaps_.push_back(std::make_unique<BitmapColumnIndex>(col));
    }
  }

  if (runtime_.layout == DegradableLayout::kStateStores) {
    for (size_t d = 0; d < stores_.size(); ++d) {
      for (size_t p = 0; p < stores_[d].size(); ++p) {
        Status status;
        stores_[d][p]->ForEach([&](const StoreEntry& entry) {
          status = multires_[d]->OnInsertAtPhase(entry.row_id, entry.value,
                                                 static_cast<int>(p));
          if (status.ok() && !bitmaps_.empty()) {
            status = bitmaps_[d]->OnInsertAtPhase(entry.row_id, entry.value,
                                                  static_cast<int>(p));
          }
          return status.ok();
        });
        IDB_RETURN_IF_ERROR(status);
      }
    }
  } else {
    Status status;
    IDB_RETURN_IF_ERROR(heap_->Scan([&](Rid, Slice record) {
      HeapTuple tuple;
      status = DecodeHeapTuple(schema(), runtime_.layout, record, &tuple);
      if (!status.ok()) return false;
      for (size_t d = 0; d < tuple.degradable.size(); ++d) {
        const InlineDegradable& inline_value = tuple.degradable[d];
        if (inline_value.phase >=
            static_cast<int32_t>(inplace_queues_[d].size())) {
          continue;  // removed
        }
        status = multires_[d]->OnInsertAtPhase(tuple.row_id,
                                               inline_value.value,
                                               inline_value.phase);
        if (status.ok() && !bitmaps_.empty()) {
          status = bitmaps_[d]->OnInsertAtPhase(tuple.row_id,
                                                inline_value.value,
                                                inline_value.phase);
        }
        if (!status.ok()) return false;
      }
      return true;
    }));
    IDB_RETURN_IF_ERROR(status);
  }
  return Status::OK();
}

Status TablePartition::Checkpoint() {
  std::shared_lock<std::shared_mutex> latch(latch_);
  // Write ordering: stores BEFORE heap. A durable heap row whose store
  // entries never reached disk is a shell with every degradable value at ⊥;
  // ApplyInsert's redo can repair one, but only while the insert record is
  // still replayed, so the flush must never advance the manifest past an
  // insert whose store entry it failed to persist. Syncing the heap only
  // after every store checkpoint succeeded makes "heap row durable ⟹ its
  // store entries durable" an invariant of every flush attempt, even one a
  // fault aborts halfway. (Buffer-pool eviction can still leak a heap page
  // early — that residual window is what the ApplyInsert repair path
  // covers.) Cross-store consistency needs no ordering: a failed attempt
  // never advances clean_through_, so the WAL replays the affected records
  // against whichever subset landed.
  for (auto& per_phase : stores_) {
    for (auto& store : per_phase) {
      IDB_RETURN_IF_ERROR(store->Checkpoint());
    }
  }
  return heap_pool_->FlushAll();
}

Result<bool> TablePartition::CheckpointIfDirty(
    const std::vector<Lsn>& positions) {
  std::lock_guard<std::mutex> ckpt(ckpt_mu_);
  const uint64_t seq = mutation_seq_.load(std::memory_order_acquire);
  bool flushed = false;
  if (seq != flushed_seq_.load(std::memory_order_relaxed)) {
    IDB_RETURN_IF_ERROR(Checkpoint());
    // Mutations cannot land mid-flush (they need the exclusive latch), so
    // the flush covered everything through `seq`. A mutation applying
    // between the load above and the flush's latch acquisition is also on
    // disk now but stays conservatively unaccounted — the partition reads
    // as dirty again next time and re-flushes.
    flushed_seq_.store(seq, std::memory_order_release);
    flushed = true;
  }
  // Flushed or clean, the durable state now covers every record below the
  // begin positions (see the header's correctness argument).
  clean_through_ = positions;
  return flushed;
}

std::vector<Lsn> TablePartition::clean_through() const {
  std::lock_guard<std::mutex> ckpt(ckpt_mu_);
  return clean_through_;
}

Status TablePartition::Drop() {
  std::unique_lock<std::shared_mutex> latch(latch_);
  for (auto& per_phase : stores_) {
    for (auto& store : per_phase) {
      IDB_RETURN_IF_ERROR(store->Drop());
    }
  }
  stores_.clear();
  heap_.reset();
  heap_pool_.reset();
  heap_disk_.reset();
  index_pool_.reset();
  index_disk_.reset();
  return runtime_.env->RemoveDirRecursive(dir_);
}

// --- apply closures ----------------------------------------------------------------

Status TablePartition::ApplyInsert(RowId row_id, Micros insert_time,
                                   const std::vector<Value>& stable,
                                   const std::vector<Value>& degradable,
                                   bool degradable_available) {
  std::unique_lock<std::shared_mutex> latch(latch_);
  if (row_map_.count(row_id) != 0) {
    // Idempotent redo over a row the heap already holds — but not a blind
    // skip. A heap page can reach disk through buffer-pool eviction at any
    // time, independent of Checkpoint, so after a crash the heap may hold a
    // row whose store entries never became durable; skipping here would
    // freeze that shell with every degradable value at ⊥ forever. Re-offer
    // the values to the phase-0 stores instead. If ANY phase still holds
    // the row, nothing was lost (possibly it already degraded — a later
    // degrade record in log order re-converges), so only a row absent from
    // every phase is repaired. Append and the index OnInsert hooks are
    // idempotent, so a repeated redo stays a no-op.
    if (degradable_available &&
        runtime_.layout == DegradableLayout::kStateStores) {
      for (size_t d = 0; d < schema().degradable_columns().size(); ++d) {
        bool present = false;
        for (const auto& store : stores_[d]) {
          if (store->Find(row_id) != nullptr) {
            present = true;
            break;
          }
        }
        if (present) continue;
        IDB_RETURN_IF_ERROR(
            stores_[d][0]->Append({row_id, insert_time, degradable[d]}));
        if (!multires_.empty()) {
          IDB_RETURN_IF_ERROR(multires_[d]->OnInsert(row_id, degradable[d]));
        }
        if (!bitmaps_.empty()) {
          IDB_RETURN_IF_ERROR(bitmaps_[d]->OnInsert(row_id, degradable[d]));
        }
      }
      mutation_seq_.fetch_add(1, std::memory_order_release);
    }
    return Status::OK();
  }
  HeapTuple tuple;
  tuple.row_id = row_id;
  tuple.insert_time = insert_time;
  tuple.stable = stable;
  if (runtime_.layout == DegradableLayout::kInPlace) {
    tuple.degradable.resize(schema().degradable_columns().size());
    for (size_t d = 0; d < tuple.degradable.size(); ++d) {
      tuple.degradable[d].phase = 0;
      tuple.degradable[d].value =
          degradable_available ? degradable[d] : Value::Null();
    }
  }
  std::string encoded;
  EncodeHeapTuple(schema(), runtime_.layout, tuple, &encoded);
  IDB_ASSIGN_OR_RETURN(Rid rid, heap_->Insert(encoded));
  row_map_[row_id] = rid;
  max_row_id_ = std::max(max_row_id_, row_id);

  if (degradable_available) {
    for (size_t d = 0; d < schema().degradable_columns().size(); ++d) {
      if (runtime_.layout == DegradableLayout::kStateStores) {
        IDB_RETURN_IF_ERROR(
            stores_[d][0]->Append({row_id, insert_time, degradable[d]}));
      } else {
        inplace_queues_[d][0].emplace_back(row_id, insert_time);
      }
      if (!multires_.empty()) {
        IDB_RETURN_IF_ERROR(multires_[d]->OnInsert(row_id, degradable[d]));
      }
      if (!bitmaps_.empty()) {
        IDB_RETURN_IF_ERROR(bitmaps_[d]->OnInsert(row_id, degradable[d]));
      }
    }
  }
  ++stats_.inserts;
  mutation_seq_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

Status TablePartition::ApplyDelete(RowId row_id) {
  std::unique_lock<std::shared_mutex> latch(latch_);
  auto it = row_map_.find(row_id);
  if (it == row_map_.end()) return Status::OK();  // idempotent redo

  // Remove degradable values from stores + indexes.
  if (runtime_.layout == DegradableLayout::kStateStores) {
    for (size_t d = 0; d < stores_.size(); ++d) {
      for (size_t p = 0; p < stores_[d].size(); ++p) {
        const StoreEntry* entry = stores_[d][p]->Find(row_id);
        if (entry == nullptr) continue;
        const Value value = entry->value;
        if (!multires_.empty()) {
          IDB_RETURN_IF_ERROR(
              multires_[d]->OnDelete(row_id, static_cast<int>(p), value));
        }
        if (!bitmaps_.empty()) {
          IDB_RETURN_IF_ERROR(
              bitmaps_[d]->OnDelete(row_id, static_cast<int>(p), value));
        }
        IDB_RETURN_IF_ERROR(stores_[d][p]->SecureDeleteEntry(row_id));
        break;
      }
    }
  } else {
    IDB_ASSIGN_OR_RETURN(std::string record, heap_->Get(it->second));
    HeapTuple tuple;
    IDB_RETURN_IF_ERROR(
        DecodeHeapTuple(schema(), runtime_.layout, record, &tuple));
    for (size_t d = 0; d < tuple.degradable.size(); ++d) {
      const InlineDegradable& inline_value = tuple.degradable[d];
      if (inline_value.phase >=
          static_cast<int32_t>(inplace_queues_[d].size())) {
        continue;
      }
      if (!multires_.empty()) {
        IDB_RETURN_IF_ERROR(multires_[d]->OnDelete(
            row_id, inline_value.phase, inline_value.value));
      }
      if (!bitmaps_.empty()) {
        IDB_RETURN_IF_ERROR(bitmaps_[d]->OnDelete(
            row_id, inline_value.phase, inline_value.value));
      }
    }
  }
  IDB_RETURN_IF_ERROR(heap_->Delete(it->second));
  row_map_.erase(it);
  ++stats_.deletes;
  mutation_seq_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

Status TablePartition::ApplyUpdateStable(RowId row_id,
                                         const std::vector<Value>& stable) {
  std::unique_lock<std::shared_mutex> latch(latch_);
  auto it = row_map_.find(row_id);
  if (it == row_map_.end()) return Status::OK();  // idempotent redo
  IDB_ASSIGN_OR_RETURN(std::string record, heap_->Get(it->second));
  HeapTuple tuple;
  IDB_RETURN_IF_ERROR(
      DecodeHeapTuple(schema(), runtime_.layout, record, &tuple));
  tuple.stable = stable;
  std::string encoded;
  EncodeHeapTuple(schema(), runtime_.layout, tuple, &encoded);
  Rid new_rid;
  IDB_RETURN_IF_ERROR(heap_->Update(it->second, encoded, &new_rid));
  it->second = new_rid;
  mutation_seq_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

// --- read path ---------------------------------------------------------------------

Status TablePartition::ScanRows(const std::function<bool(const RowView&)>& fn,
                                bool* stopped) const {
  constexpr size_t kChunkRows = 1024;
  std::shared_lock<std::shared_mutex> latch(latch_);
  *stopped = false;
  ScanWorkspace ws;
  std::vector<RowView> views;
  ScanDeltas deltas;  // not a query scan: the counters stay untouched
  Rid pos{0, 0};
  bool done = false;
  while (!done) {
    IDB_RETURN_IF_ERROR(
        DecodeRangeLocked(&pos, kInvalidPageId, kChunkRows, &ws, &done));
    AssembleSurvivorsLocked(ScanSpec{}, &ws, &views, &deltas);
    for (const RowView& view : views) {
      if (!fn(view)) {
        *stopped = true;
        return Status::OK();
      }
    }
  }
  return Status::OK();
}

std::vector<Morsel> TablePartition::MorselPlan(uint32_t pages_per_morsel) const {
  if (pages_per_morsel == 0) pages_per_morsel = kDefaultMorselPages;
  // num_pages is an atomic read; appends racing the plan land beyond the
  // snapshot and are covered by the open-ended last morsel.
  const PageId pages = heap_pool_->disk()->num_pages();
  std::vector<Morsel> plan;
  PageId begin = 0;
  do {
    Morsel m;
    m.partition = index_;
    m.begin_page = begin;
    begin += pages_per_morsel;
    m.end_page = begin < pages ? begin : kInvalidPageId;
    plan.push_back(m);
  } while (begin < pages);
  return plan;
}

Status TablePartition::DecodeRangeLocked(Rid* pos, PageId end_page,
                                         size_t limit, ScanWorkspace* ws,
                                         bool* done) const {
  *done = true;
  ws->count = 0;
  Status decode_status;
  IDB_RETURN_IF_ERROR(heap_->ScanRange(*pos, end_page, [&](Rid rid, Slice record) {
    if (ws->count >= limit) {
      *pos = rid;  // resume here: this record has not been consumed
      *done = false;
      return false;
    }
    if (ws->count == ws->tuples.size()) ws->tuples.emplace_back();
    decode_status = DecodeHeapTuple(schema(), runtime_.layout, record,
                                    &ws->tuples[ws->count]);
    if (!decode_status.ok()) return false;
    ++ws->count;
    return true;
  }));
  return decode_status;
}

Status TablePartition::ScanBatchFiltered(Rid* pos, PageId end_page,
                                         size_t limit, const ScanSpec& spec,
                                         ScanWorkspace* ws,
                                         std::vector<RowView>* out, bool* done,
                                         ScanDeltas* deltas) const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  IDB_RETURN_IF_ERROR(DecodeRangeLocked(pos, end_page, limit, ws, done));
  AssembleSurvivorsLocked(spec, ws, out, deltas);
  return Status::OK();
}

Status TablePartition::FetchRows(const RowId* ids, size_t n,
                                 const ScanSpec& spec, ScanWorkspace* ws,
                                 std::vector<RowView>* out,
                                 ScanDeltas* deltas) const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  ws->count = 0;
  for (size_t i = 0; i < n; ++i) {
    auto it = row_map_.find(ids[i]);
    if (it == row_map_.end()) continue;  // deleted or expired since listed
    IDB_ASSIGN_OR_RETURN(std::string record, heap_->Get(it->second));
    if (ws->count == ws->tuples.size()) ws->tuples.emplace_back();
    IDB_RETURN_IF_ERROR(DecodeHeapTuple(schema(), runtime_.layout, record,
                                        &ws->tuples[ws->count]));
    ++ws->count;
  }
  AssembleSurvivorsLocked(spec, ws, out, deltas);
  return Status::OK();
}

void TablePartition::AssembleSurvivorsLocked(const ScanSpec& spec,
                                             ScanWorkspace* ws,
                                             std::vector<RowView>* out,
                                             ScanDeltas* deltas) const {
  const size_t n = ws->count;
  const auto& degradable_cols = schema().degradable_columns();
  const size_t dcols = degradable_cols.size();

  ws->selection.clear();
  if (spec.filter != nullptr) {
    spec.filter->SelectStable(ws->tuples.data(), n, &ws->selection);
  } else {
    ws->selection.resize(n);
    for (size_t i = 0; i < n; ++i) ws->selection[i] = static_cast<uint32_t>(i);
  }
  const size_t survivors = ws->selection.size();

  deltas->rows_scanned += n;
  deltas->rows_prefiltered += n - survivors;
  deltas->probes_skipped += (n - survivors) * dcols;
  if (spec.need_degradable) {
    deltas->probes_issued += survivors * dcols;
  } else {
    deltas->probes_skipped += survivors * dcols;
  }

  // Replace semantics with slot recycling: the overlapping prefix of the
  // caller's vector keeps its per-row vector capacity across batches.
  if (out->size() > survivors) out->resize(survivors);
  while (out->size() < survivors) out->emplace_back();

  for (size_t k = 0; k < survivors; ++k) {
    const HeapTuple& tuple = ws->tuples[ws->selection[k]];
    RowView& view = (*out)[k];
    view.row_id = tuple.row_id;
    view.insert_time = tuple.insert_time;
    view.values.assign(schema().num_columns(), Value::Null());
    for (size_t i = 0; i < schema().stable_columns().size(); ++i) {
      view.values[schema().stable_columns()[i]] = tuple.stable[i];
    }
    view.phases.assign(dcols, 0);
  }
  if (!spec.need_degradable || dcols == 0 || survivors == 0) return;

  if (runtime_.layout == DegradableLayout::kInPlace) {
    for (size_t k = 0; k < survivors; ++k) {
      const HeapTuple& tuple = ws->tuples[ws->selection[k]];
      RowView& view = (*out)[k];
      for (size_t d = 0; d < dcols; ++d) {
        const InlineDegradable& inline_value = tuple.degradable[d];
        view.phases[d] = inline_value.phase;
        if (inline_value.phase <
            schema().column(degradable_cols[d]).lcp.num_phases()) {
          view.values[degradable_cols[d]] = inline_value.value;
        }
      }
    }
    return;
  }

  // kStateStores: one sorted merge per (column, phase) store over the
  // survivors' ascending row ids. Heap order is mostly — but not strictly —
  // ascending (updates relocate rows), hence the sort.
  ws->order.resize(survivors);
  for (size_t k = 0; k < survivors; ++k) ws->order[k] = static_cast<uint32_t>(k);
  std::sort(ws->order.begin(), ws->order.end(), [&](uint32_t a, uint32_t b) {
    return ws->tuples[ws->selection[a]].row_id <
           ws->tuples[ws->selection[b]].row_id;
  });
  ws->ids.resize(survivors);
  for (size_t j = 0; j < survivors; ++j) {
    ws->ids[j] = ws->tuples[ws->selection[ws->order[j]]].row_id;
  }
  for (size_t d = 0; d < dcols; ++d) {
    const int removed = schema().column(degradable_cols[d]).lcp.num_phases();
    ws->entries.assign(survivors, nullptr);
    ws->phases.assign(survivors, removed);
    size_t found = 0;
    for (size_t p = 0; p < stores_[d].size() && found < survivors; ++p) {
      const size_t hits =
          stores_[d][p]->FindMany(ws->ids.data(), survivors, ws->entries.data());
      if (hits == 0) continue;
      found += hits;
      for (size_t j = 0; j < survivors; ++j) {
        if (ws->phases[j] == removed && ws->entries[j] != nullptr) {
          ws->phases[j] = static_cast<int>(p);
        }
      }
    }
    for (size_t j = 0; j < survivors; ++j) {
      RowView& view = (*out)[ws->order[j]];
      view.phases[d] = ws->phases[j];
      if (ws->entries[j] != nullptr) {
        view.values[degradable_cols[d]] = ws->entries[j]->value;
      }
    }
  }
}

bool TablePartition::Contains(RowId row_id) const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  return row_map_.count(row_id) != 0;
}

std::vector<std::pair<int, int>> TablePartition::StoresHolding(
    RowId row_id) const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  std::vector<std::pair<int, int>> holding;
  for (size_t d = 0; d < stores_.size(); ++d) {
    const int col_idx = schema().degradable_columns()[d];
    for (size_t p = 0; p < stores_[d].size(); ++p) {
      if (stores_[d][p]->Find(row_id) != nullptr) {
        holding.emplace_back(col_idx, static_cast<int>(p));
        break;
      }
    }
  }
  return holding;
}

uint64_t TablePartition::live_rows() const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  return row_map_.size();
}

Status TablePartition::IndexLookupEqual(int column, const Value& value,
                                        int level,
                                        std::vector<RowId>* out) const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  const int ordinal = schema().DegradableOrdinal(column);
  if (ordinal < 0 || multires_.empty()) {
    return Status::InvalidArgument("no multi-resolution index on column");
  }
  return multires_[ordinal]->LookupEqual(value, level, [&](RowId rid) {
    out->push_back(rid);
    return true;
  });
}

Status TablePartition::IndexLookupRange(int column, const Value& lo,
                                        const Value& hi, int level,
                                        std::vector<RowId>* out) const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  const int ordinal = schema().DegradableOrdinal(column);
  if (ordinal < 0 || multires_.empty()) {
    return Status::InvalidArgument("no multi-resolution index on column");
  }
  return multires_[ordinal]->LookupRange(lo, hi, level, [&](RowId rid) {
    out->push_back(rid);
    return true;
  });
}

Result<Bitmap> TablePartition::BitmapLookupEqual(int column, const Value& value,
                                                 int level) const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  const int ordinal = schema().DegradableOrdinal(column);
  if (ordinal < 0 || bitmaps_.empty()) {
    return Status::InvalidArgument("no bitmap index on column");
  }
  return bitmaps_[ordinal]->LookupEqual(value, level);
}

// --- degradation ----------------------------------------------------------------------

Micros TablePartition::StoreHeadDeadline(int ordinal, int phase) const {
  const ColumnDef& col =
      schema().column(schema().degradable_columns()[ordinal]);
  Micros head_insert = kForever;
  if (runtime_.layout == DegradableLayout::kStateStores) {
    if (stores_[ordinal][phase]->empty()) return kForever;
    head_insert = stores_[ordinal][phase]->Head().insert_time;
  } else {
    if (inplace_queues_[ordinal][phase].empty()) return kForever;
    head_insert = inplace_queues_[ordinal][phase].front().second;
  }
  const Micros offset = col.lcp.PhaseEndOffset(phase);
  if (offset == kForever) return kForever;
  return head_insert + offset;
}

TablePartition::PendingDegrade TablePartition::MostOverdue() const {
  PendingDegrade best;
  for (size_t d = 0; d < schema().degradable_columns().size(); ++d) {
    const ColumnDef& col = schema().column(schema().degradable_columns()[d]);
    for (int p = 0; p < col.lcp.num_phases(); ++p) {
      const Micros deadline = StoreHeadDeadline(static_cast<int>(d), p);
      if (deadline < best.deadline) {
        best = {schema().degradable_columns()[d], p, deadline};
      }
    }
  }
  return best;
}

Micros TablePartition::NextDeadline() const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  return MostOverdue().deadline;
}

bool TablePartition::HasWorkAt(Micros now) const {
  return NextDeadline() <= now;
}

Result<size_t> TablePartition::RunDegradationStep(TransactionManager* tm,
                                                  Micros now,
                                                  size_t batch_limit,
                                                  bool* stepped_phase0) {
  *stepped_phase0 = false;
  PendingDegrade target;
  {
    std::shared_lock<std::shared_mutex> latch(latch_);
    target = MostOverdue();
  }
  if (target.deadline > now) return size_t{0};

  const int col_idx = target.column;
  const int ordinal = schema().DegradableOrdinal(col_idx);
  const ColumnDef& col = schema().column(col_idx);
  const int from_phase = target.phase;
  const int to_phase = from_phase + 1;  // == num_phases means ⊥
  const bool removal = to_phase >= col.lcp.num_phases();

  auto txn = tm->Begin();
  Status lock_status = txn->Lock(
      LockKey::Store(id(), col_idx, from_phase, index_), LockMode::kExclusive);
  if (lock_status.ok() && !removal) {
    lock_status = txn->Lock(LockKey::Store(id(), col_idx, to_phase, index_),
                            LockMode::kExclusive);
  }
  if (!lock_status.ok()) {
    tm->Abort(txn.get());
    return lock_status;
  }

  // Collect the overdue prefix under the shared latch.
  std::vector<StoreEntry> moves;      // entries with generalized values
  std::vector<Value> old_values;
  std::vector<Micros> deadlines;
  RowId up_to = 0;
  {
    std::shared_lock<std::shared_mutex> latch(latch_);
    const Micros offset = col.lcp.PhaseEndOffset(from_phase);
    auto consider = [&](RowId row_id, Micros insert_time,
                        const Value& value) {
      const Micros deadline = insert_time + offset;
      if (deadline > now || moves.size() >= batch_limit) return false;
      StoreEntry moved{row_id, insert_time, Value::Null()};
      if (!removal) {
        auto generalized = col.hierarchy->Generalize(
            value, col.lcp.phase(from_phase).level,
            col.lcp.phase(to_phase).level);
        if (!generalized.ok()) return false;
        moved.value = *generalized;
      }
      moves.push_back(std::move(moved));
      old_values.push_back(value);
      deadlines.push_back(deadline);
      up_to = row_id;
      return true;
    };
    if (runtime_.layout == DegradableLayout::kStateStores) {
      stores_[ordinal][from_phase]->ForEach([&](const StoreEntry& entry) {
        return consider(entry.row_id, entry.insert_time, entry.value);
      });
    } else {
      for (const auto& [row_id, insert_time] :
           inplace_queues_[ordinal][from_phase]) {
        auto it = row_map_.find(row_id);
        if (it == row_map_.end()) {
          // Row deleted; schedule entry is stale. Treat as a zero-cost move
          // so the queue drains.
          const Micros deadline = insert_time + col.lcp.PhaseEndOffset(from_phase);
          if (deadline > now || moves.size() >= batch_limit) break;
          moves.push_back({row_id, insert_time, Value::Null()});
          old_values.push_back(Value::Null());
          deadlines.push_back(deadline);
          up_to = row_id;
          continue;
        }
        auto record = heap_->Get(it->second);
        if (!record.ok()) break;
        HeapTuple tuple;
        if (!DecodeHeapTuple(schema(), runtime_.layout, *record, &tuple).ok()) {
          break;
        }
        if (!consider(row_id, insert_time,
                      tuple.degradable[ordinal].value)) {
          break;
        }
      }
    }
  }
  if (moves.empty()) {
    tm->Abort(txn.get());
    return size_t{0};
  }

  WalRecord record;
  record.type = WalRecordType::kDegradeStep;
  record.table = id();
  record.column = col_idx;
  record.from_phase = from_phase;
  record.to_phase = to_phase;
  record.up_to_row_id = up_to;
  // Removal steps log Null values: redo still needs the row ids to expire
  // tuples, and a NULL leaks nothing. Redo routes the record back to this
  // partition by hashing the row ids carried in `entries`.
  record.entries = moves;

  const size_t moved = moves.size();
  txn->AddOp(std::move(record),
             [this, col_idx, from_phase, to_phase, up_to, moves, old_values] {
               return ApplyDegrade(col_idx, from_phase, to_phase, up_to, moves,
                                   &old_values);
             });
  IDB_RETURN_IF_ERROR(tm->Commit(txn.get()));

  {
    std::unique_lock<std::shared_mutex> latch(latch_);
    for (size_t i = 0; i < deadlines.size(); ++i) {
      lateness_.Add(static_cast<double>(now - deadlines[i]));
    }
    ++stats_.degrade_steps;
    if (removal) {
      stats_.values_removed += moved;
    } else {
      stats_.values_degraded += moved;
    }
  }

  *stepped_phase0 = from_phase == 0;
  return moved;
}

Status TablePartition::ApplyDegrade(int col_idx, int from_phase, int to_phase,
                                    RowId up_to,
                                    const std::vector<StoreEntry>& moves,
                                    const std::vector<Value>* old_values) {
  std::unique_lock<std::shared_mutex> latch(latch_);
  const int ordinal = schema().DegradableOrdinal(col_idx);
  const ColumnDef& col = schema().column(col_idx);
  const bool removal = to_phase >= col.lcp.num_phases();
  const bool update_indexes = old_values != nullptr && !multires_.empty();

  if (runtime_.layout == DegradableLayout::kStateStores) {
    // Pop exactly the collected entries. A prefix pop through `up_to` would
    // also destroy an out-of-order append that landed below `up_to` between
    // this step's collect and apply — that entry was never generalized and
    // must stay for a later step. (`up_to` remains in the WAL record for
    // observability; redo pops by the entry ids too.)
    (void)up_to;
    // Apply order: append and index updates FIRST, pops LAST. Every sub-step
    // can fail on an I/O error after the WAL record has already committed,
    // so the order is chosen to make any partial state self-healing: a fault
    // before the pop leaves the value in the from-phase store, where its
    // overdue deadline keeps it visible to the next degradation pass, which
    // re-collects and re-applies the step — Append of a present id, the
    // index OnDegrade hooks, and PopById of an absent id are all idempotent,
    // so the retry (or WAL redo after a crash) converges to the fully
    // applied state. Pop-first turned the same fault into permanent loss:
    // a popped-but-never-appended value vanished from every store, and no
    // later pass could find it again (the audit saw the heap shell with all
    // values at ⊥). The cost is a transient window where a value exists in
    // two stores at once — over-accurate, never under-durable — which the
    // retry erases.
    for (size_t i = 0; i < moves.size(); ++i) {
      const StoreEntry& move = moves[i];
      // A row deleted between collect and apply must not resurface.
      const bool row_live = row_map_.count(move.row_id) != 0;
      if (!removal && row_live) {
        IDB_RETURN_IF_ERROR(stores_[ordinal][to_phase]->Append(move));
      }
      if (update_indexes && row_live) {
        IDB_RETURN_IF_ERROR(multires_[ordinal]->OnDegrade(
            move.row_id, from_phase, (*old_values)[i], to_phase, move.value));
        if (!bitmaps_.empty()) {
          IDB_RETURN_IF_ERROR(bitmaps_[ordinal]->OnDegrade(
              move.row_id, from_phase, (*old_values)[i], to_phase,
              move.value));
        }
      }
    }
    for (const StoreEntry& move : moves) {
      IDB_RETURN_IF_ERROR(stores_[ordinal][from_phase]->PopById(move.row_id));
    }
    if (removal) {
      // Expiry last: MaybeExpireTupleLocked only removes the heap shell once
      // every store has dropped the row, so it must run after the pops.
      for (const StoreEntry& move : moves) {
        if (row_map_.count(move.row_id) != 0) {
          IDB_RETURN_IF_ERROR(MaybeExpireTupleLocked(move.row_id));
        }
      }
    }
    mutation_seq_.fetch_add(1, std::memory_order_release);
    return Status::OK();
  }

  // In-place layout: rewrite heap tuples and advance the schedule queues.
  // Queue entries are removed by id, not as a positional prefix: concurrent
  // commits can enqueue slightly out of row-id order, and `up_to` alone
  // would then drop a not-yet-moved neighbour.
  auto& queue = inplace_queues_[ordinal][from_phase];
  {
    std::unordered_set<RowId> moved_ids;
    for (const StoreEntry& move : moves) moved_ids.insert(move.row_id);
    for (auto it = queue.begin(); it != queue.end() && !moved_ids.empty();) {
      if (moved_ids.erase(it->first) != 0) {
        it = queue.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (size_t i = 0; i < moves.size(); ++i) {
    const StoreEntry& move = moves[i];
    auto it = row_map_.find(move.row_id);
    if (it == row_map_.end()) continue;  // deleted meanwhile / stale redo
    IDB_ASSIGN_OR_RETURN(std::string record, heap_->Get(it->second));
    HeapTuple tuple;
    IDB_RETURN_IF_ERROR(
        DecodeHeapTuple(schema(), runtime_.layout, record, &tuple));
    if (tuple.degradable[ordinal].phase != from_phase) continue;  // stale redo
    const Value old_value = tuple.degradable[ordinal].value;
    tuple.degradable[ordinal].phase = to_phase;
    tuple.degradable[ordinal].value = removal ? Value::Null() : move.value;
    std::string encoded;
    EncodeHeapTuple(schema(), runtime_.layout, tuple, &encoded);
    Rid new_rid;
    IDB_RETURN_IF_ERROR(heap_->Update(it->second, encoded, &new_rid));
    it->second = new_rid;
    if (!removal) {
      inplace_queues_[ordinal][to_phase].emplace_back(move.row_id,
                                                      move.insert_time);
    }
    if (update_indexes) {
      IDB_RETURN_IF_ERROR(multires_[ordinal]->OnDegrade(
          move.row_id, from_phase, old_value, to_phase, move.value));
      if (!bitmaps_.empty()) {
        IDB_RETURN_IF_ERROR(bitmaps_[ordinal]->OnDegrade(
            move.row_id, from_phase, old_value, to_phase, move.value));
      }
    }
    if (removal) {
      IDB_RETURN_IF_ERROR(MaybeExpireTupleLocked(move.row_id));
    }
  }
  mutation_seq_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

Status TablePartition::MaybeExpireTupleLocked(RowId row_id) {
  auto it = row_map_.find(row_id);
  if (it == row_map_.end()) return Status::OK();
  if (runtime_.layout == DegradableLayout::kStateStores) {
    for (const auto& per_phase : stores_) {
      for (const auto& store : per_phase) {
        if (store->Find(row_id) != nullptr) return Status::OK();
      }
    }
  } else {
    IDB_ASSIGN_OR_RETURN(std::string record, heap_->Get(it->second));
    HeapTuple tuple;
    IDB_RETURN_IF_ERROR(
        DecodeHeapTuple(schema(), runtime_.layout, record, &tuple));
    for (size_t d = 0; d < tuple.degradable.size(); ++d) {
      const ColumnDef& col =
          schema().column(schema().degradable_columns()[d]);
      if (tuple.degradable[d].phase < col.lcp.num_phases()) {
        return Status::OK();
      }
    }
  }
  // Every degradable attribute reached ⊥: the tuple disappears, stable part
  // included (paper §II "up to disappearance from the database").
  IDB_RETURN_IF_ERROR(heap_->Delete(it->second));
  row_map_.erase(it);
  ++stats_.tuples_expired;
  return Status::OK();
}

Micros TablePartition::SafeEpochTime() const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  Micros safe = runtime_.clock->NowMicros();
  for (size_t d = 0; d < schema().degradable_columns().size(); ++d) {
    Micros head = kForever;
    if (runtime_.layout == DegradableLayout::kStateStores) {
      // Exact minimum, not Head(): the mirror is sorted by row id, and an
      // out-of-order commit can put an earlier insert_time behind the head.
      // Destroying an epoch key while such a value is still accurate would
      // make it unrecoverable after a crash.
      head = stores_[d][0]->MinInsertTime();
    } else {
      for (const auto& [row_id, insert_time] : inplace_queues_[d][0]) {
        head = std::min(head, insert_time);
      }
    }
    safe = std::min(safe, head);
  }
  return safe;
}

TablePartition::IndexAuditCounts TablePartition::AuditIndexes() const {
  IndexAuditCounts counts;
  if (multires_.empty()) return counts;
  // ONE shared-latch acquisition for the whole reconciliation: degrade
  // steps move store entries and index postings together under the
  // exclusive latch, so any two-acquisition scheme would race a live
  // degrader into false positives.
  std::shared_lock<std::shared_mutex> latch(latch_);
  const auto& degradable = schema().degradable_columns();
  std::vector<std::vector<uint64_t>> actual(degradable.size());
  for (size_t d = 0; d < degradable.size(); ++d) {
    const int num_phases = schema().column(degradable[d]).lcp.num_phases();
    actual[d].assign(num_phases, 0);
    if (runtime_.layout == DegradableLayout::kStateStores) {
      for (int p = 0; p < num_phases; ++p) actual[d][p] = stores_[d][p]->size();
    }
  }
  if (runtime_.layout == DegradableLayout::kInPlace) {
    // The schedule queues are lazy (deleted rows linger until their phase
    // mismatch is seen), so the heap is the authority on phase membership.
    for (const auto& [row_id, rid] : row_map_) {
      auto record = heap_->Get(rid);
      if (!record.ok()) continue;
      HeapTuple tuple;
      if (!DecodeHeapTuple(schema(), runtime_.layout, *record, &tuple).ok()) {
        continue;
      }
      for (size_t d = 0; d < tuple.degradable.size(); ++d) {
        const int phase = tuple.degradable[d].phase;
        if (phase < static_cast<int>(actual[d].size())) ++actual[d][phase];
      }
    }
  }
  for (size_t d = 0; d < degradable.size(); ++d) {
    for (size_t p = 0; p < actual[d].size(); ++p) {
      const uint64_t indexed = multires_[d]->EntriesInPhase(static_cast<int>(p));
      if (indexed > actual[d][p]) {
        // Postings claiming accuracy the data has lost: the privacy breach.
        counts.stale += indexed - actual[d][p];
      } else {
        counts.missing += actual[d][p] - indexed;
      }
    }
  }
  return counts;
}

TablePartition::Stats TablePartition::stats() const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  return stats_;
}

Histogram TablePartition::lateness_histogram() const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  return lateness_;
}

}  // namespace instantdb
