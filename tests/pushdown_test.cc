// Pushdown execution: stable-predicate pre-filtering and aggregate partials
// computed below row assembly must return exactly what the reference path
// (full RowView assembly, σ above) returns — across predicate shapes, scan
// parallelism and WAL privacy modes — while the scan counters prove the
// store probes were actually skipped, on every read path. Also covers the
// one row assembler (cursor batches and by-id fetches vs a per-row walk of
// the state stores), the maintenance daemon's adaptive checkpoint cadence,
// and audit-driven urgent repair. Runs under
// TSan/ASan in scripts/verify.sh: the aggregate fan-out and the
// degrade-while-aggregating test are real cross-thread paths.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "catalog/builtin_domains.h"
#include "db/database.h"
#include "gtest/gtest.h"
#include "query/cursor.h"
#include "query/session.h"
#include "util/file.h"

namespace instantdb {
namespace {

class PushdownTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_pushdown_test";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
  }
  void TearDown() override {
    db_.reset();
    RemoveDirRecursive(dir_).ok();
  }

  /// Fresh database: `rows` pings with a unique stable score (0..rows-1, so
  /// "score < K" selects exactly K rows), a mix of phase-0 and phase-1
  /// locations, spread over `partitions` partitions.
  void BuildDb(uint32_t partitions, int rows,
               WalPrivacyMode privacy = WalPrivacyMode::kScrub,
               DegradableLayout layout = DegradableLayout::kStateStores) {
    db_.reset();
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    clock_ = std::make_unique<VirtualClock>(0);
    DbOptions options;
    options.path = dir_;
    options.clock = clock_.get();
    options.partitions = partitions;
    options.degradation.worker_threads = partitions;
    options.wal.privacy_mode = privacy;
    options.layout = layout;
    auto opened = Database::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    db_ = std::move(*opened);

    auto schema = Schema::Make(
        {ColumnDef::Stable("user", ValueType::kString),
         ColumnDef::Stable("score", ValueType::kInt64),
         ColumnDef::Degradable("location", LocationDomain(),
                               Fig2LocationLcp())});
    ASSERT_TRUE(schema.ok());
    ASSERT_TRUE(db_->CreateTable("pings", *schema).ok());

    const char* kAddresses[] = {"11 Rue Lepic", "3 Av Foch", "12 Rue Royale",
                                "4 Rue Breteuil", "8 Cours Mirabeau"};
    auto insert_range = [&](int from, int to) {
      for (int start = from; start < to; start += 25) {
        WriteBatch batch;
        for (int i = start; i < std::min(start + 25, to); ++i) {
          batch.Insert("pings", {Value::String("u" + std::to_string(i)),
                                 Value::Int64(i),
                                 Value::String(kAddresses[i % 5])});
        }
        ASSERT_TRUE(db_->Write(&batch).ok());
      }
    };
    insert_range(0, rows / 2);
    // First half degrades address -> city; second half stays accurate.
    clock_->Advance(kMicrosPerHour + kMicrosPerMinute);
    ASSERT_TRUE(db_->RunDegradationOnce().ok());
    insert_range(rows / 2, rows);
  }

  /// Streaming drain keyed by user (parallel scans interleave partitions).
  std::map<std::string, std::vector<std::string>> DrainCursor(
      Session* session, const std::string& sql, size_t parallelism,
      bool pushdown) {
    session->scan_options().parallelism = parallelism;
    session->scan_options().pushdown = pushdown;
    std::map<std::string, std::vector<std::string>> rows;
    auto cursor = session->ExecuteCursor(sql);
    EXPECT_TRUE(cursor.ok()) << sql << " -> " << cursor.status().ToString();
    if (!cursor.ok()) return rows;
    CursorRow row;
    while (true) {
      auto more = (*cursor)->Next(&row);
      EXPECT_TRUE(more.ok()) << more.status().ToString();
      if (!more.ok() || !*more) break;
      const auto [it, inserted] = rows.emplace(row.display()[0], row.display());
      EXPECT_TRUE(inserted) << "duplicate row for " << row.display()[0];
    }
    return rows;
  }

  std::string dir_;
  std::unique_ptr<VirtualClock> clock_;
  std::unique_ptr<Database> db_;
};

TEST_F(PushdownTest, EquivalenceAcrossPredicatesParallelismAndPrivacyModes) {
  constexpr int kRows = 600;
  const std::vector<std::string> kQueries = {
      // No predicate, stable + degradable projection.
      "SELECT user, location FROM pings",
      // Stable-only conjunction (the vector kernels do all the work).
      "SELECT user, score FROM pings WHERE score < 60 AND score >= 6",
      // Degradable-only predicate (nothing to push; stores still probed).
      "SELECT user, location FROM pings WHERE location = 'Paris'",
      // Mixed: stable term below assembly, degradable term above.
      "SELECT user, location FROM pings WHERE score < 300 AND "
      "location = 'Paris'",
      // Stable-only projection + predicate: no store probe at all.
      "SELECT user FROM pings WHERE score < 6",
  };
  for (WalPrivacyMode privacy :
       {WalPrivacyMode::kPlain, WalPrivacyMode::kScrub,
        WalPrivacyMode::kEncryptedEpoch}) {
    BuildDb(4, kRows, privacy);
    Session session(db_.get());
    // CITY accuracy makes every row computable regardless of phase.
    ASSERT_TRUE(session
                    .Execute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY "
                             "FOR pings.location")
                    .ok());
    for (const std::string& sql : kQueries) {
      const auto baseline =
          DrainCursor(&session, sql, /*parallelism=*/1, /*pushdown=*/false);
      for (size_t parallelism : {1u, 4u, 8u}) {
        EXPECT_EQ(DrainCursor(&session, sql, parallelism, /*pushdown=*/true),
                  baseline)
            << sql << " parallelism=" << parallelism;
        EXPECT_EQ(DrainCursor(&session, sql, parallelism, /*pushdown=*/false),
                  baseline)
            << sql << " parallelism=" << parallelism;
      }
      // Materialized path (snapshot-per-partition source) agrees too.
      for (const bool pushdown : {true, false}) {
        session.scan_options().pushdown = pushdown;
        session.scan_options().parallelism = 0;
        auto materialized = session.Execute(sql);
        ASSERT_TRUE(materialized.ok()) << sql;
        EXPECT_EQ(materialized->rows.size(), baseline.size())
            << sql << " pushdown=" << pushdown;
      }
      // Heap path forced even where an index probe would win.
      session.set_use_indexes(false);
      EXPECT_EQ(DrainCursor(&session, sql, 4, /*pushdown=*/true), baseline)
          << sql << " (indexes off)";
      session.set_use_indexes(true);
    }
  }
}

TEST_F(PushdownTest, StablePrefilterSkipsStoreProbesAndCountsThem) {
  constexpr int kRows = 600;
  BuildDb(4, kRows);
  Session session(db_.get());
  session.scan_options().pushdown = true;
  session.scan_options().parallelism = 1;

  // Stable-only projection + predicate: the scan never resolves a single
  // degradable value — every (row, column) probe is provably skipped.
  const Database::Stats s0 = db_->stats();
  EXPECT_EQ(DrainCursor(&session, "SELECT user FROM pings WHERE score < 6", 1,
                        true)
                .size(),
            6u);
  const Database::Stats s1 = db_->stats();
  EXPECT_EQ(s1.scan.rows - s0.scan.rows, static_cast<uint64_t>(kRows));
  EXPECT_EQ(s1.scan.rows_prefiltered - s0.scan.rows_prefiltered,
            static_cast<uint64_t>(kRows - 6));
  EXPECT_EQ(s1.scan.store_probes_issued, s0.scan.store_probes_issued);
  EXPECT_EQ(s1.scan.store_probes_skipped - s0.scan.store_probes_skipped,
            static_cast<uint64_t>(kRows));  // 1 degradable column

  // Same predicate with the degradable column projected: survivors (and
  // only survivors) are probed.
  ASSERT_TRUE(session
                  .Execute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY "
                           "FOR pings.location")
                  .ok());
  EXPECT_EQ(DrainCursor(&session,
                        "SELECT user, location FROM pings WHERE score < 6", 1,
                        true)
                .size(),
            6u);
  const Database::Stats s2 = db_->stats();
  EXPECT_EQ(s2.scan.rows - s1.scan.rows, static_cast<uint64_t>(kRows));
  EXPECT_EQ(s2.scan.store_probes_issued - s1.scan.store_probes_issued, 6u);
  EXPECT_EQ(s2.scan.store_probes_skipped - s1.scan.store_probes_skipped,
            static_cast<uint64_t>(kRows - 6));
}

TEST_F(PushdownTest, ProbeAccountingInvariantHoldsAcrossScanShapes) {
  constexpr int kRows = 480;
  BuildDb(4, kRows);
  Session session(db_.get());
  session.set_use_indexes(false);  // the index path doesn't do pushdown
  session.scan_options().pushdown = true;
  ASSERT_TRUE(session
                  .Execute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY "
                           "FOR pings.location")
                  .ok());
  const std::vector<std::pair<std::string, size_t>> kShapes = {
      {"SELECT user, location FROM pings", 1},
      {"SELECT user, location FROM pings WHERE score < 100", 4},
      {"SELECT user, location FROM pings WHERE location = 'Paris'", 4},
      {"SELECT user FROM pings WHERE score >= 240", 8},
  };
  for (const auto& [sql, parallelism] : kShapes) {
    const Database::Stats before = db_->stats();
    DrainCursor(&session, sql, parallelism, true);
    const Database::Stats after = db_->stats();
    const uint64_t rows = after.scan.rows - before.scan.rows;
    const uint64_t issued =
        after.scan.store_probes_issued - before.scan.store_probes_issued;
    const uint64_t skipped =
        after.scan.store_probes_skipped - before.scan.store_probes_skipped;
    EXPECT_EQ(rows, static_cast<uint64_t>(kRows)) << sql;
    // Per scanned row and degradable column (1 here), a probe is either
    // issued or provably skipped — never lost, never duplicated.
    EXPECT_EQ(issued + skipped, rows) << sql;
  }
  // Aggregate pushdown honors the same ledger.
  const Database::Stats before = db_->stats();
  auto agg = session.Execute("SELECT COUNT(*) FROM pings WHERE score < 100");
  ASSERT_TRUE(agg.ok());
  const Database::Stats after = db_->stats();
  EXPECT_EQ((after.scan.store_probes_issued - before.scan.store_probes_issued) +
                (after.scan.store_probes_skipped -
                 before.scan.store_probes_skipped),
            after.scan.rows - before.scan.rows);
}

TEST_F(PushdownTest, AggregatePushdownMatchesCursorAggregation) {
  constexpr int kRows = 960;
  BuildDb(8, kRows);
  Session session(db_.get());
  ASSERT_TRUE(session
                  .Execute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY "
                           "FOR pings.location")
                  .ok());
  const std::vector<std::string> kAggregates = {
      "SELECT COUNT(*) FROM pings",
      "SELECT COUNT(*), MIN(score), MAX(score), SUM(score) FROM pings",
      "SELECT COUNT(*), SUM(score) FROM pings WHERE score < 96",
      "SELECT COUNT(location), COUNT(*) FROM pings WHERE score >= 480",
      // Degradable predicate: falls back to the row source when an index
      // probe is usable, pushes down when not — identical either way.
      "SELECT COUNT(*) FROM pings WHERE location = 'Paris'",
      // Empty result: pushdown must also yield zero output rows.
      "SELECT COUNT(*), MIN(score) FROM pings WHERE score < 0",
  };
  for (const std::string& sql : kAggregates) {
    session.scan_options().pushdown = false;
    session.scan_options().parallelism = 1;
    auto reference = session.Execute(sql);
    ASSERT_TRUE(reference.ok()) << sql;
    for (size_t parallelism : {1u, 8u}) {
      session.scan_options().pushdown = true;
      session.scan_options().parallelism = parallelism;
      auto pushed = session.Execute(sql);
      ASSERT_TRUE(pushed.ok()) << sql;
      EXPECT_EQ(pushed->rows, reference->rows)
          << sql << " parallelism=" << parallelism;
      EXPECT_EQ(pushed->display, reference->display)
          << sql << " parallelism=" << parallelism;
    }
  }
  // The pushed runs above merged per-partition partials; the fallback and
  // reference runs merged none.
  EXPECT_GT(db_->stats().scan.aggregate_partials_merged, 0u);
}

TEST_F(PushdownTest, AggregateMergeStaysExactUnderConcurrentDegradation) {
  constexpr int kRows = 800;
  BuildDb(8, kRows);
  Session session(db_.get());
  session.scan_options().pushdown = true;
  session.scan_options().parallelism = 8;

  // COUNT(*) over a stable predicate is invariant under degradation (this
  // LCP keeps city forever, so tuples never disappear): every merge of
  // per-partition partials racing a live degrader must still be exact.
  std::thread degrader([&] {
    for (int i = 0; i < 20; ++i) {
      clock_->Advance(10 * kMicrosPerMinute);
      ASSERT_TRUE(db_->RunDegradationOnce().ok());
    }
  });
  for (int i = 0; i < 30; ++i) {
    auto count = session.Execute("SELECT COUNT(*) FROM pings WHERE score >= 0");
    ASSERT_TRUE(count.ok());
    ASSERT_EQ(count->display.size(), 1u);
    EXPECT_EQ(count->display[0][0], std::to_string(kRows));
  }
  degrader.join();

  // Settled: pushdown and reference aggregation agree on everything.
  auto pushed = session.Execute(
      "SELECT COUNT(*), MIN(score), MAX(score), SUM(score) FROM pings");
  ASSERT_TRUE(pushed.ok());
  session.scan_options().pushdown = false;
  auto reference = session.Execute(
      "SELECT COUNT(*), MIN(score), MAX(score), SUM(score) FROM pings");
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(pushed->rows, reference->rows);
  EXPECT_EQ(pushed->display, reference->display);
}

TEST_F(PushdownTest, ProbeAccountingInvariantHoldsOnEveryReadPath) {
  constexpr int kRows = 480;
  BuildDb(4, kRows);
  Session session(db_.get());
  ASSERT_TRUE(session
                  .Execute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY "
                           "FOR pings.location")
                  .ok());
  struct Case {
    std::string sql;
    bool use_indexes;
    bool pushdown;
  };
  const std::vector<Case> kCases = {
      // Heap scan, reference path (no pre-filter, σ above assembly).
      {"SELECT user, location FROM pings WHERE score < 100", false, false},
      // Index probe, reference path.
      {"SELECT user, location FROM pings WHERE location = 'Paris'", true,
       false},
      // Index probe with the stable conjunct below assembly.
      {"SELECT user, location FROM pings WHERE location = 'Paris' AND "
       "score < 300",
       true, true},
      // Aggregate over an index probe (row-source path).
      {"SELECT COUNT(*) FROM pings WHERE location = 'Paris'", true, true},
  };
  for (const Case& c : kCases) {
    session.set_use_indexes(c.use_indexes);
    session.scan_options().pushdown = c.pushdown;
    const Database::Stats before = db_->stats();
    auto result = session.Execute(c.sql);
    ASSERT_TRUE(result.ok()) << c.sql << " -> " << result.status().ToString();
    EXPECT_FALSE(result->rows.empty()) << c.sql;
    const Database::Stats after = db_->stats();
    const uint64_t rows = after.scan.rows - before.scan.rows;
    const uint64_t issued =
        after.scan.store_probes_issued - before.scan.store_probes_issued;
    const uint64_t skipped =
        after.scan.store_probes_skipped - before.scan.store_probes_skipped;
    EXPECT_GT(rows, 0u) << c.sql;
    // One degradable column: per read row, one probe issued or skipped.
    EXPECT_EQ(issued + skipped, rows) << c.sql;
    if (c.use_indexes) {
      // The index path claims no heap morsels.
      EXPECT_EQ(after.scan.morsels_claimed, before.scan.morsels_claimed)
          << c.sql;
    } else {
      EXPECT_EQ(rows, static_cast<uint64_t>(kRows)) << c.sql;
    }
    if (!c.pushdown) EXPECT_EQ(skipped, 0u) << c.sql;
  }
}

TEST_F(PushdownTest, OneAssemblerAgreesWithPerRowStoreWalk) {
  constexpr int kRows = 500;
  constexpr Micros kLateInsert = kMicrosPerHour + kMicrosPerMinute;
  const char* kAddresses[] = {"11 Rue Lepic", "3 Av Foch", "12 Rue Royale",
                              "4 Rue Breteuil", "8 Cours Mirabeau"};
  for (const DegradableLayout layout :
       {DegradableLayout::kStateStores, DegradableLayout::kInPlace}) {
    SCOPED_TRACE(layout == DegradableLayout::kStateStores ? "StateStores"
                                                          : "InPlace");
    BuildDb(4, kRows, WalPrivacyMode::kScrub, layout);
    Table* table = db_->GetTable("pings");
    ASSERT_NE(table, nullptr);
    const Schema& schema = table->schema();
    ASSERT_EQ(schema.degradable_columns().size(), 1u);
    const int loc = schema.degradable_columns()[0];
    const ColumnDef& column = schema.column(loc);

    // Truth for one assembled row. BuildDb's model: score i belongs to user
    // "u<i>" at address i % 5; the first half was inserted at t=0 and
    // degraded to phase 1 (city), the second half inserted accurate later.
    // Under kStateStores the stores are walked per row with Find as well.
    auto check = [&](const RowView& view) {
      SCOPED_TRACE("row " + std::to_string(view.row_id));
      ASSERT_EQ(view.values.size(), static_cast<size_t>(schema.num_columns()));
      ASSERT_EQ(view.phases.size(), 1u);
      const int64_t score = view.values[1].int64();
      EXPECT_EQ(view.values[0], Value::String("u" + std::to_string(score)));
      const bool degraded = score < kRows / 2;
      EXPECT_EQ(view.insert_time, degraded ? 0 : kLateInsert);
      EXPECT_EQ(view.phases[0], degraded ? 1 : 0);
      auto expected = column.hierarchy->Generalize(
          Value::String(kAddresses[score % 5]), column.lcp.phase(0).level,
          column.lcp.phase(view.phases[0]).level);
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(view.values[loc], *expected);
      if (layout != DegradableLayout::kStateStores) return;
      const TablePartition* partition =
          table->partition(table->PartitionOf(view.row_id));
      int phase = column.lcp.num_phases();
      const StoreEntry* entry = nullptr;
      for (int p = 0; p < column.lcp.num_phases() && entry == nullptr; ++p) {
        entry = partition->store(loc, p)->Find(view.row_id);
        if (entry != nullptr) phase = p;
      }
      ASSERT_NE(entry, nullptr);
      EXPECT_EQ(view.phases[0], phase);
      EXPECT_EQ(view.values[loc], entry->value);
      EXPECT_EQ(view.insert_time, entry->insert_time);
    };

    // Heap cursor batches, every row checked.
    std::map<RowId, RowView> listed;
    for (uint32_t p = 0; p < table->num_partitions(); ++p) {
      PartitionCursor cursor = table->OpenPartitionCursor(p);
      ScanWorkspace ws;
      ScanDeltas deltas;
      std::vector<RowView> views;
      bool done = false;
      while (!done) {
        ASSERT_TRUE(
            cursor.NextBatch(64, ScanSpec{}, &ws, &views, &done, &deltas).ok());
        for (const RowView& view : views) {
          check(view);
          listed.emplace(view.row_id, view);
        }
      }
    }
    ASSERT_EQ(listed.size(), static_cast<size_t>(kRows));

    // By-id fetch of every listed id, after one of them is deleted: the
    // deleted row is skipped, the rest match the cursor's rows.
    std::vector<RowId> ids;
    for (const auto& [id, view] : listed) ids.push_back(id);  // ascending
    const RowId deleted = ids[ids.size() / 3];
    auto txn = db_->Begin();
    ASSERT_TRUE(table->Delete(txn.get(), deleted).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());

    auto same_as_listed = [&](const RowView& view) {
      const RowView& truth = listed.at(view.row_id);
      EXPECT_EQ(view.insert_time, truth.insert_time);
      EXPECT_EQ(view.values, truth.values);
      EXPECT_EQ(view.phases, truth.phases);
    };
    const uint32_t home = table->PartitionOf(deleted);
    std::vector<RowId> home_ids;
    for (RowId id : ids) {
      if (table->PartitionOf(id) == home) home_ids.push_back(id);
    }
    ScanWorkspace ws;
    ScanDeltas deltas;
    std::vector<RowView> fetched;
    ASSERT_TRUE(table->partition(home)
                    ->FetchRows(home_ids.data(), home_ids.size(), ScanSpec{},
                                &ws, &fetched, &deltas)
                    .ok());
    ASSERT_EQ(fetched.size(), home_ids.size() - 1);
    for (size_t i = 0, j = 0; i < home_ids.size(); ++i) {
      if (home_ids[i] == deleted) continue;
      ASSERT_EQ(fetched[j].row_id, home_ids[i]);
      check(fetched[j]);
      same_as_listed(fetched[j]);
      ++j;
    }

    // The table-level fetch routes across partitions and keeps ascending
    // row-id order.
    ASSERT_TRUE(table->FetchRows(ids.data(), ids.size(), ScanSpec{}, &ws,
                                 &fetched, &deltas)
                    .ok());
    ASSERT_EQ(fetched.size(), ids.size() - 1);
    for (size_t i = 0; i < fetched.size(); ++i) {
      if (i > 0) EXPECT_LT(fetched[i - 1].row_id, fetched[i].row_id);
      EXPECT_NE(fetched[i].row_id, deleted);
      check(fetched[i]);
      same_as_listed(fetched[i]);
    }
    EXPECT_FALSE(table->GetRow(deleted)->has_value());
  }
}

TEST_F(PushdownTest, AdaptiveCadencePullsCheckpointToPayloadDeadline) {
  // Interval far above the phase-0 duration; threshold high enough that a
  // plain cadence point skips clean. The adaptive pull alone must bring the
  // daemon back at the payload deadline.
  dir_ = ::testing::TempDir() + "/idb_pushdown_cadence_test";
  ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
  clock_ = std::make_unique<VirtualClock>(0);
  DbOptions options;
  options.path = dir_;
  options.clock = clock_.get();
  options.maintenance.checkpoint_interval = 24 * kMicrosPerHour;
  options.maintenance.checkpoint_dirty_threshold = 1000;
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  db_ = std::move(*opened);
  auto schema = Schema::Make(
      {ColumnDef::Stable("user", ValueType::kString),
       ColumnDef::Degradable("location", LocationDomain(), Fig2LocationLcp())});
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(db_->CreateTable("pings", *schema).ok());
  Session session(db_.get());
  ASSERT_TRUE(
      session.Execute("INSERT INTO pings VALUES ('u0', '11 Rue Lepic')").ok());

  MaintenanceDaemon* daemon = db_->maintenance();
  // Cadence point at t=0: skips clean (1 dirty < 1000, payload not yet
  // overdue), but the next deadline is pulled from t+24h to the payload's
  // phase-0 deadline (insert at 0 + 1h address phase).
  ASSERT_TRUE(daemon->RunOnce(clock_->NowMicros()).ok());
  EXPECT_EQ(daemon->next_checkpoint_due(), kMicrosPerHour);
  EXPECT_GE(daemon->stats().adaptive_checkpoint_pulls, 1u);
  EXPECT_EQ(daemon->stats().checkpoints, 0u);

  // At the pulled deadline the payload is overdue: WAL pressure forces the
  // checkpoint below the dirty threshold, retiring the segment — and with
  // the pressure gone the next deadline returns to the interval floor.
  clock_->Advance(kMicrosPerHour + kMicrosPerMinute);
  const Micros now = clock_->NowMicros();
  ASSERT_TRUE(daemon->RunOnce(now).ok());
  EXPECT_EQ(daemon->stats().checkpoints, 1u);
  EXPECT_EQ(daemon->stats().forced_checkpoints, 1u);
  EXPECT_EQ(daemon->next_checkpoint_due(),
            now + 24 * kMicrosPerHour);
}

TEST_F(PushdownTest, FailedAuditEnqueuesUrgentRepairThatDrainsFirst) {
  constexpr int kRows = 400;
  BuildDb(4, kRows);
  Table* table = db_->GetTable("pings");
  ASSERT_NE(table, nullptr);

  // Plant exposure: partition 0 skips the next degradation pass, so its
  // phase-0 locations outlive the address deadline.
  db_->degradation()->TEST_FaultSkipPartition(table->id(), 0, true);
  clock_->Advance(kMicrosPerHour + kMicrosPerMinute);
  ASSERT_TRUE(db_->RunDegradationOnce().ok());

  const AuditReport failed = db_->Audit();
  EXPECT_FALSE(failed.clean());
  ASSERT_EQ(failed.tables.size(), 1u);
  EXPECT_EQ(failed.tables[0].exposed_partitions, std::vector<uint32_t>{0});
  EXPECT_GE(db_->maintenance()->stats().repairs_enqueued, 1u);

  // Lift the fault: the next pass drains the urgent unit first and the
  // store-level exposure disappears.
  db_->degradation()->TEST_FaultSkipPartition(table->id(), 0, false);
  ASSERT_TRUE(db_->RunDegradationOnce().ok());
  EXPECT_GE(db_->stats().degradation.urgent_units, 1u);
  const AuditReport repaired = db_->Audit();
  EXPECT_EQ(repaired.exposed_values, 0u) << repaired.ToString();
  EXPECT_TRUE(repaired.tables[0].exposed_partitions.empty());
}

}  // namespace
}  // namespace instantdb
