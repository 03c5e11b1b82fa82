// Morsel-driven execution: page-range work units claimed from per-partition
// queues with partition affinity and busiest-queue stealing (util/morsel.h).
// These tests pin down (a) scheduler accounting — every morsel claimed
// exactly once, home claims never counted as steals, ordinals in
// (partition, page) order; (b) scan equivalence at any parallelism,
// including parallelism ABOVE the partition count, with pushdown on and
// off; (c) range-bounded cursor resume exactness across morsel boundaries;
// (d) work stealing on a 100%-skewed table, proving more than one worker
// participates in one partition's scan; and (e) snapshot safety with a
// concurrent degrader. Runs under ThreadSanitizer in scripts/verify.sh
// --tsan: the scheduler's lock-free claim path and the shared worker pool
// are exactly the cross-thread code it exercises.

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "catalog/builtin_domains.h"
#include "db/database.h"
#include "gtest/gtest.h"
#include "query/cursor.h"
#include "query/session.h"
#include "util/file.h"
#include "util/morsel.h"

namespace instantdb {
namespace {

TEST(MorselSchedulerTest, OrdinalsFlattenQueueMajor) {
  std::vector<std::vector<Morsel>> queues(2);
  queues[0].push_back(Morsel{0, 0, 2, 0});
  queues[0].push_back(Morsel{0, 2, kInvalidPageId, 0});
  queues[1].push_back(Morsel{1, 0, kInvalidPageId, 0});
  MorselScheduler sched(queues);
  EXPECT_EQ(sched.total(), 3u);
  EXPECT_EQ(sched.num_queues(), 2u);
  // Worker 0 drains its home queue in order, then steals the last morsel;
  // ordinals come out 0, 1, 2 — the flattened (partition, page) order the
  // materializing path concatenates buckets in.
  Morsel m;
  for (size_t expect = 0; expect < 3; ++expect) {
    ASSERT_TRUE(sched.Claim(0, &m));
    EXPECT_EQ(m.ordinal, expect);
  }
  EXPECT_FALSE(sched.Claim(0, &m));
}

TEST(MorselSchedulerTest, HomeClaimsAndStealsAreCountedApart) {
  // Queue 0 holds all the work; queue 1 is a single empty-partition morsel.
  // Worker 1 exhausts its home immediately and must then steal from the
  // busiest queue — deterministically, single-threaded.
  std::vector<std::vector<Morsel>> queues(2);
  for (PageId p = 0; p < 3; ++p) queues[0].push_back(Morsel{0, p, p + 1, 0});
  queues[1].push_back(Morsel{1, 0, kInvalidPageId, 0});
  std::atomic<uint64_t> claimed{0};
  std::atomic<uint64_t> stolen{0};
  std::atomic<uint64_t> failures{0};
  MorselScheduler sched(queues, MorselStatsSink{&claimed, &stolen, &failures});

  Morsel m;
  bool was_stolen = true;
  ASSERT_TRUE(sched.Claim(1, &m, &was_stolen));  // home queue 1
  EXPECT_FALSE(was_stolen);
  EXPECT_EQ(m.partition, 1u);
  ASSERT_TRUE(sched.Claim(1, &m, &was_stolen));  // home empty: steals
  EXPECT_TRUE(was_stolen);
  EXPECT_EQ(m.partition, 0u);
  ASSERT_TRUE(sched.Claim(0, &m, &was_stolen));  // home claim, no steal
  EXPECT_FALSE(was_stolen);
  ASSERT_TRUE(sched.Claim(1, &m, &was_stolen));
  EXPECT_TRUE(was_stolen);
  EXPECT_FALSE(sched.Claim(0, &m));
  EXPECT_FALSE(sched.Claim(1, &m));

  EXPECT_EQ(claimed.load(), sched.total());
  EXPECT_EQ(stolen.load(), 2u);
  EXPECT_EQ(failures.load(), 0u);  // no races single-threaded
}

class MorselScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_morsel_test";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
  }
  void TearDown() override {
    db_.reset();
    RemoveDirRecursive(dir_).ok();
  }

  /// Fresh database with `partitions` partitions and a worker pool of 4,
  /// holding `rows` pings with mixed phases (first half degraded past the
  /// one-hour address deadline). `batch_rows` sets the WriteBatch size:
  /// batches are partition-affine, so 25 spreads rows over every partition
  /// while a single `rows`-sized batch lands them all in ONE (100% skew).
  void BuildDb(uint32_t partitions, int rows, int batch_rows = 25) {
    db_.reset();
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    clock_ = std::make_unique<VirtualClock>(0);
    DbOptions options;
    options.path = dir_;
    options.clock = clock_.get();
    options.partitions = partitions;
    options.degradation.worker_threads = 4;
    auto opened = Database::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    db_ = std::move(*opened);

    auto schema = Schema::Make(
        {ColumnDef::Stable("user", ValueType::kString),
         ColumnDef::Degradable("location", LocationDomain(),
                               Fig2LocationLcp())});
    ASSERT_TRUE(schema.ok());
    ASSERT_TRUE(db_->CreateTable("pings", *schema).ok());

    const char* kAddresses[] = {"11 Rue Lepic", "3 Av Foch", "12 Rue Royale",
                                "4 Rue Breteuil", "8 Cours Mirabeau"};
    // Pad users to ~150-byte rows so a few hundred rows span several heap
    // pages — 1-page morsel plans need multi-page partitions to be
    // interesting.
    const std::string pad(120, 'x');
    auto insert_range = [&](int from, int to) {
      for (int start = from; start < to; start += batch_rows) {
        WriteBatch batch;
        for (int i = start; i < std::min(start + batch_rows, to); ++i) {
          batch.Insert("pings", {Value::String("u" + std::to_string(i) + pad),
                                 Value::String(kAddresses[i % 5])});
        }
        ASSERT_TRUE(db_->Write(&batch).ok());
      }
    };
    insert_range(0, rows / 2);
    clock_->Advance(kMicrosPerHour + kMicrosPerMinute);
    ASSERT_TRUE(db_->RunDegradationOnce().ok());
    insert_range(rows / 2, rows);
  }

  /// Total morsel count of the pings table's current plan at 1-page
  /// granularity (what the scans below are configured to use).
  size_t PlanTotal() {
    size_t total = 0;
    for (const auto& queue : db_->GetTable("pings")->MorselPlan(1)) {
      total += queue.size();
    }
    return total;
  }

  /// Drains `sql` through a streaming cursor at `parallelism` into
  /// user -> rendered-row, asserting no duplicate users. Forces 1-page
  /// morsels so even small test tables split into many work units.
  std::map<std::string, std::vector<std::string>> DrainCursor(
      Session* session, const std::string& sql, size_t parallelism) {
    session->scan_options().parallelism = parallelism;
    session->scan_options().morsel_pages = 1;
    std::map<std::string, std::vector<std::string>> rows;
    auto cursor = session->ExecuteCursor(sql);
    EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
    if (!cursor.ok()) return rows;
    CursorRow row;
    while (true) {
      auto more = (*cursor)->Next(&row);
      EXPECT_TRUE(more.ok()) << more.status().ToString();
      if (!more.ok() || !*more) break;
      const auto [it, inserted] =
          rows.emplace(row.display()[0], row.display());
      EXPECT_TRUE(inserted) << "duplicate row for " << row.display()[0];
    }
    return rows;
  }

  /// Materialized (Session::Execute) scan: returns the rendered rows IN
  /// ORDER — the morsel-ordinal merge must reproduce the sequential order
  /// at any parallelism.
  std::vector<std::vector<std::string>> MaterializedRows(
      Session* session, const std::string& sql, size_t parallelism) {
    session->scan_options().parallelism = parallelism;
    session->scan_options().morsel_pages = 1;
    auto result = session->Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return {};
    return result->display;
  }

  std::string dir_;
  std::unique_ptr<VirtualClock> clock_;
  std::unique_ptr<Database> db_;
};

TEST_F(MorselScanTest, EquivalentAtAnyParallelismPartitionsAndPushdown) {
  constexpr int kRows = 900;
  for (uint32_t partitions : {1u, 4u}) {
    BuildDb(partitions, kRows);
    for (bool pushdown : {true, false}) {
      Session session(db_.get());
      session.scan_options().pushdown = pushdown;
      ASSERT_TRUE(session
                      .Execute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY "
                               "FOR pings.location")
                      .ok());
      const std::string sql = "SELECT user, location FROM pings";
      const auto baseline = DrainCursor(&session, sql, 1);
      ASSERT_EQ(baseline.size(), static_cast<size_t>(kRows))
          << "partitions=" << partitions << " pushdown=" << pushdown;
      const auto ordered = MaterializedRows(&session, sql, 1);
      ASSERT_EQ(ordered.size(), static_cast<size_t>(kRows));
      // 2×partitions exceeds the partition count: pre-morsel fan-out could
      // not even express this — workers must share partitions.
      for (size_t parallelism : {4u, 2 * partitions}) {
        EXPECT_EQ(DrainCursor(&session, sql, parallelism), baseline)
            << "partitions=" << partitions << " parallelism=" << parallelism
            << " pushdown=" << pushdown;
        // The materialized path must also preserve sequential ORDER, not
        // just the row set: buckets concatenate in morsel-ordinal order.
        EXPECT_EQ(MaterializedRows(&session, sql, parallelism), ordered)
            << "partitions=" << partitions << " parallelism=" << parallelism
            << " pushdown=" << pushdown;
      }
    }
  }
}

TEST_F(MorselScanTest, ClaimedCounterMatchesThePlanSizeExactly) {
  BuildDb(4, 800);
  Session session(db_.get());
  const size_t plan_total = PlanTotal();
  ASSERT_GT(plan_total, 4u);  // multiple morsels per partition at 1 page

  // Streaming fan-out: a fully drained scan claims every morsel exactly
  // once — the invariant the lock-free claim path must uphold.
  const uint64_t before = db_->stats().scan.morsels_claimed;
  EXPECT_EQ(DrainCursor(&session, "SELECT user FROM pings", 4).size(), 800u);
  const uint64_t streamed = db_->stats().scan.morsels_claimed;
  EXPECT_EQ(streamed - before, plan_total);

  // Materialized path builds its own scheduler over the same plan.
  EXPECT_EQ(MaterializedRows(&session, "SELECT user FROM pings", 4).size(),
            800u);
  const uint64_t materialized = db_->stats().scan.morsels_claimed;
  EXPECT_EQ(materialized - streamed, plan_total);

  // Aggregate pushdown drains morsels too (per-worker partials).
  const uint64_t merges_before = db_->stats().scan.aggregate_partials_merged;
  auto count = session.Execute("SELECT COUNT(*) FROM pings");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->display[0][0], "800");
  EXPECT_EQ(db_->stats().scan.morsels_claimed - materialized, plan_total);
  // One partial per WORKER now, not per partition.
  EXPECT_GT(db_->stats().scan.aggregate_partials_merged, merges_before);
}

TEST_F(MorselScanTest, SkewedPartitionIsSharedByStealingWorkers) {
  // Every row in ONE partition (a single partition-affine WriteBatch per
  // half): 3 of the 4 scan workers find an empty home queue and must steal
  // from the hot partition to contribute.
  constexpr int kRows = 4000;
  BuildDb(4, kRows, /*batch_rows=*/kRows);
  Session session(db_.get());
  // Queue capacity 1 maximizes backpressure: the first worker blocks after
  // a couple of morsels, so the stealing workers are the only runnable
  // producers for most of the plan.
  session.scan_options().prefetch_batches = 1;

  const auto plan = db_->GetTable("pings")->MorselPlan(1);
  size_t hot = 0;
  for (const auto& queue : plan) hot = std::max(hot, queue.size());
  ASSERT_GE(hot, 20u) << "skewed table did not materialize enough pages";

  const Database::Stats before = db_->stats();
  const auto rows = DrainCursor(&session, "SELECT user FROM pings", 4);
  EXPECT_EQ(rows.size(), static_cast<size_t>(kRows));
  const Database::Stats after = db_->stats();
  EXPECT_EQ(after.scan.morsels_claimed - before.scan.morsels_claimed,
            PlanTotal());
  // The proof that >1 worker scanned the hot partition: home claims are
  // never counted as steals, so any stolen morsel was taken by a worker
  // whose home queue lay elsewhere.
  EXPECT_GT(after.scan.morsels_stolen, before.scan.morsels_stolen);
}

TEST_F(MorselScanTest, MorselCursorsResumeExactlyAcrossBoundaries) {
  constexpr int kRows = 500;
  BuildDb(4, kRows);
  Table* table = db_->GetTable("pings");
  ASSERT_NE(table, nullptr);

  // Full sequential sweep as ground truth.
  std::set<RowId> expected;
  for (uint32_t p = 0; p < table->num_partitions(); ++p) {
    PartitionCursor cursor = table->OpenPartitionCursor(p);
    ScanWorkspace ws;
    ScanDeltas deltas;
    bool done = false;
    while (!done) {
      std::vector<RowView> views;
      ASSERT_TRUE(
          cursor.NextBatch(64, ScanSpec{}, &ws, &views, &done, &deltas).ok());
      for (const RowView& view : views) expected.insert(view.row_id);
    }
  }
  ASSERT_EQ(expected.size(), static_cast<size_t>(kRows));

  // Drain every 1-page morsel with a tiny batch limit, forcing resume
  // positions INSIDE pages and at page (= morsel) boundaries. The union
  // must be exact: no row lost at a boundary, none served by two morsels.
  std::set<RowId> seen;
  for (const auto& queue : table->MorselPlan(1)) {
    for (const Morsel& morsel : queue) {
      PartitionCursor cursor = table->OpenMorselCursor(morsel);
      ScanWorkspace ws;
      ScanDeltas deltas;
      bool done = false;
      while (!done) {
        std::vector<RowView> views;
        ASSERT_TRUE(
            cursor.NextBatch(7, ScanSpec{}, &ws, &views, &done, &deltas).ok());
        for (const RowView& view : views) {
          EXPECT_EQ(table->PartitionOf(view.row_id), morsel.partition);
          EXPECT_TRUE(seen.insert(view.row_id).second)
              << "row served by two morsels: " << view.row_id;
        }
      }
      // A drained morsel cursor stays drained.
      std::vector<RowView> extra;
      ASSERT_TRUE(
          cursor.NextBatch(7, ScanSpec{}, &ws, &extra, &done, &deltas).ok());
      EXPECT_TRUE(done);
      EXPECT_TRUE(extra.empty());
    }
  }
  EXPECT_EQ(seen, expected);
}

TEST_F(MorselScanTest, ScanDuringDegradationStaysSnapshotSafe) {
  constexpr int kRows = 800;
  BuildDb(4, kRows);
  Session session(db_.get());
  ASSERT_TRUE(session
                  .Execute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY "
                           "FOR pings.location")
                  .ok());
  // Parallelism above the partition count with 1-page morsels: several
  // workers inside one partition while the degrader moves values.
  session.scan_options().parallelism = 8;
  session.scan_options().morsel_pages = 1;
  auto cursor = session.ExecuteCursor("SELECT user, location FROM pings");
  ASSERT_TRUE(cursor.ok());

  const std::set<std::string> kCities = {"Paris", "Versailles", "Marseille",
                                         "Aix"};
  CursorRow row;
  std::set<std::string> seen;
  int pulled = 0;
  while (pulled < kRows / 4) {
    auto more = (*cursor)->Next(&row);
    ASSERT_TRUE(more.ok());
    ASSERT_TRUE(*more);
    EXPECT_TRUE(seen.insert(row.display()[0]).second);
    EXPECT_TRUE(kCities.count(row.display()[1]))
        << "torn location: " << row.display()[1];
    ++pulled;
  }
  clock_->Advance(kMicrosPerHour + kMicrosPerMinute);
  ASSERT_TRUE(db_->RunDegradationOnce().ok());
  while (true) {
    auto more = (*cursor)->Next(&row);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    EXPECT_TRUE(seen.insert(row.display()[0]).second);
    // Read before or after its degradation step, a CITY-rendered value is
    // a city label — never torn or half-moved.
    EXPECT_TRUE(kCities.count(row.display()[1]))
        << "torn location: " << row.display()[1];
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kRows));
}

TEST_F(MorselScanTest, SequentialCursorKeepsPartitionPageOrderUnderSkew) {
  // WriteBatches are partition-affine and rotate over the partitions, so
  // batch sizes 40, 40, 40, 2000 make the LAST partition the busiest: a
  // lone claimer that stole from the busiest queue would jump there as
  // soon as partition 0 ran dry.
  BuildDb(4, 0);
  const std::string pad(120, 'x');
  int next = 0;
  for (int rows : {40, 40, 40, 2000}) {
    WriteBatch batch;
    for (int i = 0; i < rows; ++i, ++next) {
      batch.Insert("pings", {Value::String("u" + std::to_string(next) + pad),
                             Value::String("11 Rue Lepic")});
    }
    ASSERT_TRUE(db_->Write(&batch).ok());
  }
  const auto plan = db_->GetTable("pings")->MorselPlan(1);
  ASSERT_EQ(plan.size(), 4u);
  ASSERT_GT(plan[3].size(), plan[1].size())
      << "the skewed batch did not land in the last partition";

  Session session(db_.get());
  const std::string sql = "SELECT user, location FROM pings";
  session.scan_options().parallelism = 1;
  session.scan_options().morsel_pages = 1;
  std::vector<std::vector<std::string>> streamed;
  auto cursor = session.ExecuteCursor(sql);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  CursorRow row;
  while (true) {
    auto more = (*cursor)->Next(&row);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    streamed.push_back(row.display());
  }
  ASSERT_EQ(streamed.size(), 2120u);
  // Exactly Session::Execute's (partition, page) order, not just its set.
  EXPECT_EQ(streamed, MaterializedRows(&session, sql, 4));
}

}  // namespace
}  // namespace instantdb
