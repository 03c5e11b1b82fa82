// Parallel read path: partition fan-out scans must return exactly the row
// set the sequential scan returns at every parallelism, preserve snapshot
// safety while the degrader runs, expose per-partition cursors for
// consumers that shard a scan themselves, and account their work in
// Database::stats().scan. This test runs under ThreadSanitizer in
// scripts/verify.sh --tsan: the prefetch workers, bounded queue and
// consumer are exactly the cross-thread paths it exercises.

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "catalog/builtin_domains.h"
#include "db/database.h"
#include "gtest/gtest.h"
#include "query/cursor.h"
#include "query/session.h"
#include "util/file.h"
#include "util/worker_pool.h"

namespace instantdb {
namespace {

class ParallelScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_parallel_scan_test";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
  }
  void TearDown() override {
    db_.reset();
    RemoveDirRecursive(dir_).ok();
  }

  /// Fresh database with `partitions` partitions and a worker pool of the
  /// same size, holding `rows` pings with a mix of phase-0 and phase-1
  /// locations (the clock advances past the one-hour address deadline for
  /// the first half of the inserts).
  void BuildDb(uint32_t partitions, int rows) {
    db_.reset();
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    clock_ = std::make_unique<VirtualClock>(0);
    DbOptions options;
    options.path = dir_;
    options.clock = clock_.get();
    options.partitions = partitions;
    options.degradation.worker_threads = partitions;
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
    // Many small batches: WriteBatches are partition-affine (one batch lands
    // in one partition), so spreading the rows over batches populates every
    // partition.
    auto insert_range = [&](int from, int to) {
      for (int start = from; start < to; start += 25) {
        WriteBatch batch;
        for (int i = start; i < std::min(start + 25, to); ++i) {
          batch.Insert("pings", {Value::String("u" + std::to_string(i)),
                                 Value::String(kAddresses[i % 5])});
        }
        ASSERT_TRUE(db_->Write(&batch).ok());
      }
    };
    insert_range(0, rows / 2);
    // The first half crosses address -> city; the second half stays
    // accurate, so scans see mixed phases.
    clock_->Advance(kMicrosPerHour + kMicrosPerMinute);
    ASSERT_TRUE(db_->RunDegradationOnce().ok());
    insert_range(rows / 2, rows);
  }

  /// Drains `sql` through a streaming cursor at `parallelism` into
  /// user -> rendered-row, asserting no duplicate users.
  std::map<std::string, std::vector<std::string>> DrainCursor(
      Session* session, const std::string& sql, size_t parallelism) {
    session->scan_options().parallelism = parallelism;
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

  std::string dir_;
  std::unique_ptr<VirtualClock> clock_;
  std::unique_ptr<Database> db_;
};

TEST_F(ParallelScanTest, ParallelAndSequentialScansReturnTheSameRowSet) {
  constexpr int kRows = 900;  // several scan batches per partition at p=1
  for (uint32_t partitions : {1u, 4u, 8u}) {
    BuildDb(partitions, kRows);
    Session session(db_.get());
    // CITY accuracy makes every row computable (phase-0 generalizes, the
    // degraded half matches exactly), so the expected set is all rows.
    ASSERT_TRUE(session
                    .Execute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY "
                             "FOR pings.location")
                    .ok());
    const auto baseline =
        DrainCursor(&session, "SELECT user, location FROM pings", 1);
    ASSERT_EQ(baseline.size(), static_cast<size_t>(kRows))
        << "partitions=" << partitions;
    for (size_t parallelism : {2u, 8u}) {
      const auto parallel =
          DrainCursor(&session, "SELECT user, location FROM pings",
                      parallelism);
      EXPECT_EQ(parallel, baseline)
          << "partitions=" << partitions << " parallelism=" << parallelism;
    }
    // The materialized path (Execute drains partitions on the pool) must
    // agree too, and in deterministic partition order.
    session.scan_options().parallelism = 0;  // auto: match the worker pool
    auto materialized = session.Execute("SELECT user, location FROM pings");
    ASSERT_TRUE(materialized.ok());
    EXPECT_EQ(materialized->rows.size(), static_cast<size_t>(kRows));
    std::set<std::string> users;
    for (const auto& display : materialized->display) {
      users.insert(display[0]);
    }
    EXPECT_EQ(users.size(), baseline.size());
  }
}

TEST_F(ParallelScanTest, PredicatesAndStableProjectionsAgreeAcrossParallelism) {
  BuildDb(4, 600);
  Session session(db_.get());
  // Stable-only projection: no degradable reference, every row qualifies.
  const auto all = DrainCursor(&session, "SELECT user FROM pings", 1);
  EXPECT_EQ(all.size(), 600u);
  EXPECT_EQ(DrainCursor(&session, "SELECT user FROM pings", 8), all);
  // Degradable predicate through the relaxed semantics (include_coarser):
  // the degraded half evaluates by containment.
  session.read_options().include_coarser = true;
  const auto paris = DrainCursor(
      &session, "SELECT user, location FROM pings WHERE location = 'Paris'",
      1);
  EXPECT_FALSE(paris.empty());
  for (size_t parallelism : {2u, 4u}) {
    EXPECT_EQ(
        DrainCursor(&session,
                    "SELECT user, location FROM pings WHERE location = 'Paris'",
                    parallelism),
        paris)
        << "parallelism=" << parallelism;
  }
}

TEST_F(ParallelScanTest, CursorOpenDuringDegradationStaysSnapshotSafe) {
  constexpr int kRows = 800;
  BuildDb(8, kRows);
  Session session(db_.get());
  ASSERT_TRUE(session
                  .Execute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY "
                           "FOR pings.location")
                  .ok());
  session.scan_options().parallelism = 4;
  auto cursor = session.ExecuteCursor("SELECT user, location FROM pings");
  ASSERT_TRUE(cursor.ok());

  const std::set<std::string> kCities = {"Paris", "Versailles", "Marseille",
                                         "Aix"};
  CursorRow row;
  std::set<std::string> seen;
  int pulled = 0;
  // Pull a slice, then degrade the remaining accurate half mid-scan.
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
    // Whether a row was read before or after its degradation step, the
    // value rendered at CITY accuracy is a city label — never a torn or
    // half-moved value.
    EXPECT_TRUE(kCities.count(row.display()[1]))
        << "torn location: " << row.display()[1];
  }
  // Degradation moves values between stores but never removes heap rows
  // (this LCP keeps city forever): no row may be lost or duplicated.
  EXPECT_EQ(seen.size(), static_cast<size_t>(kRows));
}

TEST_F(ParallelScanTest, PartitionCursorsShardTheTableExactly) {
  constexpr int kRows = 500;
  BuildDb(4, kRows);
  Table* table = db_->GetTable("pings");
  ASSERT_NE(table, nullptr);
  std::set<RowId> all;
  for (uint32_t p = 0; p < table->num_partitions(); ++p) {
    PartitionCursor cursor = table->OpenPartitionCursor(p);
    ScanWorkspace ws;
    ScanDeltas deltas;
    bool done = false;
    while (!done) {
      std::vector<RowView> views;
      ASSERT_TRUE(
          cursor.NextBatch(64, ScanSpec{}, &ws, &views, &done, &deltas).ok());
      for (const RowView& view : views) {
        // Every row a partition cursor serves routes back to it.
        EXPECT_EQ(table->PartitionOf(view.row_id), p);
        EXPECT_TRUE(all.insert(view.row_id).second)
            << "row served twice: " << view.row_id;
      }
    }
    // A drained cursor stays drained.
    std::vector<RowView> extra;
    ASSERT_TRUE(
        cursor.NextBatch(64, ScanSpec{}, &ws, &extra, &done, &deltas).ok());
    EXPECT_TRUE(done);
    EXPECT_TRUE(extra.empty());
  }
  EXPECT_EQ(all.size(), static_cast<size_t>(kRows));

  // An out-of-range partition index yields a safe empty cursor.
  PartitionCursor oob = table->OpenPartitionCursor(table->num_partitions());
  ScanWorkspace ws;
  ScanDeltas deltas;
  bool done = false;
  std::vector<RowView> views;
  ASSERT_TRUE(oob.NextBatch(64, ScanSpec{}, &ws, &views, &done, &deltas).ok());
  EXPECT_TRUE(done);
  EXPECT_TRUE(views.empty());
}

TEST_F(ParallelScanTest, ScanCountersAccountBatchesRowsAndStalls) {
  constexpr int kRows = 600;
  BuildDb(4, kRows);
  Session session(db_.get());

  const Database::Stats before = db_->stats();
  const auto rows = DrainCursor(&session, "SELECT user FROM pings", 1);
  EXPECT_EQ(rows.size(), static_cast<size_t>(kRows));
  const Database::Stats sequential = db_->stats();
  EXPECT_EQ(sequential.scan.rows - before.scan.rows,
            static_cast<uint64_t>(kRows));
  EXPECT_GE(sequential.scan.batches - before.scan.batches, 1u);
  // The sequential path never touches the prefetch queue.
  EXPECT_EQ(sequential.scan.prefetch_stalls, before.scan.prefetch_stalls);

  const auto parallel = DrainCursor(&session, "SELECT user FROM pings", 4);
  EXPECT_EQ(parallel.size(), static_cast<size_t>(kRows));
  const Database::Stats fanned = db_->stats();
  EXPECT_EQ(fanned.scan.rows - sequential.scan.rows,
            static_cast<uint64_t>(kRows));
  EXPECT_GE(fanned.scan.batches - sequential.scan.batches, 4u);
  EXPECT_GE(fanned.scan.prefetch_stalls, sequential.scan.prefetch_stalls);
}

TEST_F(ParallelScanTest, ExplicitParallelismClampsToThePartitionCount) {
  BuildDb(1, 300);
  Session session(db_.get());
  // parallelism 8 on a 1-partition table degenerates safely.
  const auto wide = DrainCursor(&session, "SELECT user FROM pings", 8);
  const auto narrow = DrainCursor(&session, "SELECT user FROM pings", 1);
  EXPECT_EQ(wide, narrow);
  EXPECT_EQ(wide.size(), 300u);
}

/// Threads of this process right now.
size_t CountThreads() {
  size_t threads = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++threads;
  }
  return threads;
}

TEST_F(ParallelScanTest, SaturatedPoolScansInlineWithoutSpawningThreads) {
  constexpr int kRows = 900;
  BuildDb(4, kRows);
  Session session(db_.get());
  const auto expected = DrainCursor(&session, "SELECT user FROM pings", 1);
  ASSERT_EQ(expected.size(), static_cast<size_t>(kRows));

  // Hold every pool token, the reserve included, with blocked tasks.
  WorkerPool* pool = db_->worker_pool();
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  WorkerPool::Ticket ticket;
  ASSERT_EQ(pool->TryDispatch(
                pool->size(),
                [&](size_t) {
                  std::unique_lock<std::mutex> lock(mu);
                  cv.wait(lock, [&] { return release; });
                },
                &ticket, /*priority=*/true),
            pool->size());
  ASSERT_EQ(pool->free_workers(), 0u);
  const size_t threads = CountThreads();

  // A parallelism-4 cursor finds no free worker: its consumer scans every
  // morsel itself, and no thread appears while the cursor is open.
  session.scan_options().parallelism = 4;
  std::map<std::string, std::vector<std::string>> rows;
  {
    auto cursor = session.ExecuteCursor("SELECT user FROM pings");
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    EXPECT_EQ(CountThreads(), threads);
    CursorRow row;
    while (true) {
      auto more = (*cursor)->Next(&row);
      ASSERT_TRUE(more.ok()) << more.status().ToString();
      if (!*more) break;
      EXPECT_TRUE(rows.emplace(row.display()[0], row.display()).second)
          << "duplicate row for " << row.display()[0];
    }
    EXPECT_EQ(CountThreads(), threads);
  }
  EXPECT_EQ(rows, expected);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool->Wait(&ticket);
  EXPECT_EQ(pool->free_workers(), pool->size());
}

}  // namespace
}  // namespace instantdb
