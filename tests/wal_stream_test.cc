// Sharded-WAL recovery matrix: {1, 2, 4} streams × every privacy mode.
//
// What must hold (ISSUE 3 acceptance): crash recovery reconstructs the same
// state a single-stream log would, a torn tail frame in one stream voids a
// cross-stream commit atomically while clean streams' transactions survive,
// the persisted stream count pins the on-disk layout across reopen, and
// epoch-key destruction reaches every stream's copies at once.
//
// Crashes are simulated by syncing the WAL and copying the database
// directory while the source stays open (no checkpoint runs), then
// recovering from the copy — the same technique as a crash image, without
// leaking the live Database.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>
#include <tuple>
#include <vector>

#include "catalog/builtin_domains.h"
#include "common/strings.h"
#include "db/database.h"
#include "gtest/gtest.h"
#include "util/file.h"

namespace instantdb {
namespace {

Schema PingSchema() {
  return *Schema::Make(
      {ColumnDef::Stable("user", ValueType::kString),
       ColumnDef::Degradable("location", LocationDomain(), Fig2LocationLcp())});
}

/// Concatenated bytes of every file under `dir`, recursively (stream
/// subdirectories, recycled segments, the keystore — everything a forensic
/// scan would read).
std::string AllBytesUnder(const std::string& dir) {
  std::string all;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    auto contents = ReadFileToString(entry.path().string());
    if (contents.ok()) all += *contents;
  }
  return all;
}

void CopyTree(const std::string& from, const std::string& to) {
  std::filesystem::remove_all(to);
  std::filesystem::copy(from, to,
                        std::filesystem::copy_options::recursive);
}

/// One row's recovered identity: id, stored location value, location phase.
struct RowState {
  RowId row_id;
  std::string user;
  std::string location;  // "<null>" once removed
  int phase;

  bool operator==(const RowState& other) const {
    return row_id == other.row_id && user == other.user &&
           location == other.location && phase == other.phase;
  }
  bool operator<(const RowState& other) const { return row_id < other.row_id; }
};

std::vector<RowState> DumpTable(Table* table) {
  std::vector<RowState> rows;
  EXPECT_TRUE(table
                  ->ScanRows([&](const RowView& view) {
                    rows.push_back(
                        {view.row_id, view.values[0].ToString(),
                         view.values[1].is_null() ? "<null>"
                                                  : view.values[1].ToString(),
                         view.phases[0]});
                    return true;
                  })
                  .ok());
  std::sort(rows.begin(), rows.end());
  return rows;
}

class WalStreamTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, WalPrivacyMode>> {
 protected:
  uint32_t streams() const { return std::get<0>(GetParam()); }
  WalPrivacyMode mode() const { return std::get<1>(GetParam()); }

  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_wal_stream_test";
    clone_ = dir_ + "_clone";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    ASSERT_TRUE(RemoveDirRecursive(clone_).ok());
  }
  void TearDown() override {
    RemoveDirRecursive(dir_).ok();
    RemoveDirRecursive(clone_).ok();
  }

  DbOptions Options(const std::string& path, uint32_t wal_streams,
                    uint32_t partitions, VirtualClock* clock) {
    DbOptions options;
    options.path = path;
    options.clock = clock;
    options.partitions = partitions;
    options.degradation.worker_threads = partitions;
    options.wal.privacy_mode = mode();
    options.wal.wal_streams = wal_streams;
    options.wal.segment_bytes = 1024;  // tiny: exercise per-stream rollover
    return options;
  }

  std::unique_ptr<Database> MustOpen(const DbOptions& options) {
    auto db = Database::Open(options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return db.ok() ? std::move(*db) : nullptr;
  }

  /// Runs the standard mixed workload: batched + single inserts, one
  /// degradation wave, deletes, a fuzzy checkpoint mid-way, more inserts
  /// after it. Returns the inserted row ids.
  std::vector<RowId> RunWorkload(Database* db, VirtualClock* clock) {
    std::vector<RowId> rows;
    const char* addresses[] = {"11 Rue Lepic", "3 Av Foch", "4 Rue Breteuil",
                               "12 Rue Royale"};
    for (int b = 0; b < 4; ++b) {
      WriteBatch batch;
      for (int r = 0; r < 10; ++r) {
        batch.Insert("pings", {Value::String(StringPrintf("u%d_%d", b, r)),
                               Value::String(addresses[r % 4])});
      }
      EXPECT_TRUE(db->Write(&batch).ok());
      rows.insert(rows.end(), batch.row_ids().begin(),
                  batch.row_ids().end());
      clock->Advance(kMicrosPerMinute);
    }
    for (int i = 0; i < 8; ++i) {
      auto row = db->Insert(
          "pings", {Value::String(StringPrintf("s%d", i)),
                    Value::String(addresses[i % 4])});
      EXPECT_TRUE(row.ok());
      rows.push_back(*row);
    }
    // Everything crosses address → city.
    clock->Advance(kMicrosPerHour);
    auto moved = db->RunDegradationOnce();
    EXPECT_TRUE(moved.ok()) << moved.status().ToString();
    EXPECT_GT(*moved, 0u);
    // Delete a few rows spread over partitions.
    for (size_t i = 0; i < rows.size(); i += 7) {
      EXPECT_TRUE(db->Delete("pings", rows[i]).ok());
    }
    // Fuzzy checkpoint, then post-checkpoint work that only the WAL holds.
    EXPECT_TRUE(db->Checkpoint().ok());
    for (int i = 0; i < 6; ++i) {
      auto row = db->Insert(
          "pings", {Value::String(StringPrintf("post%d", i)),
                    Value::String(addresses[i % 4])});
      EXPECT_TRUE(row.ok());
      rows.push_back(*row);
    }
    return rows;
  }

  /// Syncs the WAL and snapshots the open database's directory — a crash
  /// image taken after the last commit's ack.
  void CrashClone(Database* db) {
    ASSERT_TRUE(db->wal()->Sync().ok());
    CopyTree(dir_, clone_);
  }

  std::string dir_;
  std::string clone_;
};

TEST_P(WalStreamTest, CrashRecoveryReconstructsState) {
  VirtualClock clock(0);
  auto db = MustOpen(Options(dir_, streams(), 4, &clock));
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->CreateTable("pings", PingSchema()).ok());
  RunWorkload(db.get(), &clock);
  const std::vector<RowState> before = DumpTable(db->GetTable("pings"));
  ASSERT_FALSE(before.empty());
  CrashClone(db.get());

  VirtualClock recovered_clock(clock.NowMicros());
  auto recovered = MustOpen(Options(clone_, streams(), 4, &recovered_clock));
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->wal()->num_streams(), streams());
  EXPECT_EQ(DumpTable(recovered->GetTable("pings")), before);

  // The per-partition row-id allocators resumed above the recovered id
  // space: new inserts get fresh ids and degradation continues on schedule.
  const uint64_t live = recovered->GetTable("pings")->live_rows();
  auto row = recovered->Insert("pings", {Value::String("after"),
                                         Value::String("11 Rue Lepic")});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(recovered->GetTable("pings")->live_rows(), live + 1);
  for (const RowState& state : before) {
    EXPECT_NE(state.row_id, *row);
  }
  recovered_clock.Advance(kMicrosPerDay);
  EXPECT_TRUE(recovered->RunDegradationOnce().ok());
}

TEST_P(WalStreamTest, ShardedReplayEquivalentToSingleStream) {
  // Identical workload against a single-stream and an N-stream log (same
  // partition count, deterministically advanced clocks): crash recovery
  // must produce identical table states — the global commit ordering makes
  // sharding invisible to replay.
  if (streams() == 1) GTEST_SKIP() << "needs a sharded configuration";
  const std::string single_dir = dir_ + "_single";
  const std::string single_clone = clone_ + "_single";
  RemoveDirRecursive(single_dir).ok();
  RemoveDirRecursive(single_clone).ok();

  std::vector<RowState> states[2];
  for (int variant = 0; variant < 2; ++variant) {
    const uint32_t wal_streams = variant == 0 ? 1 : streams();
    const std::string base = variant == 0 ? single_dir : dir_;
    const std::string clone = variant == 0 ? single_clone : clone_;
    VirtualClock clock(0);
    auto db = MustOpen(Options(base, wal_streams, 4, &clock));
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->CreateTable("pings", PingSchema()).ok());
    RunWorkload(db.get(), &clock);
    ASSERT_TRUE(db->wal()->Sync().ok());
    CopyTree(base, clone);
    VirtualClock recovered_clock(clock.NowMicros());
    auto recovered =
        MustOpen(Options(clone, wal_streams, 4, &recovered_clock));
    ASSERT_NE(recovered, nullptr);
    states[variant] = DumpTable(recovered->GetTable("pings"));
  }
  EXPECT_EQ(states[0], states[1]);

  RemoveDirRecursive(single_dir).ok();
  RemoveDirRecursive(single_clone).ok();
}

TEST_P(WalStreamTest, MergedReplayWhenStreamsDoNotDividePartitions) {
  // partitions = 2 with 4 streams: a partition's records span streams, so
  // recovery must fall back to the global commit-order merge. State must
  // still match the pre-crash image exactly.
  if (streams() != 4) GTEST_SKIP() << "one configuration suffices";
  VirtualClock clock(0);
  auto db = MustOpen(Options(dir_, 4, 2, &clock));
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->CreateTable("pings", PingSchema()).ok());
  RunWorkload(db.get(), &clock);
  const std::vector<RowState> before = DumpTable(db->GetTable("pings"));
  CrashClone(db.get());

  VirtualClock recovered_clock(clock.NowMicros());
  auto recovered = MustOpen(Options(clone_, 4, 2, &recovered_clock));
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->wal()->num_streams(), 4u);
  EXPECT_EQ(DumpTable(recovered->GetTable("pings")), before);
}

TEST_P(WalStreamTest, StreamCountIsPinnedOnDisk) {
  VirtualClock clock(0);
  {
    auto db = MustOpen(Options(dir_, streams(), 4, &clock));
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->CreateTable("pings", PingSchema()).ok());
    ASSERT_TRUE(db->Insert("pings", {Value::String("a"),
                                     Value::String("11 Rue Lepic")})
                    .ok());
  }
  // Reopen asking for a different count: the on-disk count wins (re-routing
  // would strand records), and the data is intact.
  {
    auto reopened =
        MustOpen(Options(dir_, streams() == 1 ? 8 : 1, 4, &clock));
    ASSERT_NE(reopened, nullptr);
    EXPECT_EQ(reopened->wal()->num_streams(), streams());
    EXPECT_EQ(reopened->GetTable("pings")->live_rows(), 1u);
  }
  // A lost STREAMS file must not demote a sharded log to one stream — the
  // contiguous s<k> directories recover the count even though the
  // CHECKPOINT manifest also lives at the top level.
  if (streams() > 1) {
    ASSERT_TRUE(RemoveFile(dir_ + "/wal/STREAMS").ok());
    auto reopened = MustOpen(Options(dir_, 1, 4, &clock));
    ASSERT_NE(reopened, nullptr);
    EXPECT_EQ(reopened->wal()->num_streams(), streams());
    EXPECT_EQ(reopened->GetTable("pings")->live_rows(), 1u);
  }
}

TEST_P(WalStreamTest, CheckpointRetiresSegmentsPerStream) {
  VirtualClock clock(0);
  auto db = MustOpen(Options(dir_, streams(), 4, &clock));
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->CreateTable("pings", PingSchema()).ok());
  const std::string needle = "11 Rue Lepic";  // a real leaf: must validate
  for (int b = 0; b < 8; ++b) {
    WriteBatch batch;
    for (int r = 0; r < 16; ++r) {
      batch.Insert("pings", {Value::String("u"), Value::String(needle)});
    }
    ASSERT_TRUE(db->Write(&batch).ok());
  }
  // Fuzzy checkpoints retire segments fully below the begin position; the
  // segment holding the checkpoint record itself survives until the next
  // cadence tick — so scrub timeliness needs the second checkpoint, exactly
  // the "forced checkpoint before the earliest phase-0 deadline" cadence of
  // the paper.
  ASSERT_TRUE(db->Checkpoint().ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_GT(db->wal()->stats().segments_retired, 0u);
  const std::string wal_bytes = AllBytesUnder(dir_ + "/wal");
  switch (mode()) {
    case WalPrivacyMode::kPlain:
      // Recycled segments keep the accurate values — the unsafe baseline.
      EXPECT_NE(wal_bytes.find(needle), std::string::npos);
      break;
    case WalPrivacyMode::kScrub:
    case WalPrivacyMode::kEncryptedEpoch:
      EXPECT_EQ(wal_bytes.find(needle), std::string::npos);
      break;
  }
}

TEST_P(WalStreamTest, EpochKeyDestructionReachesEveryStream) {
  if (mode() != WalPrivacyMode::kEncryptedEpoch) GTEST_SKIP();
  VirtualClock clock(0);
  auto db = MustOpen(Options(dir_, streams(), 4, &clock));
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->CreateTable("pings", PingSchema()).ok());
  const std::string needle = "11 Rue Lepic";  // a real leaf: must validate
  WriteBatch batch;
  for (int r = 0; r < 32; ++r) {
    batch.Insert("pings", {Value::String("u"), Value::String(needle)});
  }
  ASSERT_TRUE(db->Write(&batch).ok());
  ASSERT_TRUE(db->wal()->Sync().ok());
  // Sealed on arrival: no stream ever holds the accurate value in clear.
  EXPECT_EQ(AllBytesUnder(dir_ + "/wal").find(needle), std::string::npos);

  // Every tuple leaves phase 0; the shared per-(table, epoch) keys die,
  // voiding the inserts' payloads in every stream at once.
  clock.Advance(kMicrosPerHour + kMicrosPerMinute);
  auto moved = db->RunDegradationOnce();
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, 32u);
  EXPECT_GT(db->wal()->stats().epoch_keys_destroyed, 0u);

  CrashClone(db.get());
  VirtualClock recovered_clock(clock.NowMicros());
  auto recovered = MustOpen(Options(clone_, streams(), 4, &recovered_clock));
  ASSERT_NE(recovered, nullptr);
  // Recovery fell back to the degraded values logged by the steps; the
  // accurate addresses are unrecoverable by design.
  for (const RowState& state : DumpTable(recovered->GetTable("pings"))) {
    EXPECT_EQ(state.location, "Paris");
    EXPECT_EQ(state.phase, 1);
  }
  EXPECT_EQ(AllBytesUnder(clone_ + "/wal").find(needle), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    StreamsByMode, WalStreamTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values(WalPrivacyMode::kPlain,
                                         WalPrivacyMode::kScrub,
                                         WalPrivacyMode::kEncryptedEpoch)),
    [](const auto& info) {
      std::string name = "S" + std::to_string(std::get<0>(info.param));
      switch (std::get<1>(info.param)) {
        case WalPrivacyMode::kPlain: return name + "Plain";
        case WalPrivacyMode::kScrub: return name + "Scrub";
        case WalPrivacyMode::kEncryptedEpoch: return name + "EncryptedEpoch";
      }
      return name;
    });

// --- torn-tail atomicity, at the WalManager level ---------------------------

class WalTornTailTest : public ::testing::TestWithParam<WalPrivacyMode> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_wal_torn_test";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    ASSERT_TRUE(CreateDirs(dir_).ok());
    keys_ = std::make_unique<KeyManager>(dir_ + "/keystore");
    ASSERT_TRUE(keys_->Open().ok());
  }
  void TearDown() override { RemoveDirRecursive(dir_).ok(); }

  WalOptions MakeOptions() {
    WalOptions options;
    options.privacy_mode = GetParam();
    options.wal_streams = 2;
    return options;
  }

  WalRecord MakeInsert(uint64_t txn, RowId row) {
    WalRecord record;
    record.type = WalRecordType::kInsert;
    record.txn_id = txn;
    record.table = 1;
    record.row_id = row;
    record.insert_time = 0;
    record.stable = {Value::String("donor")};
    record.degradable = {Value::String("addr")};
    return record;
  }

  Status Commit(WalManager* wal, uint64_t txn,
                const std::vector<WalRecord>& ops) {
    std::vector<const WalRecord*> pointers;
    for (const WalRecord& op : ops) pointers.push_back(&op);
    WalRecord commit;
    commit.type = WalRecordType::kCommit;
    commit.txn_id = txn;
    return wal->AppendCommit(pointers, &commit, /*sync=*/true);
  }

  std::string dir_;
  std::unique_ptr<KeyManager> keys_;
  WorkerPool pool_{2};  // RecoverCommitted fans streams out over it
};

TEST_P(WalTornTailTest, TornStreamVoidsCrossStreamCommitAtomically) {
  Lsn s1_end = 0;
  {
    WalManager wal(dir_ + "/wal", MakeOptions(), keys_.get());
    ASSERT_TRUE(wal.Open().ok());
    ASSERT_EQ(wal.num_streams(), 2u);
    // txn 1 spans both streams (rows 2 -> s0, 3 -> s1); its commit frame
    // lands in s0. txn 2 lives wholly in s0.
    WalRecord a = MakeInsert(1, 2);
    WalRecord b = MakeInsert(1, 3);
    ASSERT_TRUE(Commit(&wal, 1, {a, b}).ok());
    ASSERT_TRUE(Commit(&wal, 2, {MakeInsert(2, 4)}).ok());
    s1_end = wal.StreamEnds()[1];
  }
  // Tear stream 1's tail: the frame holding txn 1's row-3 insert loses its
  // last bytes, as after a crash mid-write. (Segments are preallocated, so
  // the cut lands at the logical end, not the zero-padded physical end.)
  {
    auto names = ListDir(dir_ + "/wal/s1");
    ASSERT_TRUE(names.ok());
    std::string segment;
    for (const auto& name : *names) {
      if (EndsWith(name, ".log")) segment = name;
    }
    ASSERT_FALSE(segment.empty());
    const std::string path = dir_ + "/wal/s1/" + segment;
    ASSERT_GT(s1_end, 4u);
    ASSERT_TRUE(TruncateFile(path, s1_end - 3).ok());
  }
  WalManager wal(dir_ + "/wal", MakeOptions(), keys_.get());
  ASSERT_TRUE(wal.Open().ok());
  // txn 1's commit frame survived in s0, but its per-stream counts say one
  // record must live in s1 — gone, so the commit is void. txn 2 replays.
  std::vector<RowId> rows;
  ASSERT_TRUE(wal.RecoverCommitted(&pool_, {0, 0},
                                   /*stream_local_apply=*/false,
                                   [&](const WalRecord& record) {
                                     rows.push_back(record.row_id);
                                     return Status::OK();
                                   })
                  .ok());
  EXPECT_EQ(rows, std::vector<RowId>{4});
}

TEST_P(WalTornTailTest, MergedReplayFollowsCommitOrder) {
  WalManager wal(dir_ + "/wal", MakeOptions(), keys_.get());
  ASSERT_TRUE(wal.Open().ok());
  // Three commits with interleaved stream footprints; the merge must yield
  // whole transactions in commit-sequence order.
  ASSERT_TRUE(Commit(&wal, 7, {MakeInsert(7, 2)}).ok());             // s0
  ASSERT_TRUE(Commit(&wal, 8, {MakeInsert(8, 3)}).ok());             // s1
  ASSERT_TRUE(Commit(&wal, 9, {MakeInsert(9, 4), MakeInsert(9, 5)}).ok());
  std::vector<uint64_t> txn_order;
  ASSERT_TRUE(wal.RecoverCommitted(&pool_, {0, 0},
                                   /*stream_local_apply=*/false,
                                   [&](const WalRecord& record) {
                                     if (txn_order.empty() ||
                                         txn_order.back() != record.txn_id) {
                                       txn_order.push_back(record.txn_id);
                                     }
                                     return Status::OK();
                                   })
                  .ok());
  EXPECT_EQ(txn_order, (std::vector<uint64_t>{7, 8, 9}));
}

TEST_P(WalTornTailTest, CommitSequenceResumesAfterRecovery) {
  // A reopened log must mint CSNs (and the database must mint txn ids)
  // above everything still in the replay range: a second crash would
  // otherwise merge a new generation's commits BEFORE the old ones, and a
  // reused txn id could satisfy a torn commit's record counts with the
  // prior generation's records.
  {
    WalManager wal(dir_ + "/wal", MakeOptions(), keys_.get());
    ASSERT_TRUE(wal.Open().ok());
    ASSERT_TRUE(Commit(&wal, 7, {MakeInsert(7, 2)}).ok());
    ASSERT_TRUE(Commit(&wal, 8, {MakeInsert(8, 3), MakeInsert(8, 4)}).ok());
  }
  WalManager wal(dir_ + "/wal", MakeOptions(), keys_.get());
  ASSERT_TRUE(wal.Open().ok());
  uint64_t max_txn = 0;
  ASSERT_TRUE(wal.RecoverCommitted(&pool_, {0, 0},
                                   /*stream_local_apply=*/false,
                                   [](const WalRecord&) { return Status::OK(); },
                                   &max_txn)
                  .ok());
  EXPECT_EQ(max_txn, 8u);
  // Same txn id as the first generation, committed post-recovery: its CSN
  // must sort after both surviving commits.
  ASSERT_TRUE(Commit(&wal, 7, {MakeInsert(7, 5)}).ok());
  std::vector<uint64_t> seqs;
  for (uint32_t s = 0; s < 2; ++s) {
    ASSERT_TRUE(wal.ReplayStream(s, 0, [&](const WalRecord& record, Lsn) {
                     if (record.type == WalRecordType::kCommit) {
                       seqs.push_back(record.commit_seq);
                     }
                     return Status::OK();
                   })
                    .ok());
  }
  ASSERT_EQ(seqs.size(), 3u);
  const uint64_t newest = *std::max_element(seqs.begin(), seqs.end());
  size_t above = 0;
  for (uint64_t seq : seqs) {
    if (seq == newest) ++above;
  }
  EXPECT_EQ(above, 1u);
  EXPECT_GT(newest, 2u);  // strictly after both first-generation CSNs
}

// --- group-commit watermark, at the WalStream level -------------------------

class GroupCommitWatermarkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_group_commit_test";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    ASSERT_TRUE(CreateDirs(dir_).ok());
    keys_ = std::make_unique<KeyManager>(dir_ + "/keystore");
    ASSERT_TRUE(keys_->Open().ok());
  }
  void TearDown() override { RemoveDirRecursive(dir_).ok(); }

  WalRecord MakeInsert(uint64_t txn, RowId row) {
    WalRecord record;
    record.type = WalRecordType::kInsert;
    record.txn_id = txn;
    record.table = 1;
    record.row_id = row;
    record.insert_time = 0;
    record.stable = {Value::String("u")};
    record.degradable = {Value::String("11 Rue Lepic")};
    return record;
  }

  std::string dir_;
  std::unique_ptr<KeyManager> keys_;
};

TEST_F(GroupCommitWatermarkTest, CoveredRequestIsAbsorbedWithoutASync) {
  WalStream stream(dir_ + "/wal", 0, WalOptions{}, keys_.get());
  ASSERT_TRUE(stream.Open().ok());
  ASSERT_TRUE(stream.Append(MakeInsert(1, 1), /*sync=*/true).ok());
  WalStream::Stats stats = stream.stats();
  EXPECT_EQ(stats.syncs, 1u);
  EXPECT_EQ(stats.sync_requests, 1u);
  EXPECT_EQ(stats.commits_absorbed, 0u);
  EXPECT_EQ(stream.synced_lsn(), stream.next_lsn());

  // A second durability demand for already-covered bytes is satisfied by
  // the watermark alone: no new fdatasync.
  ASSERT_TRUE(stream.SyncThrough(stream.next_lsn()).ok());
  stats = stream.stats();
  EXPECT_EQ(stats.syncs, 1u);
  EXPECT_EQ(stats.sync_requests, 2u);
  EXPECT_EQ(stats.commits_absorbed, 1u);
}

TEST_F(GroupCommitWatermarkTest, ConcurrentDurableAppendsKeepInvariants) {
  constexpr int kThreads = 8;
  constexpr int kAppendsPerThread = 50;
  WalStream stream(dir_ + "/wal", 0, WalOptions{}, keys_.get());
  ASSERT_TRUE(stream.Open().ok());
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kAppendsPerThread; ++i) {
        const RowId row = static_cast<RowId>(t * kAppendsPerThread + i + 1);
        if (!stream.Append(MakeInsert(row, row), /*sync=*/true).ok()) {
          ++errors;
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_EQ(errors.load(), 0);

  const WalStream::Stats stats = stream.stats();
  EXPECT_EQ(stats.records_appended,
            static_cast<uint64_t>(kThreads) * kAppendsPerThread);
  // Every durability demand either led a sync or was absorbed, the synced
  // watermark caught up with the appended one, and nothing was lost.
  EXPECT_EQ(stats.sync_requests, stats.syncs + stats.commits_absorbed);
  EXPECT_EQ(stats.sync_requests,
            static_cast<uint64_t>(kThreads) * kAppendsPerThread);
  EXPECT_EQ(stream.synced_lsn(), stream.next_lsn());
  size_t replayed = 0;
  ASSERT_TRUE(stream
                  .Replay(0,
                          [&](const WalRecord&, Lsn) {
                            ++replayed;
                            return Status::OK();
                          })
                  .ok());
  EXPECT_EQ(replayed, static_cast<size_t>(kThreads) * kAppendsPerThread);
}

// Leadership covers the whole appended tail, whatever the leader's own
// demand: after three unsynced appends, a demand for the FIRST record's end
// leads one fdatasync through the appended end, so later demands for the
// larger LSNs are already below the watermark and absorb without syncing.
// This is the property the commit-latency-aware handoff rests on (the
// largest demand leading cannot strand smaller ones).
TEST_F(GroupCommitWatermarkTest, OneLeaderCoversEveryLargerDemand) {
  WalStream stream(dir_ + "/wal", 0, WalOptions{}, keys_.get());
  ASSERT_TRUE(stream.Open().ok());
  Lsn end_first = 0;
  const WalRecord first = MakeInsert(1, 1);
  ASSERT_TRUE(stream.AppendBatch({&first}, false, &end_first).ok());
  ASSERT_TRUE(stream.Append(MakeInsert(2, 2), /*sync=*/false).ok());
  ASSERT_TRUE(stream.Append(MakeInsert(3, 3), /*sync=*/false).ok());
  const Lsn end_all = stream.next_lsn();
  ASSERT_GT(end_all, end_first);

  ASSERT_TRUE(stream.SyncThrough(end_first).ok());  // leads; covers end_all
  WalStream::Stats stats = stream.stats();
  EXPECT_EQ(stats.syncs, 1u);
  EXPECT_EQ(stream.synced_lsn(), end_all);

  ASSERT_TRUE(stream.SyncThrough(end_all).ok());  // absorbed, no new sync
  stats = stream.stats();
  EXPECT_EQ(stats.syncs, 1u);
  EXPECT_EQ(stats.sync_requests, 2u);
  EXPECT_EQ(stats.commits_absorbed, 1u);
  EXPECT_EQ(stats.sync_requests, stats.syncs + stats.commits_absorbed);
}

// Handoff under contention: threads append WITHOUT sync and then demand
// durability for exactly their own end LSN, so demands of every size race
// through the registration/handoff path (larger arrivals overtaking smaller
// parked ones). The ledger must stay exact — every demand leads or is
// absorbed, sync_requests == syncs + commits_absorbed — and the watermark
// must cover the appended end with nothing lost.
TEST_F(GroupCommitWatermarkTest, StaggeredDemandsKeepTheSyncLedgerExact) {
  constexpr int kThreads = 8;
  constexpr int kAppendsPerThread = 40;
  WalStream stream(dir_ + "/wal", 0, WalOptions{}, keys_.get());
  ASSERT_TRUE(stream.Open().ok());
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kAppendsPerThread; ++i) {
        const RowId row = static_cast<RowId>(t * kAppendsPerThread + i + 1);
        const WalRecord record = MakeInsert(row, row);
        Lsn end = 0;
        if (!stream.AppendBatch({&record}, /*sync=*/false, &end).ok() ||
            !stream.SyncThrough(end).ok()) {
          ++errors;
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_EQ(errors.load(), 0);

  const WalStream::Stats stats = stream.stats();
  EXPECT_EQ(stats.sync_requests,
            static_cast<uint64_t>(kThreads) * kAppendsPerThread);
  EXPECT_EQ(stats.sync_requests, stats.syncs + stats.commits_absorbed);
  EXPECT_EQ(stream.synced_lsn(), stream.next_lsn());
  size_t replayed = 0;
  ASSERT_TRUE(stream
                  .Replay(0,
                          [&](const WalRecord&, Lsn) {
                            ++replayed;
                            return Status::OK();
                          })
                  .ok());
  EXPECT_EQ(replayed, static_cast<size_t>(kThreads) * kAppendsPerThread);
}

INSTANTIATE_TEST_SUITE_P(AllPrivacyModes, WalTornTailTest,
                         ::testing::Values(WalPrivacyMode::kPlain,
                                           WalPrivacyMode::kScrub,
                                           WalPrivacyMode::kEncryptedEpoch),
                         [](const auto& info) {
                           switch (info.param) {
                             case WalPrivacyMode::kPlain:
                               return "Plain";
                             case WalPrivacyMode::kScrub:
                               return "Scrub";
                             case WalPrivacyMode::kEncryptedEpoch:
                               return "EncryptedEpoch";
                           }
                           return "?";
                         });

}  // namespace
}  // namespace instantdb
