// Partition scaling: scan, batched-ingest and degradation throughput at
// 1/2/4/8 hash-partitions with the degradation worker pool enabled, plus
// WAL-stream scaling: durable batched ingest at 8 partitions over
// 1/2/4/8 log streams.
//
// What partitioning buys: every partition owns its own heap, buffer pool,
// state stores and reader-writer latch, so ingest threads, partition scans
// and degradation workers proceed in parallel instead of serializing on one
// per-table latch. What WAL sharding buys: commits route to per-partition
// log streams (batch-affine row allocation puts a WriteBatch's rows in one
// partition, hence one stream), so commits neither queue on a single log
// mutex nor — the dominant effect for durable ingest — behind one file's
// fsync: syncs on distinct streams overlap in the I/O layer even on a
// single core.
//
// Emits BENCH_partition_scaling.json with one throughput series per
// (metric, partitions), per-stream-count durable-ingest series carrying
// p50/p99 commit latency, WAL sync counts, and speedup scalars — plus the
// commit-pipeline scenarios: multi-writer durable ingest on ONE stream
// (group-commit absorption: syncs per commit < 1 at 16 writers) and the
// incremental-checkpoint dirty/clean partition counts.

#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "support/bench_util.h"
#include "util/file.h"

using namespace instantdb;
using bench::JsonEmitter;
using bench::TablePrinter;

namespace {

constexpr size_t kRows = 20000;
constexpr size_t kBatchRows = 100;

// Durable (sync-on-commit) stream-scaling scenario: small OLTP-style
// WriteBatches, so the per-commit log sync — the thing sharding
// parallelizes — dominates over per-row CPU. Large batches amortize the
// sync and need partition/CPU scaling instead (first table).
constexpr size_t kStreamRows = 40000;
constexpr size_t kStreamBatchRows = 4;
constexpr uint32_t kStreamPartitions = 8;

struct Throughput {
  double ingest = 0;   // rows committed per second
  double scan = 0;     // rows assembled per second (partition-parallel)
  double degrade = 0;  // values degraded per second
  Histogram commit_latency_us;
  uint64_t commits = 0;
  // Commit-pipeline counters (Database::Stats deltas, not file-I/O
  // inference): fdatasyncs issued, durability demands, demands absorbed by
  // another leader's sync.
  uint64_t wal_syncs = 0;
  uint64_t wal_sync_requests = 0;
  uint64_t wal_commits_absorbed = 0;
};

/// Batched ingest with `writers` concurrent threads; returns rows/s and
/// fills the per-commit latency histogram and commit-pipeline deltas.
void RunIngest(Database* db, SystemClock* wall, const bench::PingWorkload& workload,
               size_t total_rows, size_t batch_rows, size_t writers,
               Throughput* result) {
  const size_t batches = total_rows / batch_rows;
  std::atomic<size_t> next_batch{0};
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> commits{0};
  std::mutex latency_mu;
  Histogram latency;
  const Database::Stats before = db->stats();
  const Micros start = wall->NowMicros();
  std::vector<std::thread> threads;
  for (size_t w = 0; w < writers; ++w) {
    threads.emplace_back([&] {
      Histogram local;
      while (next_batch.fetch_add(1) < batches) {
        WriteBatch batch;
        for (size_t r = 0; r < batch_rows; ++r) {
          batch.Insert("pings",
                       {Value::String("u"),
                        Value::String(workload.addresses[r %
                                      workload.addresses.size()])});
        }
        const Micros t0 = wall->NowMicros();
        if (db->Write(&batch).ok()) {
          committed += batch.size();
          ++commits;
        }
        local.Add(static_cast<double>(wall->NowMicros() - t0));
      }
      std::lock_guard<std::mutex> lock(latency_mu);
      latency.Merge(local);
    });
  }
  for (auto& t : threads) t.join();
  const Micros elapsed = std::max<Micros>(wall->NowMicros() - start, 1);
  const Database::Stats after = db->stats();
  result->ingest = committed.load() * 1e6 / elapsed;
  result->commit_latency_us = latency;
  result->commits = commits.load();
  result->wal_syncs = after.wal.syncs - before.wal.syncs;
  result->wal_sync_requests = after.wal.sync_requests - before.wal.sync_requests;
  result->wal_commits_absorbed =
      after.wal.commits_absorbed - before.wal.commits_absorbed;
}

Throughput RunOneConfig(uint32_t partitions) {
  SystemClock wall;
  VirtualClock clock;
  DbOptions options;
  options.partitions = partitions;
  options.degradation.worker_threads = partitions;
  auto test = bench::OpenFreshDb(
      "partition_scaling_p" + std::to_string(partitions), &clock, options);
  auto workload = bench::MakePingWorkload(Fig2LocationLcp(), 4);
  test.db->CreateTable("pings", workload.schema).status();

  Throughput result;

  // --- batched ingest, one writer thread per partition -----------------------
  RunIngest(test.db.get(), &wall, workload, kRows, kBatchRows, partitions,
            &result);

  // --- partition-parallel scan (sharded by hand via partition cursors, the
  // API the degradation-audit sweeps use) ------------------------------------
  {
    Table* table = test.db->GetTable("pings");
    std::atomic<uint64_t> scanned{0};
    const Micros start = wall.NowMicros();
    std::vector<std::thread> threads;
    for (uint32_t p = 0; p < table->num_partitions(); ++p) {
      threads.emplace_back([&, p] {
        PartitionCursor cursor = table->OpenPartitionCursor(p);
        ScanWorkspace ws;
        ScanDeltas deltas;
        std::vector<RowView> views;
        uint64_t rows = 0;
        bool done = false;
        while (!done) {
          if (!cursor.NextBatch(256, ScanSpec{}, &ws, &views, &done, &deltas)
                   .ok()) {
            break;
          }
          rows += views.size();
        }
        scanned += rows;
      });
    }
    for (auto& t : threads) t.join();
    const Micros elapsed = std::max<Micros>(wall.NowMicros() - start, 1);
    result.scan = scanned.load() * 1e6 / elapsed;
  }

  // --- degradation step storm over the worker pool ---------------------------
  {
    clock.Advance(kMicrosPerHour);  // every tuple crosses address -> city
    const Micros start = wall.NowMicros();
    auto moved = test.db->RunDegradationOnce();
    const Micros elapsed = std::max<Micros>(wall.NowMicros() - start, 1);
    result.degrade = (moved.ok() ? *moved : 0) * 1e6 / elapsed;
  }
  return result;
}

void RunScaling() {
  TablePrinter table({"partitions", "ingest rows/s", "ingest p99 us",
                      "wal syncs", "scan rows/s", "degrade values/s"});
  double base_scan = 0, base_degrade = 0, base_ingest = 0;
  double best_scan = 0, best_degrade = 0;
  for (uint32_t partitions : {1u, 2u, 4u, 8u}) {
    const Throughput t = RunOneConfig(partitions);
    if (partitions == 1) {
      base_ingest = t.ingest;
      base_scan = t.scan;
      base_degrade = t.degrade;
    }
    if (partitions == 4) {
      best_scan = t.scan;
      best_degrade = t.degrade;
    }
    table.AddRow({std::to_string(partitions),
                  StringPrintf("%.0f", t.ingest),
                  StringPrintf("%.0f", t.commit_latency_us.Percentile(99)),
                  std::to_string(t.wal_syncs),
                  StringPrintf("%.0f", t.scan),
                  StringPrintf("%.0f", t.degrade)});
    const std::string suffix = "_p" + std::to_string(partitions);
    JsonEmitter::Instance().AddSeries("ingest" + suffix, t.ingest,
                                      t.commit_latency_us);
    JsonEmitter::Instance().AddScalar("ingest_rows_per_sec" + suffix, t.ingest);
    JsonEmitter::Instance().AddScalar("wal_syncs" + suffix,
                                      static_cast<double>(t.wal_syncs));
    JsonEmitter::Instance().AddScalar("scan_rows_per_sec" + suffix, t.scan);
    JsonEmitter::Instance().AddScalar("degrade_values_per_sec" + suffix,
                                      t.degrade);
  }
  table.Print(StringPrintf(
      "partition scaling: %zu rows, writer/scanner/degrader parallelism = "
      "partition count (%u hardware threads)",
      kRows, std::thread::hardware_concurrency()));
  if (base_scan > 0) {
    JsonEmitter::Instance().AddScalar("scan_speedup_p4_vs_p1",
                                      best_scan / base_scan);
  }
  if (base_degrade > 0) {
    JsonEmitter::Instance().AddScalar("degrade_speedup_p4_vs_p1",
                                      best_degrade / base_degrade);
  }
  if (base_ingest > 0) {
    std::printf(
        "\nShape check: with >= 4 cores, scan and degradation throughput\n"
        "should reach >= 2x their 1-partition baseline by 4 partitions\n"
        "(each worker owns distinct latches and store locks).\n");
  }
}

/// Parallel read path: one SELECT drained through the streaming cursor at
/// ScanOptions::parallelism 1/2/4/8 over an 8-partition table of payload-
/// heavy rows, COLD — the table is checkpointed, the partition buffer pools
/// are kept tiny and the OS page cache is evicted before every run, so the
/// scan actually reads the device. This is the configuration partition
/// fan-out exists for: with one core the speedup comes from overlapping
/// partition reads in the I/O layer and overlapping I/O with σ/π (the
/// sequential scan pays CPU + I/O additively; the fan-out pays roughly
/// max of the two), and on a multi-core box CPU scaling stacks on top.
/// Prefetch stalls (consumer waited on an empty queue) come from
/// Database::stats().scan — a stall-heavy run is producer/I/O-bound, which
/// is exactly when adding workers helps.
void RunParallelScanScaling() {
  constexpr uint32_t kScanPartitions = 8;
  constexpr size_t kScanRowCount = 96000;
  constexpr size_t kPayloadBytes = 2048;

  SystemClock wall;
  VirtualClock clock;
  DbOptions options;
  options.partitions = kScanPartitions;
  options.degradation.worker_threads = kScanPartitions;
  // 1 MiB of buffer pool per partition: a ~260 MB table never fits, so
  // every scan misses the pool and the page-cache eviction below makes the
  // misses hit the device.
  options.storage.buffer_pool_pages = 128;
  auto test = bench::OpenFreshDb("parallel_scan", &clock, options);
  auto schema = Schema::Make(
      {ColumnDef::Stable("id", ValueType::kInt64),
       ColumnDef::Stable("payload", ValueType::kString),
       ColumnDef::Degradable("location", LocationDomain(), Fig2LocationLcp())});
  test.db->CreateTable("events", *schema).status();

  const char* kAddresses[] = {"11 Rue Lepic", "3 Av Foch", "12 Rue Royale",
                              "4 Rue Breteuil", "8 Cours Mirabeau"};
  const std::string payload(kPayloadBytes, 'x');
  for (size_t start = 0; start < kScanRowCount; start += 100) {
    WriteBatch batch;  // batches are partition-affine: many batches spread
    for (size_t i = start; i < start + 100 && i < kScanRowCount; ++i) {
      batch.Insert("events", {Value::Int64(static_cast<int64_t>(i)),
                              Value::String(payload),
                              Value::String(kAddresses[i % 5])});
    }
    test.db->Write(&batch).ok();
  }
  test.db->Checkpoint().ok();  // heap pages on disk, stores flushed

  TablePrinter table({"parallelism", "cold scan rows/s", "elapsed ms",
                      "prefetch stalls", "scan batches"});
  Session session(test.db.get());
  double base = 0, best = 0;
  for (size_t parallelism : {1u, 2u, 4u, 8u}) {
    EvictDirFromOsCache(test.path).ok();
    session.scan_options().parallelism = parallelism;
    const Database::Stats before = test.db->stats();
    const Micros start = wall.NowMicros();
    uint64_t rows = 0;
    auto cursor = session.ExecuteCursor("SELECT id, location FROM events");
    if (cursor.ok()) {
      const CursorBatch* batch = nullptr;
      while (true) {
        auto more = (*cursor)->NextBatch(&batch);
        if (!more.ok() || !*more) break;
        rows += batch->size();
      }
    }
    const Micros elapsed = std::max<Micros>(wall.NowMicros() - start, 1);
    const Database::Stats after = test.db->stats();
    const double rows_per_sec = rows * 1e6 / elapsed;
    if (parallelism == 1) base = rows_per_sec;
    if (parallelism == 8) best = rows_per_sec;
    const uint64_t stalls =
        after.scan.prefetch_stalls - before.scan.prefetch_stalls;
    const uint64_t batches = after.scan.batches - before.scan.batches;
    table.AddRow({std::to_string(parallelism),
                  StringPrintf("%.0f", rows_per_sec),
                  StringPrintf("%llu",
                               static_cast<unsigned long long>(elapsed / 1000)),
                  std::to_string(stalls), std::to_string(batches)});
    const std::string suffix = "_par" + std::to_string(parallelism);
    JsonEmitter::Instance().AddScalar("parallel_scan_rows_per_sec" + suffix,
                                      rows_per_sec);
    JsonEmitter::Instance().AddScalar("parallel_scan_stalls" + suffix,
                                      static_cast<double>(stalls));
    if (rows != kScanRowCount) {
      std::printf("!! parallel scan returned %llu of %zu rows\n",
                  static_cast<unsigned long long>(rows), kScanRowCount);
    }
  }
  table.Print(StringPrintf(
      "parallel read path: cold SELECT over %zu x %zu-byte rows, "
      "%u partitions, page cache evicted per run (%u hardware threads)",
      kScanRowCount, kPayloadBytes, kScanPartitions,
      std::thread::hardware_concurrency()));
  if (base > 0) {
    JsonEmitter::Instance().AddScalar("parallel_scan_speedup_par8_vs_par1",
                                      best / base);
    std::printf("\ncold scan speedup, parallelism 8 vs 1: %.2fx\n",
                best / base);
  }
}

/// Durable-ingest scaling over WAL streams at a fixed 8 partitions: every
/// commit fsyncs. With one stream all commits queue behind one file's sync;
/// with per-partition streams the batch-affine commits land on distinct
/// stream files whose fsyncs overlap in the I/O layer — this is the
/// configuration the WAL sharding exists for, and it scales even when the
/// CPU does not (fsync waits overlap on a single core).
void RunWalStreamScaling() {
  TablePrinter table({"wal streams", "ingest rows/s", "commit p50 us",
                      "commit p99 us", "wal syncs"});
  double base = 0, best = 0;
  for (uint32_t streams : {1u, 2u, 4u, 8u}) {
    SystemClock wall;
    VirtualClock clock;
    DbOptions options;
    options.partitions = kStreamPartitions;
    options.degradation.worker_threads = 1;
    options.wal.wal_streams = streams;
    options.wal.sync_on_commit = true;  // durable ingest: the WAL-bound case
    auto test = bench::OpenFreshDb(
        "wal_stream_scaling_s" + std::to_string(streams), &clock, options);
    auto workload = bench::MakePingWorkload(Fig2LocationLcp(), 4);
    test.db->CreateTable("pings", workload.schema).status();

    Throughput t;
    RunIngest(test.db.get(), &wall, workload, kStreamRows, kStreamBatchRows,
              kStreamPartitions, &t);
    if (streams == 1) base = t.ingest;
    if (streams == 8) best = t.ingest;
    table.AddRow({std::to_string(streams),
                  StringPrintf("%.0f", t.ingest),
                  StringPrintf("%.0f", t.commit_latency_us.Percentile(50)),
                  StringPrintf("%.0f", t.commit_latency_us.Percentile(99)),
                  std::to_string(t.wal_syncs)});
    const std::string suffix =
        "_p" + std::to_string(kStreamPartitions) + "_s" + std::to_string(streams);
    JsonEmitter::Instance().AddSeries("durable_ingest" + suffix, t.ingest,
                                      t.commit_latency_us);
    JsonEmitter::Instance().AddScalar("durable_ingest_rows_per_sec" + suffix,
                                      t.ingest);
    JsonEmitter::Instance().AddScalar("wal_syncs" + suffix,
                                      static_cast<double>(t.wal_syncs));
  }
  table.Print(StringPrintf(
      "WAL stream scaling: durable (sync-on-commit) batched ingest, "
      "%zu rows, %u partitions, %u writers",
      kStreamRows, kStreamPartitions, kStreamPartitions));
  if (base > 0) {
    JsonEmitter::Instance().AddScalar("ingest_speedup_p8_s8_vs_s1",
                                      best / base);
    std::printf("\ndurable ingest speedup, 8 streams vs 1: %.2fx\n",
                best / base);
  }
}

// Leader-based group commit on a FEW-stream configuration: durable
// small-batch ingest over one log stream at 1/4/16 writer threads. With one
// writer every commit leads its own fdatasync (syncs per commit == 1); with
// 16 writers most commits park on the synced-LSN watermark and one leader's
// fdatasync absorbs the pack — syncs per commit drops well below 1, which
// is the acceptance signal for the asynchronous commit pipeline (stream
// sharding cannot help here: there is only one stream to sync).
void RunGroupCommitScaling() {
  constexpr size_t kGroupRows = 12000;
  constexpr size_t kGroupBatchRows = 4;
  TablePrinter table({"writers", "ingest rows/s", "syncs", "syncs/commit",
                      "absorbed", "commit p50 us", "commit p99 us"});
  for (uint32_t writers : {1u, 4u, 16u}) {
    SystemClock wall;
    VirtualClock clock;
    DbOptions options;
    options.partitions = 8;
    options.degradation.worker_threads = 1;
    options.wal.wal_streams = 1;  // few-stream: every commit shares one file
    options.wal.sync_on_commit = true;
    auto test = bench::OpenFreshDb(
        "group_commit_w" + std::to_string(writers), &clock, options);
    auto workload = bench::MakePingWorkload(Fig2LocationLcp(), 4);
    test.db->CreateTable("pings", workload.schema).status();

    Throughput t;
    RunIngest(test.db.get(), &wall, workload, kGroupRows, kGroupBatchRows,
              writers, &t);
    const double syncs_per_commit =
        t.commits == 0 ? 0 : static_cast<double>(t.wal_syncs) / t.commits;
    table.AddRow({std::to_string(writers),
                  StringPrintf("%.0f", t.ingest),
                  std::to_string(t.wal_syncs),
                  StringPrintf("%.3f", syncs_per_commit),
                  std::to_string(t.wal_commits_absorbed),
                  StringPrintf("%.0f", t.commit_latency_us.Percentile(50)),
                  StringPrintf("%.0f", t.commit_latency_us.Percentile(99))});
    const std::string suffix = "_w" + std::to_string(writers) + "_s1";
    JsonEmitter::Instance().AddSeries("group_commit_ingest" + suffix, t.ingest,
                                      t.commit_latency_us);
    JsonEmitter::Instance().AddScalar("group_commit_rows_per_sec" + suffix,
                                      t.ingest);
    JsonEmitter::Instance().AddScalar("group_commit_syncs_per_commit" + suffix,
                                      syncs_per_commit);
    JsonEmitter::Instance().AddScalar(
        "group_commit_absorbed" + suffix,
        static_cast<double>(t.wal_commits_absorbed));
    JsonEmitter::Instance().AddScalar("group_commit_syncs" + suffix,
                                      static_cast<double>(t.wal_syncs));
  }
  table.Print(StringPrintf(
      "group commit: durable (sync-on-commit) ingest, %zu rows, batch %zu, "
      "8 partitions, ONE wal stream",
      kGroupRows, kGroupBatchRows));
  std::printf(
      "\nShape check: syncs/commit must be 1.0 at 1 writer and < 1 at 16\n"
      "writers (leader absorption working).\n");
}

// Incremental checkpointing: a mostly-clean database flushes only its dirty
// partitions. After bulk ingest dirties all 8 partitions (first checkpoint
// flushes 8), a single small batch dirties exactly one — the second
// checkpoint flushes 1 and skips 7 as clean, and a third with no writes at
// all skips everything. The skipped-clean counter is the new
// Database::Stats evidence that the segment retirement cadence no longer
// pays for cold data volume.
void RunCheckpointSkipScenario() {
  SystemClock wall;
  VirtualClock clock;
  DbOptions options;
  options.partitions = 8;
  options.degradation.worker_threads = 8;
  auto test = bench::OpenFreshDb("checkpoint_skip", &clock, options);
  auto workload = bench::MakePingWorkload(Fig2LocationLcp(), 4);
  test.db->CreateTable("pings", workload.schema).status();

  Throughput ignored;
  RunIngest(test.db.get(), &wall, workload, 8000, 100, 8, &ignored);
  test.db->Checkpoint().ok();  // all partitions dirty: flush everything
  const Database::Stats after_full = test.db->stats();

  WriteBatch small;
  for (int r = 0; r < 4; ++r) {
    small.Insert("pings", {Value::String("u"),
                           Value::String(workload.addresses[0])});
  }
  test.db->Write(&small).ok();
  const Micros dirty_start = wall.NowMicros();
  test.db->Checkpoint().ok();  // one dirty partition: flush 1, skip 7
  const Micros dirty_elapsed = wall.NowMicros() - dirty_start;
  const Database::Stats after_dirty = test.db->stats();

  const Micros clean_start = wall.NowMicros();
  test.db->Checkpoint().ok();  // nothing dirty: flush 0, skip 8
  const Micros clean_elapsed = wall.NowMicros() - clean_start;
  const Database::Stats after_clean = test.db->stats();

  const uint64_t dirty_flushed = after_dirty.checkpoint_partitions_flushed -
                                 after_full.checkpoint_partitions_flushed;
  const uint64_t dirty_skipped = after_dirty.checkpoint_partitions_clean -
                                 after_full.checkpoint_partitions_clean;
  const uint64_t clean_flushed = after_clean.checkpoint_partitions_flushed -
                                 after_dirty.checkpoint_partitions_flushed;
  const uint64_t clean_skipped = after_clean.checkpoint_partitions_clean -
                                 after_dirty.checkpoint_partitions_clean;
  TablePrinter table({"checkpoint", "flushed", "skipped clean", "micros"});
  table.AddRow({"after bulk ingest",
                std::to_string(after_full.checkpoint_partitions_flushed),
                std::to_string(after_full.checkpoint_partitions_clean), "-"});
  table.AddRow({"one dirty partition", std::to_string(dirty_flushed),
                std::to_string(dirty_skipped),
                std::to_string(dirty_elapsed)});
  table.AddRow({"fully clean", std::to_string(clean_flushed),
                std::to_string(clean_skipped), std::to_string(clean_elapsed)});
  table.Print(
      "incremental checkpoint: flushed vs skipped-as-clean partitions "
      "(8 partitions)");
  JsonEmitter::Instance().AddScalar("checkpoint_dirty_flushed",
                                    static_cast<double>(dirty_flushed));
  JsonEmitter::Instance().AddScalar("checkpoint_skipped_clean",
                                    static_cast<double>(dirty_skipped));
  JsonEmitter::Instance().AddScalar("checkpoint_clean_skipped_all",
                                    static_cast<double>(clean_skipped));
  JsonEmitter::Instance().AddScalar("checkpoint_clean_micros",
                                    static_cast<double>(clean_elapsed));
}

/// Skewed read path: the same cold SELECT but over a table whose rows pile
/// onto ONE hot partition of 8 (batch-affine allocation rotates per batch,
/// so big batches every 8th commit and tiny ones between land ~90% of the
/// bytes in partition 0). This is the shape partition-grained fan-out
/// cannot help with — 7 workers finish their sliver and idle while one
/// drains the hot partition — and the shape the morsel scheduler exists
/// for: the hot partition splits into page-range morsels that every idle
/// worker steals, so the speedup survives the skew. morsels_stolen deltas
/// (Database::stats().scan) are the proof of shared draining.
void RunSkewedScanScaling() {
  constexpr uint32_t kSkewPartitions = 8;
  constexpr size_t kPayloadBytes = 2048;
  constexpr size_t kHotBatchRows = 200;
  constexpr size_t kColdBatchRows = 4;
  constexpr size_t kBatches = 1600;  // 200 rounds of 1 hot + 7 cold commits

  SystemClock wall;
  VirtualClock clock;
  DbOptions options;
  options.partitions = kSkewPartitions;
  options.degradation.worker_threads = kSkewPartitions;
  options.storage.buffer_pool_pages = 128;  // never fits: scans hit disk
  auto test = bench::OpenFreshDb("skewed_scan", &clock, options);
  auto schema = Schema::Make(
      {ColumnDef::Stable("id", ValueType::kInt64),
       ColumnDef::Stable("payload", ValueType::kString),
       ColumnDef::Degradable("location", LocationDomain(), Fig2LocationLcp())});
  test.db->CreateTable("events", *schema).status();

  const char* kAddresses[] = {"11 Rue Lepic", "3 Av Foch", "12 Rue Royale",
                              "4 Rue Breteuil", "8 Cours Mirabeau"};
  const std::string payload(kPayloadBytes, 'x');
  size_t total_rows = 0;
  for (size_t b = 0; b < kBatches; ++b) {
    const size_t rows = (b % kSkewPartitions == 0) ? kHotBatchRows
                                                   : kColdBatchRows;
    WriteBatch batch;
    for (size_t r = 0; r < rows; ++r, ++total_rows) {
      batch.Insert("events",
                   {Value::Int64(static_cast<int64_t>(total_rows)),
                    Value::String(payload),
                    Value::String(kAddresses[total_rows % 5])});
    }
    test.db->Write(&batch).ok();
  }
  test.db->Checkpoint().ok();

  TablePrinter table({"parallelism", "cold scan rows/s", "elapsed ms",
                      "morsels stolen", "prefetch stalls"});
  Session session(test.db.get());
  double base = 0, best = 0;
  for (size_t parallelism : {1u, 2u, 4u, 8u}) {
    EvictDirFromOsCache(test.path).ok();
    session.scan_options().parallelism = parallelism;
    const Database::Stats before = test.db->stats();
    const Micros start = wall.NowMicros();
    uint64_t rows = 0;
    auto cursor = session.ExecuteCursor("SELECT id, location FROM events");
    if (cursor.ok()) {
      const CursorBatch* batch = nullptr;
      while (true) {
        auto more = (*cursor)->NextBatch(&batch);
        if (!more.ok() || !*more) break;
        rows += batch->size();
      }
    }
    const Micros elapsed = std::max<Micros>(wall.NowMicros() - start, 1);
    const Database::Stats after = test.db->stats();
    const double rows_per_sec = rows * 1e6 / elapsed;
    if (parallelism == 1) base = rows_per_sec;
    if (parallelism == 8) best = rows_per_sec;
    const uint64_t stolen =
        after.scan.morsels_stolen - before.scan.morsels_stolen;
    const uint64_t stalls =
        after.scan.prefetch_stalls - before.scan.prefetch_stalls;
    table.AddRow({std::to_string(parallelism),
                  StringPrintf("%.0f", rows_per_sec),
                  StringPrintf("%llu",
                               static_cast<unsigned long long>(elapsed / 1000)),
                  std::to_string(stolen), std::to_string(stalls)});
    const std::string suffix = "_par" + std::to_string(parallelism);
    JsonEmitter::Instance().AddScalar("skewed_scan_rows_per_sec" + suffix,
                                      rows_per_sec);
    JsonEmitter::Instance().AddScalar("skewed_scan_stolen" + suffix,
                                      static_cast<double>(stolen));
    if (rows != total_rows) {
      std::printf("!! skewed scan returned %llu of %zu rows\n",
                  static_cast<unsigned long long>(rows), total_rows);
    }
  }
  table.Print(StringPrintf(
      "skewed read path: cold SELECT, %zu x %zu-byte rows with ~%zu%% in one "
      "of %u partitions, page cache evicted per run (%u hardware threads)",
      total_rows, kPayloadBytes,
      kHotBatchRows * 100 /
          (kHotBatchRows + (kSkewPartitions - 1) * kColdBatchRows),
      kSkewPartitions, std::thread::hardware_concurrency()));
  if (base > 0) {
    JsonEmitter::Instance().AddScalar("skewed_scan_speedup_p8_vs_p1",
                                      best / base);
    std::printf("\nskewed cold scan speedup, parallelism 8 vs 1: %.2fx\n",
                best / base);
  }
}

}  // namespace

int main() {
  RunScaling();
  RunWalStreamScaling();
  RunGroupCommitScaling();
  RunCheckpointSkipScenario();
  // Last: the cold-scan scenarios evict the page cache and leave hundreds
  // of MB of heap behind them, which would perturb the sync-bound
  // scenarios' series if they ran before them.
  RunParallelScanScaling();
  RunSkewedScanScaling();
  return 0;  // JsonEmitter flushes BENCH_<program>.json at exit
}
