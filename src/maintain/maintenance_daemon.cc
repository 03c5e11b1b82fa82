#include "maintain/maintenance_daemon.h"

#include <algorithm>

#include "common/logging.h"
#include "db/database.h"

namespace instantdb {

namespace {
/// Retry delays after a transient checkpoint I/O failure: start at the
/// floor, double per consecutive failure, never exceed the cap.
constexpr Micros kCheckpointBackoffFloor = 10'000;     // 10 ms
constexpr Micros kCheckpointBackoffCap = 5'000'000;    // 5 s
}  // namespace

MaintenanceDaemon::MaintenanceDaemon(Database* db,
                                     const MaintenanceOptions& options)
    : db_(db),
      options_(options),
      auditor_(db->wal(), db->worker_pool()) {}

MaintenanceDaemon::~MaintenanceDaemon() { Stop(); }

Status MaintenanceDaemon::Start() {
  if (running_.exchange(true)) return Status::OK();
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void MaintenanceDaemon::Stop() {
  if (!running_.exchange(false)) return;
  db_->clock()->WakeAll();
  if (thread_.joinable()) thread_.join();
}

void MaintenanceDaemon::Pause() {
  paused_.store(true, std::memory_order_release);
}

void MaintenanceDaemon::Resume() {
  paused_.store(false, std::memory_order_release);
  db_->clock()->WakeAll();
}

Status MaintenanceDaemon::RunOnce(Micros now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (paused_.load(std::memory_order_acquire)) {
    // Deadlines advance with no work: Resume picks up the NEXT cadence
    // point instead of replaying a backlog of missed ones.
    if (now >= next_checkpoint_due_) {
      next_checkpoint_due_ = now + options_.checkpoint_interval;
    }
    if (now >= next_audit_due_) next_audit_due_ = now + options_.audit_interval;
    return Status::OK();
  }
  Status status;
  if (options_.checkpoint_interval > 0 && now >= next_checkpoint_due_) {
    status = CheckpointIfWorthwhile(now);
    // Deadline AFTER the checkpoint: a successful checkpoint retires the
    // pressuring segment, so the adaptive pull only fires when a payload
    // deadline is still live inside the next interval. A transient I/O
    // failure instead schedules a capped exponential retry.
    next_checkpoint_due_ = CheckpointCadenceAfterLocked(now, status);
  }
  if (options_.audit_interval > 0 && now >= next_audit_due_) {
    next_audit_due_ = now + options_.audit_interval;
    const AuditReport report = RunAuditLocked(now);
    if (!report.clean()) {
      IDB_ERROR("maintenance audit found exposure: %s",
                report.ToString().c_str());
    }
  }
  return status;
}

Micros MaintenanceDaemon::NextCheckpointDueLocked(Micros now) {
  // Adaptive cadence: `checkpoint_interval` is the FLOOR — the guaranteed
  // worst-case gap between cadence points — but when a live WAL segment
  // holds a degradable payload whose phase-0 deadline lands inside that
  // window, the next cadence point is pulled forward to the deadline
  // itself. The checkpoint then rotates + retires the segment the moment
  // the payload becomes overdue instead of up to a full interval later,
  // shrinking the worst-case log exposure from `checkpoint_interval` to
  // one scheduler wake. A deadline already past (or kForever) leaves the
  // interval cadence untouched — pressure that old is caught by the
  // wal_pressure force in CheckpointIfWorthwhile at this very cadence
  // point.
  Micros due = now + options_.checkpoint_interval;
  const Micros payload = db_->wal()->EarliestPayloadDeadline();
  if (payload > now && payload < due) {
    due = payload;
    ++stats_.adaptive_checkpoint_pulls;
  }
  return due;
}

Status MaintenanceDaemon::CheckpointIfWorthwhile(Micros now) {
  const uint64_t dirty = db_->DirtyPartitions();
  // WAL payload-deadline pressure: a live segment still holds an accurate
  // insert payload past its phase-0 deadline. Checkpointing rotates and
  // retires it (scrub/unlink per the privacy mode) — this is what keeps
  // log hygiene tracking the degradation deadlines when no new writes
  // arrive to dirty a partition. A pending (failed-last-time) checkpoint
  // counts as pressure too: the failed attempt may have flushed every
  // partition clean while the manifest — and segment retirement — still
  // lag, so skipping on "clean" would strand the overdue checkpoint.
  const bool wal_pressure =
      db_->wal()->AuditExposure(now).exposed_segments > 0 ||
      checkpoint_pressure_pending_;
  if (dirty < options_.checkpoint_dirty_threshold && !wal_pressure) {
    ++stats_.checkpoints_skipped_clean;
    return Status::OK();
  }
  IDB_RETURN_IF_ERROR(db_->Checkpoint());
  ++stats_.checkpoints;
  if (wal_pressure && dirty < options_.checkpoint_dirty_threshold) {
    ++stats_.forced_checkpoints;
  }
  return Status::OK();
}

Micros MaintenanceDaemon::CheckpointCadenceAfterLocked(Micros now,
                                                       const Status& status) {
  if (status.ok()) {
    checkpoint_backoff_ = 0;
    checkpoint_pressure_pending_ = false;
    return NextCheckpointDueLocked(now);
  }
  if (first_error_.ok()) first_error_ = status;
  if (!status.IsIOError() && !status.IsBusy()) {
    // Non-transient failure: keep the regular cadence (the error is logged
    // by the caller and stays sticky in first_error_).
    return NextCheckpointDueLocked(now);
  }
  // Transient I/O failure: retry with capped exponential backoff, keeping
  // the pressure flag set so the attempt that finally succeeds bypasses the
  // skip-clean gate — a recovered disk immediately drives the overdue
  // checkpoint.
  checkpoint_pressure_pending_ = true;
  checkpoint_backoff_ =
      checkpoint_backoff_ == 0
          ? kCheckpointBackoffFloor
          : std::min(checkpoint_backoff_ * 2, kCheckpointBackoffCap);
  ++stats_.io_retries;
  return now + checkpoint_backoff_;
}

AuditReport MaintenanceDaemon::RunAuditLocked(Micros now) {
  const AuditReport report =
      db_->RunAuditSweep(auditor_, now, options_.audit_grace);
  ++stats_.audits;
  if (!report.clean()) {
    ++stats_.audits_failed;
    // Audit-driven repair: every partition the sweep proved overdue becomes
    // a top-priority degradation unit — the engine's next pass (woken now)
    // drains it ahead of the regular deadline order, closing the attack
    // window the audit just measured instead of merely reporting it.
    for (const TableAuditFindings& findings : report.tables) {
      for (const uint32_t partition : findings.exposed_partitions) {
        db_->degradation()->EnqueueUrgent(findings.table, partition);
        ++stats_.repairs_enqueued;
      }
    }
  }
  stats_.audit_rows_scanned += report.rows_scanned;
  stats_.max_exposure_seen =
      std::max(stats_.max_exposure_seen, report.max_exposure);
  stats_.last_audit = now;
  last_report_ = report;
  return report;
}

AuditReport MaintenanceDaemon::RunAuditNow() {
  std::lock_guard<std::mutex> lock(mu_);
  return RunAuditLocked(db_->clock()->NowMicros());
}

void MaintenanceDaemon::Loop() {
  for (;;) {
    // Token before the running_ check: a Stop() (or Resume()) landing
    // anywhere after this line expires the token, so the WaitUntil below
    // returns immediately instead of sleeping through the shutdown wake.
    const uint64_t token = db_->clock()->WakeToken();
    if (!running_.load(std::memory_order_acquire)) break;
    const Micros now = db_->clock()->NowMicros();
    const Status status = RunOnce(now);
    if (!status.ok()) {
      IDB_ERROR("maintenance step failed: %s", status.ToString().c_str());
    }
    Micros wake = kForever;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (options_.checkpoint_interval > 0) {
        wake = std::min(wake, next_checkpoint_due_);
      }
      if (options_.audit_interval > 0) wake = std::min(wake, next_audit_due_);
    }
    db_->clock()->WaitUntil(wake == kForever ? now + kMicrosPerHour : wake,
                            token);
  }
}

MaintenanceDaemon::Stats MaintenanceDaemon::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

AuditReport MaintenanceDaemon::last_report() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_report_;
}

}  // namespace instantdb
