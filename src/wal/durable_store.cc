#include "wal/durable_store.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <utility>

#include "analysis/plan_verify.h"
#include "common/failpoint.h"
#include "obs/flight_recorder.h"
#include "obs/trace_id.h"
#include "storage/persist.h"
#include "wal/maintenance.h"

namespace mctdb::wal {

namespace flight = obs::flight;

Result<std::unique_ptr<DurableStore>> DurableStore::Open(
    const mct::MctSchema& schema, const std::string& path,
    const Options& options) {
  std::unique_ptr<DurableStore> ds(new DurableStore());
  ds->path_ = path;
  ds->options_ = options;
  MCTDB_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::MctStore> loaded,
      storage::LoadStoreWithRetry(schema, path, options.store));
  ds->Install(std::move(loaded));
  uint64_t fingerprint = storage::SchemaFingerprint(schema);
  MCTDB_ASSIGN_OR_RETURN(
      ds->recovery_,
      RecoverLog(WalPath(path), fingerprint, ds->store_.get()));
  MCTDB_ASSIGN_OR_RETURN(
      ds->log_, LogWriter::Open(WalPath(path), fingerprint,
                                /*checkpoint_lsn=*/kNoLsn,
                                /*durable_lsn=*/ds->recovery_.last_lsn));
  ds->last_applied_ = ds->recovery_.last_lsn;
  return ds;
}

Result<std::unique_ptr<DurableStore>> DurableStore::Create(
    std::unique_ptr<storage::MctStore> store, const std::string& path,
    const Options& options) {
  std::unique_ptr<DurableStore> ds(new DurableStore());
  ds->path_ = path;
  ds->options_ = options;
  // Atomic create: build the image beside `path`, durably discard any
  // stale log, and only then rename the image into place. Until the
  // rename no new image is visible, so no crash point can pair a fresh
  // image with an old WAL whose fingerprint matches (same schema) — the
  // next Open would replay that stale history onto the new image.
  std::string tmp = path + ".create.tmp";
  Status saved = storage::SaveStore(*store, tmp, /*sync=*/true);
  if (!saved.ok()) {
    std::remove(tmp.c_str());
    return saved;
  }
  std::remove(WalPath(path).c_str());
  // Directory sync between the two entry operations: the stale log's
  // removal must reach disk before the rename can.
  Status synced = storage::SyncParentDir(path);
  if (!synced.ok()) {
    std::remove(tmp.c_str());
    return synced;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("durable store: create rename failed");
  }
  MCTDB_RETURN_IF_ERROR(storage::SyncParentDir(path));
  ds->Install(std::move(store));
  uint64_t fingerprint = storage::SchemaFingerprint(ds->schema());
  MCTDB_ASSIGN_OR_RETURN(
      ds->log_, LogWriter::Open(WalPath(path), fingerprint,
                                /*checkpoint_lsn=*/kNoLsn,
                                /*durable_lsn=*/kNoLsn));
  return ds;
}

Result<std::unique_ptr<DurableStore>> DurableStore::Ephemeral(
    std::unique_ptr<storage::MctStore> store, const Options& options) {
  std::unique_ptr<DurableStore> ds(new DurableStore());
  ds->options_ = options;
  ds->Install(std::move(store));
  uint64_t fingerprint = storage::SchemaFingerprint(ds->schema());
  MCTDB_ASSIGN_OR_RETURN(ds->log_,
                         LogWriter::Open("", fingerprint,
                                         /*checkpoint_lsn=*/kNoLsn,
                                         /*durable_lsn=*/kNoLsn));
  return ds;
}

void DurableStore::Install(std::unique_ptr<storage::MctStore> store) {
  store->EnableVersioning();
  schema_ = &store->schema();
  live_store_.store(store.get(), std::memory_order_release);
  store_ = std::move(store);
}

Result<DurableStore::ApplyReceipt> DurableStore::ApplyOnce(
    const storage::UpdateOp& op, obs::ExecStats* stats, uint64_t* appends) {
  std::unique_lock lk(write_mu_);
  if (log_->degraded()) {
    return read_only()
               ? Status::Unavailable(
                     "durable store: read-only (WAL out of disk space); "
                     "reads keep serving, writes resume after space "
                     "recovers")
               : Status::Unavailable("durable store: WAL degraded; reopen");
  }
  storage::MctStore* store = store_.get();
  std::string payload;
  storage::EncodeUpdateOp(op, &payload);
  Lsn lsn = kNoLsn;
  {
    // Write-ahead: the redo record is (at least buffered) before any
    // state is dirtied. A failed append aborts cleanly.
    obs::SpanScope span(stats, obs::StageKind::kWal, "append");
    MCTDB_ASSIGN_OR_RETURN(lsn, log_->Append(RecordType::kUpdateOp, payload));
    ++*appends;
    span.SetCardinalityOut(payload.size());
  }
  Result<storage::ApplyStats> applied = storage::ApplyStats{};
  {
    obs::SpanScope span(stats, obs::StageKind::kUpdate,
                        storage::UpdateKindName(op.kind));
    applied = storage::ApplyUpdateOp(store, op, lsn);
    if (applied.ok()) {
      span.SetCardinalityOut(applied.value().labels_touched);
    }
  }
  if (!applied.ok()) {
    // The op failed deterministically before mutating anything; its log
    // record will fail identically on replay (recovery skips it). Later
    // appends/commits continue normally.
    return applied.status();
  }
  last_applied_ = lsn;
  // Track the tightest residual label gap since the last rebase — the
  // maintenance gap-pressure signal.
  uint32_t gap = applied.value().min_free_gap;
  if (gap != UINT32_MAX) {
    uint32_t cur = min_free_gap_.load(std::memory_order_relaxed);
    while (gap < cur && !min_free_gap_.compare_exchange_weak(
                            cur, gap, std::memory_order_relaxed)) {
    }
  }
  lk.unlock();
  bool led = false;
  {
    // Group commit outside the write mutex: concurrent appliers park on
    // one fsync. The span's cardinality pair records the batch LSN range
    // this commit rode: in = first LSN the sync covered beyond what was
    // already durable, out = the high LSN — so a trace shows which other
    // requests' records shared the fsync.
    obs::SpanScope span(stats, obs::StageKind::kWal, "group_commit");
    const Lsn durable_before = log_->durable_lsn();
    MCTDB_RETURN_IF_ERROR(log_->Commit(lsn, &led));
    span.SetCardinalityIn(durable_before == kNoLsn ? 1 : durable_before + 1);
    span.SetCardinalityOut(log_->durable_lsn());
  }
  // Readers snapshot AFTER durability — an applied-but-unsynced op is
  // never visible, so a crash cannot retract an observed state. `store`
  // may have been replaced and freed since the unlock: publish on the live
  // store, which a rebase published at a checkpoint LSN >= lsn already.
  {
    std::lock_guard pin(pin_mu_);
    store_->PublishVisibleLsn(lsn);
  }
  return ApplyReceipt{lsn, applied.value(), *appends, led ? 1u : 0u};
}

Result<DurableStore::ApplyReceipt> DurableStore::Apply(
    const storage::UpdateOp& op, obs::ExecStats* stats) {
  // Verified once, before any append: a schema-invalid op never dirties
  // the log, so recovery never meets a record the live path refused.
  analysis::DiagnosticReport verdict = analysis::VerifyUpdate(schema(), op);
  if (verdict.has_errors()) {
    return Status::InvalidArgument("update rejected by verifier:\n" +
                                   verdict.ToText());
  }
  // Service-submitted ops arrive under the worker's admission-minted
  // trace; direct library/CLI callers get one minted here so WAL events —
  // including every stalled retry below — correlate under one trace.
  std::optional<obs::ScopedTraceId> trace_scope;
  if (obs::CurrentTraceId() == 0) {
    trace_scope.emplace(obs::MintTraceId());
  }
  uint64_t appends = 0;
  Result<ApplyReceipt> r = ApplyOnce(op, stats, &appends);
  if (!r.ok() && !readonly_announced_.load(std::memory_order_relaxed) &&
      read_only()) {
    if (!readonly_announced_.exchange(true, std::memory_order_relaxed)) {
      flight::Record(flight::Subsystem::kWal, flight::Site::kReadOnlyEnter,
                     obs::CurrentTraceId(),
                     static_cast<uint64_t>(log_->last_errno()));
    }
  }
  if (r.ok() || !r.status().IsResourceExhausted()) return r;
  // Interval-label gap saturation. Without a maintenance manager this is
  // the operator-driven world: surface ResourceExhausted and let the
  // caller checkpoint. With one, stall bounded-time behind an urgent
  // rebalancing checkpoint and retry — the op's WAL record from the
  // failed attempt is harmless (recovery skips ResourceExhausted replays
  // idempotently) and the retry appends a fresh record.
  saturation_events_.fetch_add(1, std::memory_order_relaxed);
  MaintenanceManager* mm = maintenance();
  if (mm == nullptr) return r;
  const double budget = mm->options().max_stall_seconds;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(budget));
  while (true) {
    write_stalls_.fetch_add(1, std::memory_order_relaxed);
    flight::Record(flight::Subsystem::kCheckpoint, flight::Site::kWriteStall,
                   obs::CurrentTraceId(), write_stalls());
    if (!mm->StallForRebalance(deadline)) break;
    r = ApplyOnce(op, stats, &appends);
    if (r.ok() || !r.status().IsResourceExhausted()) return r;
  }
  char hint[64];
  std::snprintf(hint, sizeof(hint), "; stall budget spent, retry after %.1fs",
                budget);
  return Status::ResourceExhausted(r.status().message() + hint);
}

Result<CheckpointStats> DurableStore::Checkpoint(CheckpointMode mode) {
  std::optional<obs::ScopedTraceId> trace_scope;
  if (obs::CurrentTraceId() == 0) {
    trace_scope.emplace(obs::MintTraceId());
  }
  // The store this checkpoint stops using: the one a rebase replaces, or
  // the image-only compaction. Declared before the lock so it is released
  // after write_mu_; if no reader pins it, that frees it, and the free
  // must not block writers.
  std::shared_ptr<storage::MctStore> dropped;
  std::lock_guard lk(write_mu_);
  flight::Record(flight::Subsystem::kCheckpoint,
                 flight::Site::kCheckpointBegin, obs::CurrentTraceId(),
                 log_->durable_bytes());
  // One evaluation per checkpoint drives BOTH probe points below, so a
  // probabilistic arming rolls the dice once (err and trunc can't both
  // fire in one call) and HitCount counts each checkpoint once. A `panic`
  // action aborts here, at entry.
  const failpoint::Fault ckpt_fault = MCTDB_FAILPOINT("wal.checkpoint");
  switch (ckpt_fault) {
    case failpoint::Fault::kError:
      return Status::IoError("wal: injected checkpoint fault");
    case failpoint::Fault::kEnospc:
      // The image save would fail for lack of space. Nothing is lost —
      // the WAL keeps every record — the checkpoint just can't complete
      // until the disk drains.
      return Status::IoError(std::string("wal: checkpoint image save "
                                         "failed: ") +
                             std::strerror(ENOSPC));
    case failpoint::Fault::kEio:
      return Status::IoError(std::string("wal: checkpoint image save "
                                         "failed: ") +
                             std::strerror(EIO));
    case failpoint::Fault::kTruncate:
    case failpoint::Fault::kNone:
      break;
  }
  // Flush any straggler batch so the image and the log agree. Commit up
  // to the last BUFFERED lsn, not last_applied_: an insert that hit gap
  // saturation appended its record and then failed to apply, leaving a
  // buffered record past last_applied_ — exactly the op whose stall this
  // urgent checkpoint is resolving. The record is harmless (replay fails
  // it identically and skips), but Reset refuses a non-empty buffer.
  if (const Lsn buffered = log_->buffered_lsn(); buffered != kNoLsn) {
    MCTDB_RETURN_IF_ERROR(log_->Commit(buffered));
  }
  if (last_applied_ != kNoLsn) {
    store_->PublishVisibleLsn(last_applied_);
  }
  CheckpointStats stats;
  stats.checkpoint_lsn = last_applied_;
  stats.wal_appends = log_->appends();
  uint64_t log_bytes_before = log_->durable_bytes();
  MCTDB_ASSIGN_OR_RETURN(std::unique_ptr<storage::MctStore> compact,
                         CompactStore(*store_, options_.store));
  stats.elements = compact->num_elements();
  if (!path_.empty()) {
    // The image must be DURABLE before the log is trimmed: fsync the tmp
    // file's bytes, rename, fsync the directory so the rename itself is
    // on disk. Otherwise Reset's durable WAL truncation could reach disk
    // ahead of the image's data blocks, and a power loss would leave a
    // torn image with no log left to rebuild it — replay only covers
    // crash-before-trim, never unsynced-image-after-trim.
    std::string tmp = path_ + ".ckpt.tmp";
    Status saved = storage::SaveStore(*compact, tmp, /*sync=*/true);
    if (!saved.ok()) {
      std::remove(tmp.c_str());
      return saved;
    }
    if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
      std::remove(tmp.c_str());
      return Status::IoError("wal: checkpoint rename failed");
    }
    MCTDB_RETURN_IF_ERROR(storage::SyncParentDir(path_));
  }
  if (ckpt_fault == failpoint::Fault::kTruncate) {
    // Crash window probe: image committed, log not trimmed. Recovery will
    // skip the now-redundant records idempotently.
    return Status::IoError("wal: injected post-image checkpoint fault");
  }
  MCTDB_RETURN_IF_ERROR(log_->Reset(stats.checkpoint_lsn));
  stats.log_bytes_trimmed = log_bytes_before - log_->durable_bytes();
  if (mode == CheckpointMode::kRebaseLive) {
    // The interval-label rebalance: swap the live store to the compacted
    // image, whose StoreBuilder pass relabeled every color with fresh
    // stride gaps. Readers that pinned the old store finish on an
    // immutable snapshot; correctness argument in DESIGN.md §17.
    compact->EnableVersioning();
    if (stats.checkpoint_lsn != kNoLsn) {
      compact->PublishVisibleLsn(stats.checkpoint_lsn);
    }
    {
      std::lock_guard pin(pin_mu_);
      live_store_.store(compact.get(), std::memory_order_release);
      dropped = std::exchange(store_, std::move(compact));
    }
    min_free_gap_.store(UINT32_MAX, std::memory_order_relaxed);
    rebases_.fetch_add(1, std::memory_order_relaxed);
    stats.rebased = true;
  } else {
    dropped = std::move(compact);
  }
  flight::Record(flight::Subsystem::kCheckpoint,
                 flight::Site::kCheckpointEnd, obs::CurrentTraceId(),
                 stats.checkpoint_lsn == kNoLsn ? 0 : stats.checkpoint_lsn);
  return stats;
}

Status DurableStore::TryExitReadOnly() {
  std::lock_guard lk(write_mu_);
  if (!log_->degraded()) return Status::OK();
  MCTDB_RETURN_IF_ERROR(log_->Reprobe());
  // The parked batch is durable now; everything applied in memory while
  // the disk was full can finally become visible to new snapshots.
  if (last_applied_ != kNoLsn && log_->durable_lsn() >= last_applied_) {
    store_->PublishVisibleLsn(last_applied_);
  }
  readonly_announced_.store(false, std::memory_order_relaxed);
  flight::Record(flight::Subsystem::kWal, flight::Site::kReadOnlyExit,
                 obs::CurrentTraceId(),
                 log_->durable_lsn() == kNoLsn ? 0 : log_->durable_lsn());
  return Status::OK();
}

}  // namespace mctdb::wal
