// DurableStore: an MctStore opened for writing, fronted by the WAL
// (DESIGN.md §13). This is the tentpole seam tying the write path
// together:
//
//   Apply(op):
//     0. verify the op once, outside the write mutex (analysis::VerifyUpdate,
//        PLN011/PLN012): a refused op never reaches the log, and a stalled
//        retry (below) does not verify again;
//     1. lock the write mutex (one applier mutates at a time);
//     2. LogWriter::Append — the redo record exists BEFORE any page or
//        delta is dirtied (write-ahead rule); a failed append is a clean
//        abort;
//     3. storage::ApplyUpdateOp — the short exclusive delta mutation;
//     4. unlock, LogWriter::Commit(lsn) — GROUP fsync shared with
//        concurrent appliers;
//     5. PublishVisibleLsn(lsn) — only now do NEW reader snapshots see the
//        op. Readers that took their snapshot earlier keep a consistent
//        pre-commit view and never block (COW keyed by LSN).
//
//   When a MaintenanceManager is attached (wal/maintenance.h), an insert
//   that exhausts its interval-label gap does not surface
//   ResourceExhausted immediately: Apply STALLS behind an urgent
//   gap-pressure checkpoint (which rebalances labels) and retries, up to
//   the manager's max_stall budget — only then does the caller see
//   ResourceExhausted, with a retry-after hint (DESIGN.md §17).
//
//   Open(path): load the checkpoint image, EnableVersioning, replay the
//   log's valid prefix (each record verified before it is applied),
//   truncate the torn tail (wal/recovery.h).
//
//   Checkpoint(mode): fold deltas into a fresh compact image, atomically
//   rename it over the store file, trim the log (wal/checkpoint.h).
//     kImageOnly (the default, and the historical behavior): the LIVE
//       in-memory store keeps serving base+deltas — compaction only
//       changes what the next open loads, so concurrent readers are never
//       invalidated, but saturated label gaps stay saturated until a
//       reopen.
//     kRebaseLive: additionally SWAPS the live store to the compacted
//       image — the interval-label REBALANCE. The compacted store carries
//       fresh stride gaps (StoreBuilder relabels every color), so inserts
//       that were ResourceExhausted succeed afterwards. The live store is
//       shared-owned: a reader that can race a rebase pins the store it
//       reads (PinStore) and finishes its queries against an immutable,
//       still-consistent snapshot, while new readers resolve the rebased
//       store at the checkpoint LSN. The replaced store is freed when its
//       last pin is released; the checkpoint drops its own reference only
//       after releasing the write mutex. Callers holding raw
//       MctStore*/pager pointers across checkpoints (the query service's
//       buffer pools) must pin and refresh them — the query service
//       compares store() with the store its view pins on every request.
//
//   Degraded modes: a WAL that can no longer append or fsync makes the
//   store refuse writes with Unavailable while reads keep serving at the
//   last published visible_lsn. Out-of-space degradation (ENOSPC) is
//   READ-ONLY mode: sticky until TryExitReadOnly() — called by the
//   maintenance re-probe timer — finds the disk writable again, flushes
//   the parked WAL batch and republishes. Hard faults require a reopen.
//
// Failpoint "wal.checkpoint": err -> clean failure before anything is
// written; trunc -> the image is committed but the log is NOT trimmed,
// exercising recovery's idempotent-replay window; enospc/eio -> the
// image save fails with the errno-faithful status (no degradation — the
// WAL still has every record, so nothing is lost; the checkpoint is
// simply retried later).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/lsn.h"
#include "obs/exec_stats.h"
#include "common/result.h"
#include "storage/store.h"
#include "storage/update_ops.h"
#include "wal/checkpoint.h"
#include "wal/log_writer.h"
#include "wal/recovery.h"

namespace mctdb::wal {

class MaintenanceManager;

struct DurableStoreOptions {
  storage::StoreOptions store;
};

/// What Checkpoint does with the live in-memory store (class comment).
enum class CheckpointMode {
  kImageOnly = 0,  ///< compact to disk only; live store untouched
  kRebaseLive,     ///< also swap the live store to the compacted image
};

class DurableStore {
 public:
  using Options = DurableStoreOptions;

  /// Opens the store saved at `path` (its log lives at "<path>.wal"),
  /// running crash recovery. `schema` must outlive the result.
  static Result<std::unique_ptr<DurableStore>> Open(
      const mct::MctSchema& schema, const std::string& path,
      const Options& options = {});

  /// Saves a freshly built store to `path` and opens it with an empty log.
  /// Any stale log at "<path>.wal" is discarded.
  static Result<std::unique_ptr<DurableStore>> Create(
      std::unique_ptr<storage::MctStore> store, const std::string& path,
      const Options& options = {});

  /// A durable store with an in-memory log: the full write path (append,
  /// group commit, snapshots) without a filesystem. Used by the workload
  /// runner's update measurements.
  static Result<std::unique_ptr<DurableStore>> Ephemeral(
      std::unique_ptr<storage::MctStore> store,
      const Options& options = {});

  /// The live store, by a lock-free load. Readers take its visible_lsn()
  /// as their snapshot and pass it to the versioned accessors /
  /// MergedPostingCursor. The pointer is valid only until the next
  /// kRebaseLive checkpoint, which swaps it and may free the store it
  /// replaced: use it only where no checkpoint can run concurrently
  /// (tests, `mctc`, a benchmark after its service stopped). A reader that
  /// can race a rebase takes PinStore() instead.
  storage::MctStore* store() const {
    return live_store_.load(std::memory_order_acquire);
  }
  /// The live store, shared: it stays alive while the returned pointer
  /// does, across any number of rebases. Takes a small mutex; pin once per
  /// view, not once per query.
  std::shared_ptr<storage::MctStore> PinStore() const {
    std::lock_guard lk(pin_mu_);
    return store_;
  }
  /// The schema every store of this durable store is built on (it
  /// outlives the durable store, see Open).
  const mct::MctSchema& schema() const { return *schema_; }
  /// Snapshot new readers should use (last durable LSN).
  Lsn snapshot() const {
    std::lock_guard lk(pin_mu_);
    return store_->visible_lsn();
  }

  struct ApplyReceipt {
    Lsn lsn = kNoLsn;
    storage::ApplyStats stats;
    /// Records this call appended: 1, plus one per stalled retry.
    uint64_t wal_appends = 0;
    /// 1 when this call led its batch's fsync, 0 when another committer's
    /// (or a checkpoint's) sync covered its record.
    uint64_t wal_fsyncs = 0;
  };
  /// Durably applies one update op (see class comment). Thread-safe;
  /// concurrent callers share fsyncs. InvalidArgument carries the
  /// verifier's diagnostic text. With `stats`, the append/commit
  /// work lands in kWal spans and the delta mutation in a kUpdate span,
  /// so `mctc trace` shows where an update's time went. With a
  /// maintenance manager attached, gap saturation stalls behind a
  /// rebalancing checkpoint instead of failing (bounded by max_stall).
  Result<ApplyReceipt> Apply(const storage::UpdateOp& op,
                             obs::ExecStats* stats = nullptr);

  Result<CheckpointStats> Checkpoint(
      CheckpointMode mode = CheckpointMode::kImageOnly);

  /// True while the WAL is out of disk space: writes refuse with
  /// Unavailable, reads keep serving at the last published visible_lsn.
  bool read_only() const {
    return log_->degrade_kind() == DegradeKind::kSpace;
  }
  /// Attempts to leave read-only mode: re-probes the WAL (truncate the
  /// torn tail, flush the parked batch, fsync) and, on success, publishes
  /// everything that was applied in memory but stuck behind the full
  /// disk. Returns the probe error while the disk is still full;
  /// Unavailable for hard degradation (reopen required). Called by the
  /// maintenance re-probe timer; safe to call manually.
  Status TryExitReadOnly();

  /// The maintenance manager registers itself here (and deregisters on
  /// destruction). It must outlive every concurrent Apply.
  void AttachMaintenance(MaintenanceManager* mm) {
    maintenance_.store(mm, std::memory_order_release);
  }
  MaintenanceManager* maintenance() const {
    return maintenance_.load(std::memory_order_acquire);
  }

  const RecoveryStats& recovery() const { return recovery_; }
  const LogWriter& log() const { return *log_; }
  uint64_t wal_appends() const { return log_->appends(); }
  uint64_t wal_fsyncs() const { return log_->fsyncs(); }
  uint64_t wal_bytes() const { return log_->durable_bytes(); }
  bool degraded() const { return log_->degraded(); }
  const std::string& path() const { return path_; }
  const Options& options() const { return options_; }

  /// Times a writer blocked behind an urgent rebalancing checkpoint.
  uint64_t write_stalls() const {
    return write_stalls_.load(std::memory_order_relaxed);
  }
  /// Inserts that hit interval-label gap saturation (before any retry).
  uint64_t saturation_events() const {
    return saturation_events_.load(std::memory_order_relaxed);
  }
  /// kRebaseLive checkpoints completed (live label rebalances).
  uint64_t rebases() const {
    return rebases_.load(std::memory_order_relaxed);
  }
  /// Low-water mark of ApplyStats::min_free_gap since the last rebase —
  /// the maintenance gap-pressure trigger. UINT32_MAX = no pressure seen.
  uint32_t min_free_gap_low_water() const {
    return min_free_gap_.load(std::memory_order_relaxed);
  }

  /// "<path>.wal" — the log location convention.
  static std::string WalPath(const std::string& store_path) {
    return store_path + ".wal";
  }

 private:
  DurableStore() = default;

  /// One attempt of the Apply protocol (steps 1..5 of the class comment)
  /// on a verified op; bumps `*appends` once its record is appended.
  Result<ApplyReceipt> ApplyOnce(const storage::UpdateOp& op,
                                 obs::ExecStats* stats, uint64_t* appends);

  /// Sets store_, live_store_ and schema_ from a freshly opened store.
  void Install(std::unique_ptr<storage::MctStore> store);

  std::string path_;  // empty = ephemeral
  Options options_;
  const mct::MctSchema* schema_ = nullptr;
  /// The live store, shared with every reader that pinned it. Written
  /// (by a kRebaseLive checkpoint) under both write_mu_ and pin_mu_, so
  /// either one makes reading it safe.
  std::shared_ptr<storage::MctStore> store_;
  mutable std::mutex pin_mu_;
  std::atomic<storage::MctStore*> live_store_{nullptr};  // store_.get()
  std::unique_ptr<LogWriter> log_;
  RecoveryStats recovery_;
  std::atomic<MaintenanceManager*> maintenance_{nullptr};

  std::mutex write_mu_;       // serializes Apply bodies and Checkpoint
  Lsn last_applied_ = kNoLsn;  // guarded by write_mu_

  std::atomic<uint64_t> write_stalls_{0};
  std::atomic<uint64_t> saturation_events_{0};
  std::atomic<uint64_t> rebases_{0};
  std::atomic<uint32_t> min_free_gap_{UINT32_MAX};
  std::atomic<bool> readonly_announced_{false};  // one Enter event per episode
};

}  // namespace mctdb::wal
