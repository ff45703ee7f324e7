// LogWriter: appends checksummed, LSN-stamped records to the write-ahead
// log with GROUP COMMIT (DESIGN.md §13).
//
// Append is cheap: it assigns the next LSN and copies the encoded record
// into an in-memory batch under a short mutex — no I/O. Commit(lsn) makes
// everything up to `lsn` durable: the first committer becomes the LEADER,
// steals the whole batch, writes it and issues ONE fsync while later
// committers park on a condition variable; when the leader publishes the
// new durable LSN the parked writers find their records already covered
// and return without ever touching the disk. N concurrent writers
// therefore cost far fewer than N fsyncs — the group-commit win the
// tests/wal_log_test batching test pins down.
//
// Failure model (DESIGN.md §17): an I/O error during append or sync flips
// the writer into DEGRADED mode — every later Append/Commit refuses with
// Unavailable, the durable LSN stays wherever the last successful fsync
// left it, and readers keep their consistent view (visible_lsn never
// advances past durability). Degradation comes in two kinds:
//
//   kSpace (errno == ENOSPC): the device is FULL, not broken. The leader
//     RE-STASHES the failed batch at the front of the append buffer, so
//     the buffered record stream stays contiguous with the durable file.
//     Reprobe() — called by the maintenance re-probe timer once space may
//     have recovered — truncates any torn tail back to the durable prefix,
//     replays the parked batch through one write+fsync, and on success
//     clears the degradation. An op whose Commit hit ENOSPC got
//     Unavailable, but its record is parked: like a client timeout, the
//     outcome is indeterminate until the probe either makes it durable
//     (the store then publishes it) or the store is reopened (recovery
//     truncates it). Acknowledged ops are never lost either way.
//
//   kHard (EIO, short writes, anything else): the media may be lying; the
//     failed batch is dropped and the writer refuses everything until the
//     store is reopened. Recovery on next open truncates whatever torn
//     tail the failure left behind.
//
// Failpoints (DESIGN.md §12 catalog):
//   wal.append  err    -> the append fails cleanly (nothing buffered)
//               trunc  -> half the record's bytes reach the OS (a torn tail
//                         recovery must cut); writer degrades (kHard)
//               enospc -> clean refusal with the errno-faithful ENOSPC
//                         status; writer degrades kSpace (re-probeable)
//               eio    -> clean refusal, errno-faithful EIO; kHard
//   wal.fsync   err    -> the batch write/fsync fails; writer degrades kHard
//               trunc  -> half the batch reaches the OS, then the sync
//                         fails; kHard (torn tail on disk)
//               enospc -> the sync fails as a real full disk would: batch
//                         parked, writer degrades kSpace
//               eio    -> the sync fails with EIO; batch dropped, kHard
//
// An empty path runs the log IN MEMORY: appends, group commit, LSNs and
// counters all behave identically but bytes go to a string — the workload
// runner uses this for ephemeral stores so update benchmarks exercise the
// real write path without a filesystem.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/lsn.h"
#include "common/result.h"
#include "wal/wal_format.h"

namespace mctdb::wal {

/// How broken the writer is. kSpace is the recoverable out-of-disk state
/// (Reprobe can clear it); kHard requires a reopen.
enum class DegradeKind { kNone = 0, kSpace, kHard };

class LogWriter {
 public:
  /// Opens (or creates) the log at `path`. A missing/empty file gets a
  /// fresh fsynced header. A non-empty file is trusted as already
  /// recovered (RecoverLog truncated the torn tail) and is appended to;
  /// `durable_lsn` must be the last replayed LSN. Empty `path` = in-memory.
  static Result<std::unique_ptr<LogWriter>> Open(const std::string& path,
                                                 uint64_t fingerprint,
                                                 Lsn checkpoint_lsn,
                                                 Lsn durable_lsn);
  ~LogWriter();

  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  /// Assigns the next LSN and buffers the record. No I/O on success.
  Result<Lsn> Append(RecordType type, std::string_view payload);

  /// Blocks until every record with LSN <= `lsn` is durable (one fsync per
  /// batch, shared across concurrent committers). Unavailable once
  /// degraded. With `led`, reports whether this call wrote and fsynced the
  /// batch itself (false when another committer's sync covered `lsn`).
  Status Commit(Lsn lsn, bool* led = nullptr);

  /// Truncates the log to a fresh header recording `checkpoint_lsn`. The
  /// caller must have quiesced appends (DurableStore holds its write mutex
  /// across checkpoints).
  Status Reset(Lsn checkpoint_lsn);

  /// Attempts to exit kSpace degradation: truncates any torn tail back to
  /// the durable prefix, rewrites the parked batch, fsyncs. On success the
  /// parked records become durable (durable_lsn advances over them) and the
  /// writer accepts appends again. Returns the write/sync error (and stays
  /// degraded) while the disk is still full; kHard degradation is never
  /// cleared here. OK and a no-op when not degraded.
  Status Reprobe();

  Lsn durable_lsn() const { return durable_lsn_.load(std::memory_order_acquire); }
  /// Highest LSN ever appended, durable or still buffered. An aborted
  /// update (append succeeded, apply failed) leaves its record buffered
  /// past the last APPLIED lsn — checkpoints must commit up to here, not
  /// to last_applied_, before Reset.
  Lsn buffered_lsn() const {
    std::lock_guard lk(append_mu_);
    return last_buffered_;
  }
  DegradeKind degrade_kind() const {
    return degrade_.load(std::memory_order_acquire);
  }
  bool degraded() const { return degrade_kind() != DegradeKind::kNone; }
  /// errno of the most recent real or injected I/O failure (0 = none).
  int last_errno() const { return last_errno_.load(std::memory_order_relaxed); }
  uint64_t appends() const { return appends_.load(std::memory_order_relaxed); }
  uint64_t fsyncs() const { return fsyncs_.load(std::memory_order_relaxed); }
  /// Bytes of durable log (header included); the checkpoint trigger.
  uint64_t durable_bytes() const {
    return durable_bytes_.load(std::memory_order_relaxed);
  }
  /// Records appended but not yet stolen by a group-commit leader — the
  /// in-flight WAL batch /statusz reports. Approximate by design (no lock).
  uint64_t pending_records() const {
    return pending_records_.load(std::memory_order_relaxed);
  }
  uint64_t pending_bytes() const {
    return pending_bytes_.load(std::memory_order_relaxed);
  }
  bool in_memory() const { return fd_ < 0; }
  /// In-memory mode only: the accumulated log bytes, for tests.
  const std::string& memory_log() const { return mem_; }

 private:
  LogWriter() = default;

  /// Writes `batch` at the durable tail and fsyncs. Called by one leader
  /// at a time (sync_in_progress_).
  Status WriteAndSync(const std::string& batch);
  Status WriteRaw(const char* data, size_t n);
  /// Maps the most recent failure errno to a degradation kind and records
  /// it. ENOSPC -> kSpace (never downgrades an existing kHard).
  void DegradeFromErrno();

  int fd_ = -1;
  std::string mem_;  // in-memory sink when fd_ < 0
  uint64_t fingerprint_ = 0;

  mutable std::mutex append_mu_;  // guards buffer_, next_lsn_, last_buffered_
  std::string buffer_;
  Lsn next_lsn_ = 1;
  Lsn last_buffered_ = kNoLsn;

  std::mutex commit_mu_;          // guards sync_in_progress_ + cv waits
  std::condition_variable commit_cv_;
  bool sync_in_progress_ = false;

  std::atomic<Lsn> durable_lsn_{kNoLsn};
  std::atomic<DegradeKind> degrade_{DegradeKind::kNone};
  std::atomic<int> last_errno_{0};
  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> durable_bytes_{0};
  std::atomic<uint64_t> pending_records_{0};  // mirrors buffer_ contents
  std::atomic<uint64_t> pending_bytes_{0};
};

}  // namespace mctdb::wal
