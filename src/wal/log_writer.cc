#include "wal/log_writer.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/failpoint.h"
#include "obs/flight_recorder.h"
#include "obs/trace_id.h"

namespace mctdb::wal {

namespace flight = obs::flight;

namespace {

Status UnavailableForKind(DegradeKind kind) {
  return kind == DegradeKind::kSpace
             ? Status::Unavailable(
                   "wal: no space left on device; writes paused until space "
                   "recovers")
             : Status::Unavailable("wal: writer degraded, reopen to recover");
}

}  // namespace

Result<std::unique_ptr<LogWriter>> LogWriter::Open(const std::string& path,
                                                   uint64_t fingerprint,
                                                   Lsn checkpoint_lsn,
                                                   Lsn durable_lsn) {
  std::unique_ptr<LogWriter> w(new LogWriter());
  w->fingerprint_ = fingerprint;
  w->durable_lsn_.store(durable_lsn);
  w->next_lsn_ = durable_lsn + 1;
  if (path.empty()) {
    WalHeader h{fingerprint, checkpoint_lsn};
    EncodeWalHeader(h, &w->mem_);
    w->durable_bytes_.store(w->mem_.size());
    return w;
  }
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IoError("wal: open failed: " + path + ": " +
                           std::strerror(errno));
  }
  w->fd_ = fd;
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return Status::IoError("wal: fstat failed: " + path);
  }
  if (st.st_size == 0) {
    std::string header;
    EncodeWalHeader({fingerprint, checkpoint_lsn}, &header);
    Status s = w->WriteRaw(header.data(), header.size());
    if (s.ok() && ::fsync(fd) != 0) {
      s = Status::IoError("wal: header fsync failed");
    }
    MCTDB_RETURN_IF_ERROR(s);
    w->durable_bytes_.store(header.size());
  } else {
    // Recovered log: append after the (already truncated) valid prefix.
    if (::lseek(fd, 0, SEEK_END) < 0) {
      return Status::IoError("wal: seek failed: " + path);
    }
    w->durable_bytes_.store(static_cast<uint64_t>(st.st_size));
  }
  return w;
}

LogWriter::~LogWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status LogWriter::WriteRaw(const char* data, size_t n) {
  if (fd_ < 0) {
    mem_.append(data, n);
    return Status::OK();
  }
  size_t off = 0;
  while (off < n) {
    ssize_t w = ::write(fd_, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      last_errno_.store(errno, std::memory_order_relaxed);
      return Status::IoError(std::string("wal: write failed: ") +
                             std::strerror(errno));
    }
    off += static_cast<size_t>(w);
  }
  return Status::OK();
}

void LogWriter::DegradeFromErrno() {
  DegradeKind next = last_errno_.load(std::memory_order_relaxed) == ENOSPC
                         ? DegradeKind::kSpace
                         : DegradeKind::kHard;
  // kHard is terminal: a later ENOSPC never downgrades it back to the
  // re-probeable state.
  if (degrade_.load(std::memory_order_relaxed) == DegradeKind::kHard) return;
  degrade_.store(next, std::memory_order_release);
}

Result<Lsn> LogWriter::Append(RecordType type, std::string_view payload) {
  std::lock_guard lk(append_mu_);
  if (degraded()) {
    return UnavailableForKind(degrade_kind());
  }
  switch (MCTDB_FAILPOINT("wal.append")) {
    case failpoint::Fault::kError:
      // Clean abort: the record never reached the buffer; the store is
      // untouched and later appends continue normally.
      return Status::IoError("wal: injected append fault");
    case failpoint::Fault::kEnospc:
      // The disk filled before this record could be reserved: a clean,
      // errno-faithful refusal. Nothing is buffered, so the writer enters
      // the recoverable kSpace state — Reprobe clears it once the
      // failpoint (or the real disk) relents.
      last_errno_.store(ENOSPC, std::memory_order_relaxed);
      DegradeFromErrno();
      return Status::IoError(std::string("wal: write failed: ") +
                             std::strerror(ENOSPC));
    case failpoint::Fault::kEio:
      // Media error on append: clean abort but the device can't be
      // trusted — sticky hard degradation, reopen required.
      last_errno_.store(EIO, std::memory_order_relaxed);
      DegradeFromErrno();
      return Status::IoError(std::string("wal: write failed: ") +
                             std::strerror(EIO));
    case failpoint::Fault::kTruncate: {
      // Torn append: half the encoded record reaches the OS (ahead of an
      // fsync it will never get). Recovery cuts this tail; the writer
      // degrades because its buffered stream is no longer contiguous
      // with the file.
      std::string rec;
      EncodeWalRecord(next_lsn_, type, payload, &rec);
      {
        // The injected bytes share the fd with group-commit leaders,
        // which run WriteAndSync without append_mu_. Holding commit_mu_
        // blocks a new leader from starting; if a sync is already in
        // flight we skip the file write entirely rather than interleave
        // torn bytes into the middle of its batch (the writer still
        // degrades either way, which is the fault being modeled).
        std::unique_lock clk(commit_mu_);
        if (!sync_in_progress_) {
          (void)WriteRaw(rec.data(), rec.size() / 2);
        }
      }
      last_errno_.store(0, std::memory_order_relaxed);
      degrade_.store(DegradeKind::kHard, std::memory_order_release);
      return Status::IoError("wal: injected torn append");
    }
    case failpoint::Fault::kNone:
      break;
  }
  Lsn lsn = next_lsn_++;
  EncodeWalRecord(lsn, type, payload, &buffer_);
  last_buffered_ = lsn;
  appends_.fetch_add(1, std::memory_order_relaxed);
  pending_records_.fetch_add(1, std::memory_order_relaxed);
  pending_bytes_.store(buffer_.size(), std::memory_order_relaxed);
  flight::Record(flight::Subsystem::kWal, flight::Site::kWalAppend,
                 obs::CurrentTraceId(), lsn);
  return lsn;
}

Status LogWriter::WriteAndSync(const std::string& batch) {
  switch (MCTDB_FAILPOINT("wal.fsync")) {
    case failpoint::Fault::kError:
      last_errno_.store(0, std::memory_order_relaxed);
      return Status::IoError("wal: injected fsync fault");
    case failpoint::Fault::kEnospc:
      // The batch write fails exactly as a full disk would: nothing of
      // the batch is on stable storage, errno says ENOSPC. The caller
      // parks the batch for Reprobe.
      last_errno_.store(ENOSPC, std::memory_order_relaxed);
      return Status::IoError(std::string("wal: write failed: ") +
                             std::strerror(ENOSPC));
    case failpoint::Fault::kEio:
      last_errno_.store(EIO, std::memory_order_relaxed);
      return Status::IoError(std::string("wal: fsync failed: ") +
                             std::strerror(EIO));
    case failpoint::Fault::kTruncate:
      // Half the batch lands before the failure: a torn multi-record tail.
      (void)WriteRaw(batch.data(), batch.size() / 2);
      last_errno_.store(0, std::memory_order_relaxed);
      return Status::IoError("wal: injected torn batch write");
    case failpoint::Fault::kNone:
      break;
  }
  MCTDB_RETURN_IF_ERROR(WriteRaw(batch.data(), batch.size()));
  if (fd_ >= 0 && ::fsync(fd_) != 0) {
    last_errno_.store(errno, std::memory_order_relaxed);
    return Status::IoError(std::string("wal: fsync failed: ") +
                           std::strerror(errno));
  }
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  durable_bytes_.fetch_add(batch.size(), std::memory_order_relaxed);
  return Status::OK();
}

Status LogWriter::Commit(Lsn lsn, bool* led) {
  if (led != nullptr) *led = false;
  std::unique_lock lk(commit_mu_);
  while (durable_lsn_.load(std::memory_order_acquire) < lsn) {
    if (degraded()) {
      return UnavailableForKind(degrade_kind());
    }
    if (sync_in_progress_) {
      // A leader's fsync is in flight; it may already cover our LSN.
      commit_cv_.wait(lk);
      continue;
    }
    // Become the leader: steal the whole batch, sync once for everyone.
    sync_in_progress_ = true;
    lk.unlock();
    std::string batch;
    Lsn batch_lsn;
    uint64_t batch_records = 0;
    {
      std::lock_guard alk(append_mu_);
      batch.swap(buffer_);
      batch_lsn = last_buffered_;
      batch_records = pending_records_.exchange(0, std::memory_order_relaxed);
      pending_bytes_.store(0, std::memory_order_relaxed);
    }
    Status s = Status::OK();
    if (!batch.empty()) {
      s = WriteAndSync(batch);
      if (led != nullptr) *led = s.ok();
    } else if (batch_lsn < lsn) {
      s = Status::Internal("wal: Commit for an LSN never appended");
    }
    if (!s.ok()) {
      // Degrade FIRST so appenders start refusing, then decide the batch's
      // fate. Out of space (kSpace): nothing of the batch is trusted on
      // disk, so re-stash it at the FRONT of the buffer — records appended
      // while our sync was in flight sort after it, keeping the buffered
      // stream contiguous with the durable prefix for Reprobe to flush.
      // Hard faults (and the never-appended Internal error) drop the
      // batch; only a reopen (recovery truncates the torn tail) can
      // resume.
      if (batch.empty()) {
        degrade_.store(DegradeKind::kHard, std::memory_order_release);
      } else {
        DegradeFromErrno();
        if (degrade_kind() == DegradeKind::kSpace) {
          std::lock_guard alk(append_mu_);
          buffer_.insert(0, batch);
          pending_records_.fetch_add(batch_records,
                                     std::memory_order_relaxed);
          pending_bytes_.store(buffer_.size(), std::memory_order_relaxed);
        }
      }
    }
    lk.lock();
    sync_in_progress_ = false;
    if (s.ok()) {
      Lsn prev = durable_lsn_.load(std::memory_order_relaxed);
      if (batch_lsn > prev) {
        durable_lsn_.store(batch_lsn, std::memory_order_release);
      }
      // One event per physical fsync, tagged with the leader's trace and
      // the batch's high LSN — the causal join point where piggybacked
      // requests' durability rides another trace's sync.
      flight::Record(flight::Subsystem::kWal, flight::Site::kWalFsync,
                     obs::CurrentTraceId(), batch_lsn);
    }
    commit_cv_.notify_all();
    MCTDB_RETURN_IF_ERROR(s);
  }
  return Status::OK();
}

Status LogWriter::Reprobe() {
  std::unique_lock lk(commit_mu_);
  while (sync_in_progress_) {
    commit_cv_.wait(lk);
  }
  const DegradeKind kind = degrade_kind();
  if (kind == DegradeKind::kNone) return Status::OK();
  if (kind == DegradeKind::kHard) {
    return UnavailableForKind(kind);
  }
  sync_in_progress_ = true;
  lk.unlock();
  std::string batch;
  Lsn batch_lsn;
  uint64_t batch_records = 0;
  {
    // Appends refuse while degraded, so the buffer is exactly the parked
    // batch (plus any records that slipped in before the degrade flag was
    // visible — still contiguous).
    std::lock_guard alk(append_mu_);
    batch.swap(buffer_);
    batch_lsn = last_buffered_;
    batch_records = pending_records_.exchange(0, std::memory_order_relaxed);
    pending_bytes_.store(0, std::memory_order_relaxed);
  }
  // Cut whatever torn tail the failed write left past the durable prefix,
  // so a successful probe resumes a contiguous log.
  Status s = Status::OK();
  const auto durable = static_cast<off_t>(durable_bytes_.load());
  if (fd_ >= 0) {
    if (::ftruncate(fd_, durable) != 0 ||
        ::lseek(fd_, durable, SEEK_SET) < 0) {
      last_errno_.store(errno, std::memory_order_relaxed);
      s = Status::IoError(std::string("wal: reprobe truncate failed: ") +
                          std::strerror(errno));
    }
  } else {
    mem_.resize(static_cast<size_t>(durable));
  }
  if (s.ok()) {
    // Replays the parked records through the normal write+fsync path; a
    // still-armed wal.fsync failpoint (or a still-full disk) fails here
    // and keeps the writer degraded. An empty batch still fsyncs: the
    // probe is a real I/O question, not a flag flip.
    s = WriteAndSync(batch);
  }
  if (!s.ok()) {
    DegradeFromErrno();
    if (degrade_kind() == DegradeKind::kSpace) {
      std::lock_guard alk(append_mu_);
      buffer_.insert(0, batch);
      pending_records_.fetch_add(batch_records, std::memory_order_relaxed);
      pending_bytes_.store(buffer_.size(), std::memory_order_relaxed);
    }
  }
  lk.lock();
  sync_in_progress_ = false;
  if (s.ok()) {
    Lsn prev = durable_lsn_.load(std::memory_order_relaxed);
    if (batch_lsn != kNoLsn && batch_lsn > prev) {
      durable_lsn_.store(batch_lsn, std::memory_order_release);
    }
    flight::Record(flight::Subsystem::kWal, flight::Site::kWalFsync,
                   obs::CurrentTraceId(), batch_lsn);
    last_errno_.store(0, std::memory_order_relaxed);
    degrade_.store(DegradeKind::kNone, std::memory_order_release);
  }
  commit_cv_.notify_all();
  return s;
}

Status LogWriter::Reset(Lsn checkpoint_lsn) {
  std::scoped_lock lk(commit_mu_, append_mu_);
  if (degraded()) {
    return UnavailableForKind(degrade_kind());
  }
  if (!buffer_.empty()) {
    return Status::Internal("wal: Reset with uncommitted records buffered");
  }
  std::string header;
  EncodeWalHeader({fingerprint_, checkpoint_lsn}, &header);
  if (fd_ < 0) {
    mem_.assign(header);
  } else {
    if (::ftruncate(fd_, 0) != 0 || ::lseek(fd_, 0, SEEK_SET) < 0) {
      last_errno_.store(errno, std::memory_order_relaxed);
      degrade_.store(DegradeKind::kHard, std::memory_order_release);
      return Status::IoError("wal: log truncate failed");
    }
    MCTDB_RETURN_IF_ERROR(WriteRaw(header.data(), header.size()));
    if (::fsync(fd_) != 0) {
      last_errno_.store(errno, std::memory_order_relaxed);
      degrade_.store(DegradeKind::kHard, std::memory_order_release);
      return Status::IoError("wal: header fsync failed");
    }
  }
  durable_bytes_.store(header.size(), std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace mctdb::wal
