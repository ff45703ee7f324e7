// Page-level storage: the pager (the "disk"), modeled on the TIMBER setup
// the paper measured on (8 KB data pages behind one bounded buffer pool,
// see sharded_pool.h). Queries read posting pages strictly through the
// buffer pool, so page-miss counts and cache behavior are real, not
// simulated.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/retry.h"
#include "common/status.h"

namespace mctdb::storage {

inline constexpr size_t kPageSize = 8192;

using PageId = uint32_t;
inline constexpr PageId kInvalidPage = 0xFFFFFFFFu;

/// The backing store. Pages are appended at build and load time (single
/// threaded) and never rewritten; reads are counted as disk I/O (they are
/// served from a separate heap area and copied, so the buffer pool is the
/// only fast path) and are safe to issue from many threads concurrently.
///
/// Every Append records a 64-bit page checksum (common/hash.h PageChecksum)
/// which Read verifies after the copy; a mismatch — real corruption via
/// CorruptForTest, or an injected "pager.read" fault — is retried per the
/// retry policy and surfaces as Status::DataLoss only once the attempts
/// are exhausted. disk_reads() counts calls, not attempts; retries() and
/// checksum_failures() expose the recovery activity for /metrics.
class Pager {
 public:
  /// Appends a page holding a copy of the kPageSize bytes at `data`.
  PageId Append(const char* data);
  /// Copies a page out and verifies its checksum, retrying transient
  /// failures with backoff. Counted as one disk read regardless of
  /// attempts. Thread-safe.
  [[nodiscard]] Status Read(PageId id, char* out) const;
  /// Test/bench seam: `hook` runs at the top of every read attempt with
  /// the page id, outside any pool lock — a hook that blocks models a slow
  /// disk. Must be installed while no Read is in flight (enforced by a
  /// fatal check against the in-flight reader count); installs are not
  /// otherwise synchronized with readers, so "install, then start reader
  /// threads" is the only supported order. The "pager.read" failpoint runs
  /// through the same seam, so fault injection needs no hook races either.
  void SetReadHook(std::function<void(PageId)> hook);
  /// Raw page bytes for persistence (not counted as query I/O).
  const char* RawPage(PageId id) const { return pages_[id].get(); }

  /// Checksum recorded for `id` when it was appended.
  uint64_t PageChecksumValue(PageId id) const { return checksums_[id]; }

  /// Test seam: flip one stored byte *without* updating the recorded
  /// checksum, so every subsequent read of `id` fails verification until
  /// the page is rewritten.
  void CorruptForTest(PageId id, size_t offset);
  /// Repair seam for quarantine tests: restore the recorded checksum to
  /// match the current page bytes (as if the page had been rewritten).
  void RepairForTest(PageId id);

  /// Replaces the read retry policy (default: RetryPolicy::FromEnv()).
  /// Like SetReadHook, only valid while no Read is in flight.
  void SetRetryPolicy(const RetryPolicy& policy);

  size_t num_pages() const { return pages_.size(); }
  size_t bytes() const { return pages_.size() * kPageSize; }
  uint64_t disk_reads() const {
    return disk_reads_.load(std::memory_order_relaxed);
  }
  uint64_t disk_writes() const {
    return disk_writes_.load(std::memory_order_relaxed);
  }
  /// Reads whose checksum verification failed at least once.
  uint64_t checksum_failures() const {
    return checksum_failures_.load(std::memory_order_relaxed);
  }
  /// Extra read attempts made beyond the first, across all Reads.
  uint64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }

 private:
  /// One read attempt: hook, failpoint, copy, verify.
  Status ReadAttempt(PageId id, char* out) const;

  std::vector<std::unique_ptr<char[]>> pages_;
  std::vector<uint64_t> checksums_;
  std::function<void(PageId)> read_hook_;
  RetryPolicy retry_policy_ = RetryPolicy::FromEnv();
  mutable std::atomic<uint64_t> disk_reads_{0};
  std::atomic<uint64_t> disk_writes_{0};
  mutable std::atomic<uint64_t> checksum_failures_{0};
  mutable std::atomic<uint64_t> retries_{0};
  mutable std::atomic<int> reads_in_flight_{0};
};

}  // namespace mctdb::storage
