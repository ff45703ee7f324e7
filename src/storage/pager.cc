#include "storage/pager.h"

#include <cerrno>
#include <cstring>
#include <string>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/log.h"
#include "common/logging.h"

namespace mctdb::storage {

PageId Pager::Append(const char* data) {
  auto page = std::make_unique_for_overwrite<char[]>(kPageSize);
  std::memcpy(page.get(), data, kPageSize);
  checksums_.push_back(PageChecksum(page.get(), kPageSize));
  pages_.push_back(std::move(page));
  disk_writes_.fetch_add(1, std::memory_order_relaxed);
  return static_cast<PageId>(pages_.size() - 1);
}

void Pager::SetReadHook(std::function<void(PageId)> hook) {
  MCTDB_CHECK_MSG(reads_in_flight_.load(std::memory_order_acquire) == 0,
                  "SetReadHook while a Read is in flight: install hooks "
                  "before starting reader threads");
  read_hook_ = std::move(hook);
}

void Pager::SetRetryPolicy(const RetryPolicy& policy) {
  MCTDB_CHECK_MSG(reads_in_flight_.load(std::memory_order_acquire) == 0,
                  "SetRetryPolicy while a Read is in flight");
  retry_policy_ = policy;
}

void Pager::CorruptForTest(PageId id, size_t offset) {
  MCTDB_CHECK(id < pages_.size());
  pages_[id].get()[offset % kPageSize] ^= 0x5A;
}

void Pager::RepairForTest(PageId id) {
  MCTDB_CHECK(id < pages_.size());
  checksums_[id] = PageChecksum(pages_[id].get(), kPageSize);
}

Status Pager::ReadAttempt(PageId id, char* out) const {
  if (read_hook_) read_hook_(id);
  switch (MCTDB_FAILPOINT("pager.read")) {
    case failpoint::Fault::kError:
      // "The read transferred bad bytes": deliver a corrupted copy so the
      // checksum verification — the real defense — reports the fault.
      std::memcpy(out, pages_[id].get(), kPageSize);
      out[id % kPageSize] ^= 0x5A;
      break;
    case failpoint::Fault::kTruncate:
      // Short read: only the first half arrives; the tail reads as zeros.
      std::memcpy(out, pages_[id].get(), kPageSize / 2);
      std::memset(out + kPageSize / 2, 0, kPageSize / 2);
      break;
    case failpoint::Fault::kEnospc:
    case failpoint::Fault::kEio:
      // The read itself errors out (errno-faithful media fault): no bytes
      // transferred, no checksum involved.
      return Status::IoError("page " + std::to_string(id) +
                             " read failed: " + std::strerror(EIO));
    case failpoint::Fault::kNone:
      std::memcpy(out, pages_[id].get(), kPageSize);
      break;
  }
  if (PageChecksum(out, kPageSize) != checksums_[id]) {
    checksum_failures_.fetch_add(1, std::memory_order_relaxed);
    return Status::DataLoss("page " + std::to_string(id) +
                            " failed checksum verification");
  }
  return Status::OK();
}

Status Pager::Read(PageId id, char* out) const {
  MCTDB_CHECK(id < pages_.size());
  reads_in_flight_.fetch_add(1, std::memory_order_acq_rel);
  disk_reads_.fetch_add(1, std::memory_order_relaxed);
  uint64_t extra_attempts = 0;
  Status s = RetryWithBackoff(
      retry_policy_, [&] { return ReadAttempt(id, out); }, &extra_attempts);
  if (extra_attempts > 0) {
    retries_.fetch_add(extra_attempts, std::memory_order_relaxed);
  }
  if (!s.ok()) {
    MCTDB_LOG(kWarn, "pager", "read failed after retries",
              {{"page", uint64_t{id}},
               {"attempts", extra_attempts + 1},
               {"status", s.ToString()}});
  }
  reads_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  return s;
}

}  // namespace mctdb::storage
