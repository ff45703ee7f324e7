// ShardedBufferPool: the one page cache. Every store owns a one-shard pool
// (StoreBuilder::Finish / LoadStore), and the mctsvc query service creates
// an N-shard pool per registered store. The total page budget is split
// across N independently locked LRU shards; a page's shard is fixed by
// hashing its PageId, so threads touching disjoint pages rarely contend on
// the same mutex.
//
// Fetch pins the frame: a pinned frame is never evicted (and never moves),
// so the returned pointer stays valid across other threads' fetches until
// the matching Unpin. If every frame of a shard is pinned, the shard
// temporarily grows past its budget rather than failing — correctness over
// a strict page budget — and trims back as pins are released. A reader
// that releases its page before fetching the next one (every posting
// cursor does) sees plain LRU: on one shard, the victim is the least
// recently released page.
#pragma once

#include <atomic>
#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/ordered_mutex.h"
#include "storage/pager.h"

namespace mctdb::storage {

class ShardedBufferPool {
 public:
  /// `num_shards` == 0 picks a heuristic: the smallest power of two >= 2x
  /// the hardware thread count, clamped to [1, 64] and to the capacity so
  /// every shard owns at least one page. A non-zero count is rounded up to
  /// a power of two.
  ShardedBufferPool(const Pager* pager, size_t capacity_pages,
                    size_t num_shards = 0);

  /// Points `*out_frame` at the pinned frame for `id` and sets `*out_miss`
  /// to whether this fetch went to the pager. On a non-OK Status (DataLoss
  /// after the quarantine re-read failed too) no pin is taken and
  /// *out_frame is unchanged. Every successful Fetch must be paired with
  /// one Unpin.
  ///
  /// Attribution contract: `out_miss` lets the *fetching* caller charge
  /// the I/O to itself (see obs::ExecStats). The pool-global hits()/
  /// misses() counters aggregate all callers and must never be diffed to
  /// derive a single query's cost — concurrent queries would bill each
  /// other.
  ///
  /// Thread-safe fetch. A miss reserves and pins the frame under the
  /// shard lock, then reads from the pager with the lock RELEASED (an
  /// in-flight `loading` flag makes concurrent fetchers of the same page
  /// wait on the shard's condition variable), so one slow disk read never
  /// serializes hits on other pages of the shard.
  ///
  /// Corruption quarantine: if the pager read fails verification (after
  /// the pager's own internal retries), the pool evicts the poisoned
  /// frame and re-reads once before reporting DataLoss. A frame whose
  /// load failed is never served: the loading thread marks it
  /// `load_failed`, waiters piggybacked on that load drop their pins and
  /// return the load's Status, the last pin out erases the frame, and
  /// fetchers arriving later wait for the erasure and then fault the page
  /// in fresh — so one bad read never wedges a PageId permanently.
  [[nodiscard]] Status Fetch(PageId id, const char** out_frame,
                             bool* out_miss);
  /// Test conveniences on storage known to be healthy: abort on a fetch
  /// error rather than return Status. They take a pin like the form above.
  [[nodiscard]] const char* Fetch(PageId id, bool* out_miss) {
    const char* frame = nullptr;
    Status s = Fetch(id, &frame, out_miss);
    MCTDB_CHECK_MSG(s.ok(), s.ToString().c_str());
    return frame;
  }
  [[nodiscard]] const char* Fetch(PageId id) {
    bool miss = false;
    return Fetch(id, &miss);
  }
  /// Releases one pin taken by Fetch for `id`.
  void Unpin(PageId id);

  /// hits() + misses() == total fetches.
  uint64_t hits() const;
  uint64_t misses() const;
  size_t resident() const;
  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }
  /// Loads that failed verification and were quarantined (frame evicted).
  uint64_t quarantined() const {
    return quarantined_.load(std::memory_order_relaxed);
  }

  struct ShardStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    size_t resident = 0;
  };
  std::vector<ShardStats> PerShard() const;
  void ResetStats();

 private:
  struct Frame {
    std::unique_ptr<char[]> data;
    uint32_t pins = 0;
    std::list<PageId>::iterator lru_pos;  // valid iff in_lru
    bool in_lru = false;
    /// True while the reserving thread copies the page in from the pager
    /// outside the shard lock. The frame is pinned for the duration, so
    /// it can be neither evicted nor trimmed mid-read.
    bool loading = false;
    /// Set (with `loading` cleared) when the load's pager read failed:
    /// the frame holds garbage and must never be served. Pin holders
    /// drain via ReleaseFailedLocked; the last one erases the frame.
    bool load_failed = false;
    /// The failure observed by the loading thread, handed to every waiter
    /// that piggybacked on the load. Meaningful iff load_failed.
    Status load_status;
  };
  struct Shard {
    // Leaf-rank lock: held only across frame-map operations, never across
    // pager I/O or calls back into service or session code (see
    // ordered_mutex.h).
    mutable mctdb::OrderedMutex mu{mctdb::LockRank::kPoolShard};
    std::condition_variable_any load_cv;  // signaled when a load finishes
    std::unordered_map<PageId, Frame> frames;
    std::list<PageId> lru;  // unpinned resident pages, front = most recent
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    size_t capacity = 1;
  };

  Shard& ShardFor(PageId id);
  const Shard& ShardFor(PageId id) const;
  /// Drops one pin on a load_failed frame; the last pin erases it and
  /// wakes fetchers waiting for the PageId to become loadable again.
  /// Requires the shard lock.
  static void ReleaseFailedLocked(Shard& s, PageId id, Frame& f);

  const Pager* pager_;
  size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;  // size is a power of two
  std::atomic<uint64_t> quarantined_{0};
};

}  // namespace mctdb::storage
