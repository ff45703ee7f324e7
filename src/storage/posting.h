// Posting lists of interval labels, the storage representation behind
// structural joins [Al-Khalifa et al., ICDE'02]: for each (color, element
// tag) the store keeps the tag's elements as (start, end, level) records in
// document order, packed into 8 KB pages and scanned through the buffer
// pool.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/exec_stats.h"
#include "storage/pager.h"
#include "storage/sharded_pool.h"

namespace mctdb::storage {

using ElemId = uint32_t;
inline constexpr ElemId kInvalidElem = 0xFFFFFFFFu;

/// One posting record: an element's interval label within one color.
/// 20 bytes; ~409 records per 8 KB page.
struct LabelEntry {
  ElemId elem = kInvalidElem;
  uint32_t start = 0;
  uint32_t end = 0;
  uint16_t level = 0;
  /// Set when this placement is a redundant copy (non-NN schemas); results
  /// produced through copies may need duplicate elimination.
  uint16_t is_copy = 0;
  /// Logical instance id (er-node-scoped), used for duplicate elimination.
  uint32_t logical = 0;

  /// Interval containment: is `this` a proper ancestor of `d`?
  bool Contains(const LabelEntry& d) const {
    return start < d.start && d.end < end;
  }
};
static_assert(sizeof(LabelEntry) == 20);

inline constexpr size_t kEntriesPerPage = kPageSize / sizeof(LabelEntry);

/// Per-page interval summary, the persistent posting index: the first
/// entry's start and the largest end on the page. Starts are strictly
/// increasing within one posting list (document pre-order), so the
/// summaries support both a binary-search front seek to the first
/// qualifying label and mid-scan page skips — a page whose summary proves
/// no entry can satisfy a scan's bounds is never fetched.
struct PostingPageSummary {
  uint32_t first_start = 0;
  uint32_t max_end = 0;
};

/// Qualification bounds for an index-assisted posting scan. Each bound is
/// a NECESSARY condition for an entry to participate in the structural
/// join that requested the scan, so skipping pages (or entries) that a
/// bound rules out can never change a join result:
///   * descendant candidates of a binding need start in
///     (min bound start, max bound end) — start_gt / start_lt;
///   * ancestor candidates need start < max bound start and
///     end > min bound end — start_lt / end_gt.
/// Bounds are hints at PAGE granularity: a scan may still return entries
/// that fail them (the joins ignore non-matching entries anyway).
struct ScanBounds {
  uint32_t start_gt = 0;           ///< keep entries with start > start_gt
  uint32_t start_lt = UINT32_MAX;  ///< keep entries with start < start_lt
  uint32_t end_gt = 0;             ///< keep entries with end > end_gt
};

/// Page-set descriptor of one posting list.
struct PostingMeta {
  std::vector<PageId> pages;
  size_t count = 0;
  /// One summary per page (parallel to `pages`). Built by PostingWriter
  /// and persisted in the store file's own-checksummed "postidx" section;
  /// may be empty for hand-built metas, in which case scans degrade to
  /// plain sequential reads.
  std::vector<PostingPageSummary> summaries;

  size_t num_pages() const { return pages.size(); }
  bool has_index() const { return summaries.size() == pages.size(); }
};

/// Append-only builder; records must arrive in document (start) order.
class PostingWriter {
 public:
  explicit PostingWriter(Pager* pager) : pager_(pager) {}

  void Append(const LabelEntry& entry);
  /// Flushes the tail page and returns the descriptor.
  PostingMeta Finish();

 private:
  Pager* pager_;
  PostingMeta meta_;
  /// Zeroed once: a full page leaves kPageSize % sizeof(LabelEntry) tail
  /// bytes unwritten, and they go into the page, its checksum and the
  /// saved image.
  char buffer_[kPageSize] = {};
  size_t in_buffer_ = 0;
  /// Summary of the page being buffered, flushed alongside it.
  PostingPageSummary page_summary_{};
};

/// Sequential scan of a posting list through the buffer pool (every page
/// touch is a pool fetch, so misses show up in the stats). Holds at most
/// one page pinned at a time and releases it before fetching the next;
/// the destructor releases the last pin.
///
/// When `stats` is given, every page fetch (and its hit/miss outcome) is
/// charged to it — this is how a query's I/O is attributed to exactly
/// that query even on a pool shared by concurrent sessions.
///
/// Error handling: a page fetch that fails (DataLoss surviving the pool's
/// quarantine) ends the scan — Next returns false and the failure is
/// latched on status(). Callers distinguishing "end of list" from "list
/// unreadable" must check status() after the scan; query-path callers
/// propagate it so storage corruption degrades to a failed query.
class PostingCursor {
 public:
  PostingCursor(ShardedBufferPool* pool, const PostingMeta* meta,
                obs::ExecStats* stats = nullptr)
      : pool_(pool), meta_(meta), stats_(stats) {}
  ~PostingCursor() { Release(); }

  PostingCursor(const PostingCursor&) = delete;
  PostingCursor& operator=(const PostingCursor&) = delete;
  /// Movable: the pin travels with the cursor, so exactly one of the two
  /// objects releases it.
  PostingCursor(PostingCursor&& other) noexcept
      : pool_(other.pool_), meta_(other.meta_), stats_(other.stats_),
        index_(other.index_), current_page_(other.current_page_),
        current_page_index_(other.current_page_index_),
        status_(std::move(other.status_)) {
    other.current_page_ = nullptr;
    other.current_page_index_ = SIZE_MAX;
  }
  PostingCursor& operator=(PostingCursor&& other) noexcept {
    if (this != &other) {
      Release();
      pool_ = other.pool_;
      meta_ = other.meta_;
      stats_ = other.stats_;
      index_ = other.index_;
      current_page_ = other.current_page_;
      current_page_index_ = other.current_page_index_;
      status_ = std::move(other.status_);
      other.current_page_ = nullptr;
      other.current_page_index_ = SIZE_MAX;
    }
    return *this;
  }

  /// Returns false at end of list — or on a page fetch failure, which
  /// also latches status(). Once failed, further Next calls keep
  /// returning false until Reset.
  bool Next(LabelEntry* out);
  /// Block-at-a-time read: yields the remaining entries of the current
  /// page as one zero-copy span into the pinned frame (one pool fetch and
  /// no per-entry memcpy per page). The span stays valid until the next
  /// cursor call. With bounds applied (and an indexed meta), pages the
  /// summaries prove non-qualifying are skipped without a fetch, and the
  /// scan front-seeks past the prefix below start_gt. Next() and NextSpan
  /// may be interleaved but bounds only take effect on page boundaries.
  bool NextSpan(const LabelEntry** data, size_t* count);
  /// Installs index-assisted scan bounds. Call before the first read;
  /// a meta without summaries ignores them (plain sequential scan).
  void ApplyBounds(const ScanBounds& bounds) { bounds_ = bounds; }
  void Reset() {
    Release();
    index_ = 0;
    status_ = Status::OK();
  }
  size_t remaining() const { return meta_->count - index_; }
  /// OK unless a page fetch failed during the scan.
  const Status& status() const { return status_; }

 private:
  void Release();
  /// Advances index_ past pages the summaries rule out under bounds_,
  /// charging one index seek per contiguous skip run. Returns false when
  /// the early-stop bound proves the rest of the list non-qualifying.
  bool SkipRuledOutPages();

  ShardedBufferPool* pool_;
  const PostingMeta* meta_;
  obs::ExecStats* stats_ = nullptr;
  size_t index_ = 0;
  ScanBounds bounds_{};
  const char* current_page_ = nullptr;
  size_t current_page_index_ = SIZE_MAX;
  Status status_;
};

/// Reads a whole posting list into memory (through the pool), charging
/// `stats` when given. A fetch failure mid-scan is reported through
/// `out_status` (the returned vector holds the entries read so far); when
/// `out_status` is null a failure aborts, matching the convenience Fetch
/// contract for callers on storage they trust.
std::vector<LabelEntry> ReadAll(ShardedBufferPool* pool,
                                const PostingMeta& meta,
                                obs::ExecStats* stats = nullptr,
                                Status* out_status = nullptr);

}  // namespace mctdb::storage
