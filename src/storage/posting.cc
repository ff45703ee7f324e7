#include "storage/posting.h"

#include <cstring>

#include "common/logging.h"

namespace mctdb::storage {

void PostingWriter::Append(const LabelEntry& entry) {
  if (in_buffer_ == kEntriesPerPage) {
    meta_.pages.push_back(pager_->Append(buffer_));
    meta_.summaries.push_back(page_summary_);
    in_buffer_ = 0;
  }
  if (in_buffer_ == 0) {
    page_summary_ = {entry.start, entry.end};
  } else if (entry.end > page_summary_.max_end) {
    page_summary_.max_end = entry.end;
  }
  std::memcpy(buffer_ + in_buffer_ * sizeof(LabelEntry), &entry,
              sizeof(LabelEntry));
  ++in_buffer_;
  ++meta_.count;
}

PostingMeta PostingWriter::Finish() {
  if (in_buffer_ > 0) {
    std::memset(buffer_ + in_buffer_ * sizeof(LabelEntry), 0,
                kPageSize - in_buffer_ * sizeof(LabelEntry));
    meta_.pages.push_back(pager_->Append(buffer_));
    meta_.summaries.push_back(page_summary_);
    in_buffer_ = 0;
  }
  return std::move(meta_);
}

bool PostingCursor::Next(LabelEntry* out) {
  if (!status_.ok() || index_ >= meta_->count) return false;
  size_t page_index = index_ / kEntriesPerPage;
  if (page_index != current_page_index_) {
    Release();
    bool miss = false;
    Status s = pool_->Fetch(meta_->pages[page_index], &current_page_, &miss);
    // The fetch outcome is charged even on failure: the pool did the work.
    if (stats_ != nullptr) stats_->OnPageFetch(miss);
    if (!s.ok()) {
      status_ = std::move(s);
      current_page_ = nullptr;
      return false;
    }
    current_page_index_ = page_index;
  }
  size_t slot = index_ % kEntriesPerPage;
  std::memcpy(out, current_page_ + slot * sizeof(LabelEntry),
              sizeof(LabelEntry));
  ++index_;
  return true;
}

bool PostingCursor::SkipRuledOutPages() {
  if (!meta_->has_index()) return true;
  size_t page = index_ / kEntriesPerPage;
  if (index_ != page * kEntriesPerPage) return true;  // mid-page: no skip
  const std::vector<PostingPageSummary>& sum = meta_->summaries;
  size_t skipped = 0;
  while (page < sum.size()) {
    if (sum[page].first_start >= bounds_.start_lt) {
      // Starts only grow page over page: nothing here or later qualifies.
      if (stats_ != nullptr) stats_->OnIndexSeek();
      index_ = meta_->count;
      return false;
    }
    bool ruled_out = sum[page].max_end <= bounds_.end_gt;
    if (!ruled_out && page + 1 < sum.size() &&
        sum[page + 1].first_start <= bounds_.start_gt) {
      // Starts are strictly increasing, so every entry on this page has
      // start < the next page's first_start <= start_gt: none qualifies.
      ruled_out = true;
    }
    if (!ruled_out) break;
    ++page;
    ++skipped;
  }
  index_ = page * kEntriesPerPage;
  if (skipped > 0 && stats_ != nullptr) stats_->OnIndexSeek();
  return index_ < meta_->count;
}

bool PostingCursor::NextSpan(const LabelEntry** data, size_t* count) {
  if (!status_.ok() || index_ >= meta_->count) return false;
  if (!SkipRuledOutPages() || index_ >= meta_->count) return false;
  size_t page_index = index_ / kEntriesPerPage;
  if (page_index != current_page_index_) {
    Release();
    bool miss = false;
    Status s = pool_->Fetch(meta_->pages[page_index], &current_page_, &miss);
    if (stats_ != nullptr) stats_->OnPageFetch(miss);
    if (!s.ok()) {
      status_ = std::move(s);
      current_page_ = nullptr;
      return false;
    }
    current_page_index_ = page_index;
  }
  size_t slot = index_ % kEntriesPerPage;
  size_t n = kEntriesPerPage - slot;
  if (n > meta_->count - index_) n = meta_->count - index_;
  // Zero-copy: LabelEntry is a trivially-copyable POD whose objects were
  // memcpy'd into the page at build time, and pool frames are heap
  // allocations (suitably aligned), so reading them back through a typed
  // span is well-defined.
  *data = reinterpret_cast<const LabelEntry*>(current_page_ +
                                              slot * sizeof(LabelEntry));
  *count = n;
  index_ += n;
  return true;
}

void PostingCursor::Release() {
  if (current_page_ != nullptr) {
    pool_->Unpin(meta_->pages[current_page_index_]);
    current_page_ = nullptr;
    current_page_index_ = SIZE_MAX;
  }
}

std::vector<LabelEntry> ReadAll(ShardedBufferPool* pool,
                                const PostingMeta& meta,
                                obs::ExecStats* stats, Status* out_status) {
  std::vector<LabelEntry> out;
  out.reserve(meta.count);
  PostingCursor cursor(pool, &meta, stats);
  LabelEntry e;
  while (cursor.Next(&e)) out.push_back(e);
  if (out_status != nullptr) {
    *out_status = cursor.status();
  } else {
    MCTDB_CHECK_MSG(cursor.status().ok(), cursor.status().ToString().c_str());
  }
  return out;
}

}  // namespace mctdb::storage
