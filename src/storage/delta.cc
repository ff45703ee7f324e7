#include "storage/delta.h"

#include <algorithm>

#include "storage/store.h"

namespace mctdb::storage {

MergedPostingCursor::MergedPostingCursor(ShardedBufferPool* pool,
                                         const MctStore& store,
                                         mct::ColorId color, er::NodeId tag,
                                         Lsn snapshot, obs::ExecStats* stats) {
  const PostingMeta* meta = store.Posting(color, tag);
  if (meta != nullptr) {
    base_.emplace(pool, meta, stats);
    base_count_ = meta->count;
  }
  if (store.versioned()) {
    StoreDeltas* d = store.deltas();
    std::shared_lock lk(d->mu);
    auto adds = d->posting_adds.find(StoreDeltas::PostingKey(color, tag));
    if (adds != d->posting_adds.end()) {
      for (const DeltaPostingEntry& e : adds->second) {
        if (e.lsn <= snapshot) extra_.push_back(e.entry);
      }
    }
    if (color < d->label_removed.size()) {
      for (const auto& [elem, lsn] : d->label_removed[color]) {
        if (lsn <= snapshot) removed_.emplace(elem, lsn);
      }
    }
  }
  std::sort(extra_.begin(), extra_.end(),
            [](const LabelEntry& a, const LabelEntry& b) {
              return a.start < b.start;
            });
}

void MergedPostingCursor::ApplyBounds(const ScanBounds& bounds) {
  if (base_.has_value()) base_->ApplyBounds(bounds);
}

bool MergedPostingCursor::NextSpan(const LabelEntry** data, size_t* count) {
  if (!status_.ok()) return false;
  if (extra_index_ >= extra_.size() && removed_.empty() && !base_pending_) {
    // No delta state left to merge: forward whole base spans zero-copy.
    if (!base_.has_value()) return false;
    if (base_->NextSpan(data, count)) return true;
    if (!base_->status().ok()) status_ = base_->status();
    base_.reset();
    return false;
  }
  // Deltas in play: merge one block's worth through the entry-at-a-time
  // path into a local buffer, still block-at-a-time for the consumer.
  span_buf_.clear();
  span_buf_.reserve(kEntriesPerPage);
  LabelEntry e;
  while (span_buf_.size() < kEntriesPerPage && Next(&e)) {
    span_buf_.push_back(e);
  }
  if (span_buf_.empty()) return false;
  *data = span_buf_.data();
  *count = span_buf_.size();
  return true;
}

bool MergedPostingCursor::Next(LabelEntry* out) {
  for (;;) {
    if (!base_pending_ && base_.has_value()) {
      if (base_->Next(&base_next_)) {
        base_pending_ = true;
      } else {
        if (!base_->status().ok()) {
          status_ = base_->status();
          return false;
        }
        base_.reset();  // clean end: drop the pin, merge only extras
      }
    }
    const bool have_extra = extra_index_ < extra_.size();
    LabelEntry e;
    if (base_pending_ &&
        (!have_extra || base_next_.start <= extra_[extra_index_].start)) {
      e = base_next_;
      base_pending_ = false;
    } else if (have_extra) {
      e = extra_[extra_index_++];
    } else {
      return false;
    }
    if (!removed_.empty() && removed_.count(e.elem) != 0) continue;
    *out = e;
    return true;
  }
}

}  // namespace mctdb::storage
