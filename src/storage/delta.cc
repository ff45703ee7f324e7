#include "storage/delta.h"

#include <algorithm>

#include "storage/store.h"

namespace mctdb::storage {

namespace {

bool StartBefore(const LabelEntry& e, uint32_t start) {
  return e.start < start;
}

}  // namespace

MergedPostingCursor::MergedPostingCursor(ShardedBufferPool* pool,
                                         const MctStore& store,
                                         mct::ColorId color, er::NodeId tag,
                                         Lsn snapshot, obs::ExecStats* stats) {
  const PostingMeta* meta = store.Posting(color, tag);
  if (meta != nullptr) {
    base_.emplace(pool, meta, stats);
    base_count_ = meta->count;
  }
  if (!store.versioned()) return;
  StoreDeltas* d = store.deltas();
  const uint64_t key = StoreDeltas::PostingKey(color, tag);
  {
    std::shared_lock lk(d->mu);
    auto adds = d->posting_adds.find(key);
    if (adds != d->posting_adds.end()) {
      for (const DeltaPostingEntry& e : adds->second) {
        if (e.lsn <= snapshot) adds_.push_back(e.entry);
      }
    }
    auto removes = d->posting_removes.find(key);
    if (removes != d->posting_removes.end()) {
      for (const DeltaPostingEntry& e : removes->second) {
        if (e.lsn <= snapshot) removes_.push_back(e.entry.start);
      }
    }
  }
  std::sort(adds_.begin(), adds_.end(),
            [](const LabelEntry& a, const LabelEntry& b) {
              return a.start < b.start;
            });
  std::sort(removes_.begin(), removes_.end());
  // A visible delete of an inserted entry finds that insert visible too
  // (it was applied first), so it cancels against it here; the deletes
  // left over are of base entries.
  size_t kept_adds = 0, kept_removes = 0, r = 0;
  for (const LabelEntry& e : adds_) {
    while (r < removes_.size() && removes_[r] < e.start) {
      removes_[kept_removes++] = removes_[r++];
    }
    if (r < removes_.size() && removes_[r] == e.start) {
      ++r;
    } else {
      adds_[kept_adds++] = e;
    }
  }
  while (r < removes_.size()) removes_[kept_removes++] = removes_[r++];
  adds_.resize(kept_adds);
  removes_.resize(kept_removes);
}

void MergedPostingCursor::ApplyBounds(const ScanBounds& bounds) {
  if (base_.has_value()) base_->ApplyBounds(bounds);
}

bool MergedPostingCursor::NextSpan(const LabelEntry** data, size_t* count) {
  for (;;) {
    if (!status_.ok()) return false;
    if (span_count_ == 0 && base_.has_value() &&
        !base_->NextSpan(&span_, &span_count_)) {
      if (!base_->status().ok()) {
        status_ = base_->status();
        return false;
      }
      base_.reset();  // clean end: drop the pin
      span_count_ = 0;
    }
    const uint32_t next_add =
        next_add_ < adds_.size() ? adds_[next_add_].start : UINT32_MAX;
    if (span_count_ == 0 || next_add < span_[0].start) {
      // Inserts that open before the next base entry (or after the last
      // one): a run of the insert vector.
      if (next_add_ == adds_.size()) return false;
      const uint32_t limit = span_count_ == 0 ? UINT32_MAX : span_[0].start;
      const size_t end =
          std::lower_bound(adds_.begin() + next_add_, adds_.end(), limit,
                           StartBefore) -
          adds_.begin();
      *data = adds_.data() + next_add_;
      *count = end - next_add_;
      next_add_ = end;
      return true;
    }
    // Deletes below the span fell on pages the bounds skipped.
    while (next_remove_ < removes_.size() &&
           removes_[next_remove_] < span_[0].start) {
      ++next_remove_;
    }
    const uint32_t next_remove = next_remove_ < removes_.size()
                                     ? removes_[next_remove_]
                                     : UINT32_MAX;
    if (next_remove == span_[0].start) {
      ++span_;
      --span_count_;
      ++next_remove_;
      continue;
    }
    // Forward the span up to the next insert or delete inside it.
    const size_t n =
        std::lower_bound(span_, span_ + span_count_,
                         std::min(next_add, next_remove), StartBefore) -
        span_;
    *data = span_;
    *count = n;
    span_ += n;
    span_count_ -= n;
    return true;
  }
}

}  // namespace mctdb::storage
