// StoreDeltas: the LSN-versioned side state of a writable MctStore.
//
// The base store (posting pages, label/parent maps, attribute records) is
// immutable between checkpoints. Every update op appends deltas here,
// tagged with the op's LSN; a reader carries a snapshot LSN S and sees
// exactly the deltas with lsn <= S layered over the base — so a query that
// started before an update never observes a partial subtree, and writers
// never invalidate a reader's view (copy-on-write at the granularity of
// posting entries and attribute revisions, keyed by LSN; DESIGN.md §13).
//
// Locking: `mu` guards every container. Writers (one at a time, serialized
// by DurableStore's write mutex) take it exclusively for the short apply
// step only — never across an fsync. Readers take it shared per lookup,
// and value ids once per span: MctStore::AttrValueIds resolves a whole
// page span of entries under one shared lock. Read-only stores skip the
// deltas entirely via MctStore's versioned() fast path, keeping the read
// benchmark path untouched.
#pragma once

#include <cstdint>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/lsn.h"
#include "er/er_model.h"
#include "mct/mct_schema.h"
#include "obs/exec_stats.h"
#include "storage/posting.h"

namespace mctdb::storage {

class MctStore;

/// One versioned posting insert: the entry becomes visible at `lsn`.
struct DeltaPostingEntry {
  Lsn lsn = kNoLsn;
  LabelEntry entry;
};

/// One revision of an attribute value ((elem, name) -> value at `lsn`).
struct AttrRev {
  Lsn lsn = kNoLsn;
  uint32_t value_id = 0;
};

class StoreDeltas {
 public:
  mutable std::shared_mutex mu;

  /// posting_adds[color][tag]: inserts in start order (inserts always land
  /// inside a parent gap with fresh ascending labels, so append order is
  /// start order per parent; a per-scan sort makes it globally true).
  /// Indexed sparsely through maps — most (color, tag) pairs never change.
  std::unordered_map<uint64_t, std::vector<DeltaPostingEntry>> posting_adds;
  /// label_removed[color]: elem -> LSN at which the element's placement in
  /// that color disappeared (subtree delete).
  std::vector<std::unordered_map<ElemId, Lsn>> label_removed;
  /// label_added[color]: elem -> versioned label (subtree insert). An
  /// element has at most one label per color, and deleted elements are
  /// never relabeled, so a single revision suffices.
  std::vector<std::unordered_map<ElemId, DeltaPostingEntry>> label_added;
  /// parent_added[color]: elem -> parent, for inserted placements.
  std::vector<std::unordered_map<ElemId, ElemId>> parent_added;

  /// Rename history: (elem, name_id) -> revisions in LSN order.
  std::unordered_map<uint64_t, std::vector<AttrRev>> attr_revs;

  /// key_index_added[er_node]: logical -> (lsn, elem) additions, for
  /// inserted elements. Removals ride on element_deleted.
  std::vector<std::unordered_map<uint32_t, std::vector<std::pair<Lsn, ElemId>>>>
      key_index_added;

  /// Element lifetimes. Base elements have no entry in element_created
  /// (alive since kNoLsn); inserted elements record their birth LSN.
  std::unordered_map<ElemId, Lsn> element_created;
  std::unordered_map<ElemId, Lsn> element_deleted;

  /// Highest start/end label value consumed per color (base build high
  /// water, advanced by inserts). Used to detect gap collisions.
  std::vector<uint32_t> label_high_water;

  explicit StoreDeltas(size_t num_colors, size_t num_er_nodes)
      : label_removed(num_colors),
        label_added(num_colors),
        parent_added(num_colors),
        key_index_added(num_er_nodes),
        label_high_water(num_colors, 0) {}

  static uint64_t PostingKey(mct::ColorId color, er::NodeId tag) {
    return (uint64_t{color} << 32) | tag;
  }
  static uint64_t AttrKey(ElemId elem, uint32_t name_id) {
    return (uint64_t{elem} << 32) | name_id;
  }
};

/// Sequential merge of a base posting list with the snapshot-visible delta
/// inserts of the same (color, tag), minus the placements deleted at or
/// before the snapshot: the executor's scan path. On an unversioned store
/// it forwards the plain base cursor's page spans.
class MergedPostingCursor {
 public:
  MergedPostingCursor(ShardedBufferPool* pool, const MctStore& store,
                      mct::ColorId color, er::NodeId tag, Lsn snapshot,
                      obs::ExecStats* stats = nullptr);

  /// Block-at-a-time read; false at end of the merged list or on a base
  /// page fetch failure (latched on status(), like PostingCursor). Fast
  /// path: while no snapshot-visible insert or delete remains to merge,
  /// base page spans are forwarded zero-copy (on a read-only store — or an
  /// untouched (color, tag) — every span is a whole pinned page).
  /// Otherwise one block's worth of entries is merged into an internal
  /// buffer and returned as a span over it. Spans stay valid until the
  /// next cursor call; entries arrive in global start order either way.
  bool NextSpan(const LabelEntry** data, size_t* count);
  /// Installs index-assisted bounds on the base scan (page-granular skip
  /// hints; see ScanBounds). Call before the first read. Delta inserts
  /// are not filtered — bounds are necessary-condition hints, never
  /// exactness guarantees.
  void ApplyBounds(const ScanBounds& bounds);
  const Status& status() const { return status_; }
  /// Base entries + visible inserts (before delete filtering); an upper
  /// bound used for span cardinality.
  size_t upper_bound() const { return base_count_ + extra_.size(); }

 private:
  /// One merged entry; NextSpan's merge path.
  bool Next(LabelEntry* out);

  std::optional<PostingCursor> base_;
  size_t base_count_ = 0;
  /// Snapshot-visible inserts, start order.
  std::vector<LabelEntry> extra_;
  size_t extra_index_ = 0;
  /// Placements deleted at or before the snapshot.
  std::unordered_map<ElemId, Lsn> removed_;
  bool base_pending_ = false;
  LabelEntry base_next_{};
  /// Merge buffer for NextSpan's slow path (deltas present).
  std::vector<LabelEntry> span_buf_;
  Status status_;
};

}  // namespace mctdb::storage
