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
// Placement deltas are kept twice, once per way they are read: by element
// (label_added / label_removed, for Label, ColorEntries and the applier)
// and by posting list (posting_adds / posting_removes, for scans). A scan
// of one (color, tag) reads only that list's own inserts and deletes.
// The base placements are also listed per color in start order
// (base_order), so the applier finds a subtree by its interval.
//
// Locking: `mu` guards every container. Writers (one at a time, serialized
// by DurableStore's write mutex) take it exclusively for the short apply
// step only — never across an fsync. That step reads the base placements
// of the op's subtrees and the color's inserts, never every placement.
// Readers take it shared per lookup, and value ids once per span:
// MctStore::AttrValueIds resolves a whole page span of entries under one
// shared lock. Read-only stores skip the deltas entirely via MctStore's
// versioned() fast path, keeping the read benchmark path untouched.
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

/// One versioned placement change: `entry` appears (an insert) or
/// disappears (a delete) for snapshots at or after `lsn`.
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

  /// posting_adds[PostingKey(color, tag)]: the list's inserts in apply
  /// order (start order within one parent gap; a per-scan sort makes it
  /// globally true). Indexed sparsely — most (color, tag) pairs never
  /// change.
  std::unordered_map<uint64_t, std::vector<DeltaPostingEntry>> posting_adds;
  /// posting_removes[PostingKey(color, tag)]: the list's deletes in apply
  /// order, each the removed label. A label value names one placement in
  /// its color until the next checkpoint (never reused, see
  /// UpdateApplier::HasAnyLabel), so a delete matches its entry by start.
  std::unordered_map<uint64_t, std::vector<DeltaPostingEntry>>
      posting_removes;
  /// label_removed[color]: elem -> LSN at which the element's placement in
  /// that color disappeared (subtree delete).
  std::vector<std::unordered_map<ElemId, Lsn>> label_removed;
  /// label_added[color]: elem -> versioned label (subtree insert). An
  /// element has at most one label per color, and deleted elements are
  /// never relabeled, so a single revision suffices.
  std::vector<std::unordered_map<ElemId, DeltaPostingEntry>> label_added;
  /// parent_added[color]: elem -> parent, for inserted placements.
  std::vector<std::unordered_map<ElemId, ElemId>> parent_added;
  /// base_order[color]: the element ids of the color's base placements in
  /// start order, deleted ones included (a deleted placement keeps its
  /// label values until the next checkpoint). The subtree of a placement
  /// [start, end] is the run whose starts lie in that interval, found by
  /// binary search. Built once by MctStore::EnableVersioning; the base
  /// never changes afterwards, so the order holds until the store is
  /// replaced.
  std::vector<std::vector<ElemId>> base_order;

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
        base_order(num_colors),
        key_index_added(num_er_nodes),
        label_high_water(num_colors, 0) {}

  static uint64_t PostingKey(mct::ColorId color, er::NodeId tag) {
    return (uint64_t{color} << 32) | tag;
  }
  static uint64_t AttrKey(ElemId elem, uint32_t name_id) {
    return (uint64_t{elem} << 32) | name_id;
  }
};

/// The executor's scan of one posting list at one snapshot: the base pages
/// of (color, tag), that list's snapshot-visible inserts merged in, and its
/// snapshot-visible deletes left out, in start order. On a read-only store
/// or an untouched list it forwards the plain base cursor's page spans.
class MergedPostingCursor {
 public:
  MergedPostingCursor(ShardedBufferPool* pool, const MctStore& store,
                      mct::ColorId color, er::NodeId tag, Lsn snapshot,
                      obs::ExecStats* stats = nullptr);

  /// Block-at-a-time read; false at end of the merged list or on a base
  /// page fetch failure (latched on status(), like PostingCursor). Every
  /// span is zero-copy: a run of one pinned base page, cut only at the
  /// start of a visible insert or delete that falls inside it (a deleted
  /// entry is stepped over), or a run of the sorted inserts that open
  /// before the next base entry or after the last one. Spans stay valid
  /// until the next cursor call.
  bool NextSpan(const LabelEntry** data, size_t* count);
  /// Installs index-assisted bounds on the base scan (page-granular skip
  /// hints; see ScanBounds). Call before the first read. Inserts are not
  /// filtered — bounds are necessary-condition hints, never exactness
  /// guarantees.
  void ApplyBounds(const ScanBounds& bounds);
  const Status& status() const { return status_; }
  /// Base entries + visible inserts that are not deleted (base deletes
  /// not subtracted); an upper bound used for span cardinality.
  size_t upper_bound() const { return base_count_ + adds_.size(); }

 private:
  std::optional<PostingCursor> base_;
  size_t base_count_ = 0;
  /// The unread rest of the base span last fetched (pinned by base_).
  const LabelEntry* span_ = nullptr;
  size_t span_count_ = 0;
  /// Visible inserts not deleted at the snapshot, start order.
  std::vector<LabelEntry> adds_;
  size_t next_add_ = 0;
  /// Starts of the visible deletes of base entries, ascending.
  std::vector<uint32_t> removes_;
  size_t next_remove_ = 0;
  Status status_;
};

}  // namespace mctdb::storage
