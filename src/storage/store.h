// MctStore: the native store for one materialized MCT database — the
// TIMBER-stand-in the experiments run on.
//
// Contents:
//   * an element table (one record per stored element; an element shared by
//     several colors is stored once — MCT's core economy; redundant
//     placements of non-NN schemas are separate "copy" elements);
//   * attribute and content-node records hanging off elements, in one flat
//     table: attr_records_ holds every base element's records grouped by
//     element id (each group in the order the records were added), and
//     element e's group is attr_records_[attr_offsets_[e] ..
//     attr_offsets_[e + 1]). Elements created by updates keep theirs in an
//     append-only side list until a checkpoint compacts them into a new
//     base, the same split key_index_ and key_index_added use;
//   * per (color, tag) posting lists of (start, end, level) interval labels
//     in document order, paged through the Pager and read through the
//     store's one-shard ShardedBufferPool — the input to structural joins;
//   * per-color label and parent arrays, indexed by element id, for color
//     crossings and updates;
//   * a value dictionary and a key index (logical id -> elements).
//
// Versioning (DESIGN.md §13): the containers above form the immutable BASE.
// A store opened for writing (wal::DurableStore) calls EnableVersioning(),
// after which every mutation lands in StoreDeltas tagged with its LSN and
// the read accessors take a snapshot LSN — readers at snapshot S see the
// base plus exactly the deltas with lsn <= S. Read-only stores never
// allocate deltas and keep the original lock-free paths.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/lsn.h"
#include "common/stable_vector.h"
#include "mct/mct_schema.h"
#include "storage/delta.h"
#include "storage/pager.h"
#include "storage/posting.h"
#include "storage/sharded_pool.h"

namespace mctdb::storage {

struct StoreOptions {
  /// Buffer pool capacity in pages (default 2048 pages = 16 MB).
  size_t buffer_pool_pages = 2048;
  /// Gap between consecutive interval-label values assigned at build time.
  /// Subtree inserts consume integers from the gap inside their parent's
  /// interval, so small inserts need no relabeling; a checkpoint compaction
  /// reassigns labels and restores the headroom. 1 = dense legacy labels.
  uint32_t label_stride = 16;
};

struct ElementMeta {
  er::NodeId er_node = er::kInvalidNode;
  /// Logical instance id, scoped per ER node; copies share it.
  uint32_t logical = 0;
  bool is_copy = false;
};

struct AttrRecord {
  uint32_t name_id = 0;
  uint32_t value_id = 0;
  /// Data attributes carry a separate content (text) node, key and idref
  /// attributes do not — this is what makes Table 1's attribute and
  /// content-node counts differ.
  bool has_content = false;
};

/// One color's base placements, indexed by element id. An element is absent
/// from the color when its slot's label.elem is kInvalidElem, and so is
/// every id past the end (elements created in a later color, or by updates,
/// whose placements live in StoreDeltas). A root has a label but parent
/// kInvalidElem.
struct ColorPlacements {
  struct Slot {
    LabelEntry label;
    ElemId parent = kInvalidElem;
  };
  std::vector<Slot> slots;
  /// Present labels and parents: Stats() charges the parents, and the
  /// image records both counts.
  size_t num_labels = 0;
  size_t num_parents = 0;

  const LabelEntry* FindLabel(ElemId id) const {
    return id < slots.size() && slots[id].label.elem != kInvalidElem
               ? &slots[id].label
               : nullptr;
  }
  ElemId FindParent(ElemId id) const {
    return id < slots.size() ? slots[id].parent : kInvalidElem;
  }
  void SetLabel(const LabelEntry& label) {
    Slot& slot = At(label.elem);
    if (slot.label.elem == kInvalidElem) ++num_labels;
    slot.label = label;
  }
  /// A kInvalidElem parent records nothing (roots have none).
  void SetParent(ElemId id, ElemId parent) {
    if (parent == kInvalidElem) return;
    Slot& slot = At(id);
    if (slot.parent == kInvalidElem) ++num_parents;
    slot.parent = parent;
  }

 private:
  Slot& At(ElemId id) {
    if (id >= slots.size()) slots.resize(size_t{id} + 1);
    return slots[id];
  }
};

/// One ER node's base key index: logical id -> stored elements, copies
/// included. Three flat arrays, built once from the element table
/// (MctStore::BuildKeyIndex) and never persisted. Logical ids are chosen
/// by callers (inserts start at 1 << 20, images and WAL records bring them
/// in from outside), so nothing here is sized by a logical id's value.
struct KeyIndex {
  /// Distinct logical ids present, ascending.
  std::vector<uint32_t> logicals;
  /// The elements of logicals[i] are elems[offsets[i] .. offsets[i + 1]).
  std::vector<uint32_t> offsets;
  /// Element ids grouped by logical id, ascending within each group.
  std::vector<ElemId> elems;

  /// The elements of `logical`; empty when it has none.
  std::span<const ElemId> Find(uint32_t logical) const;
};

/// Hash for the string dictionaries' heterogeneous lookup: a probe takes a
/// std::string_view and never builds a temporary std::string.
struct StringViewHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};
using DictIndex =
    std::unordered_map<std::string, uint32_t, StringViewHash, std::equal_to<>>;

/// Load-time statistics in Table 1's vocabulary.
struct StoreStats {
  size_t num_elements = 0;
  size_t num_attributes = 0;
  size_t num_content_nodes = 0;
  size_t num_colors = 0;
  double data_mbytes = 0.0;
};

class MctStore {
 public:
  const mct::MctSchema& schema() const { return *schema_; }

  // -- element access -------------------------------------------------------
  size_t num_elements() const { return elements_.size(); }
  const ElementMeta& element(ElemId id) const { return elements_[id]; }
  /// The element's attribute records as built, in the order they were
  /// added (renames on a versioned store are not applied; AttrValueIds
  /// applies them). Lock-free for base and inserted elements alike.
  std::span<const AttrRecord> attrs(ElemId id) const {
    const size_t base = attr_offsets_.size() - 1;
    if (id < base) {
      return {attr_records_.data() + attr_offsets_[id],
              attr_records_.data() + attr_offsets_[id + 1]};
    }
    return attrs_added_[id - base];
  }
  /// Attribute value by name at snapshot `snapshot`; nullptr when absent.
  const std::string* AttrValue(ElemId id, std::string_view attr_name,
                               Lsn snapshot = kMaxLsn) const;
  /// The one value-id lookup: out[i] receives the dictionary id of
  /// entries[i].elem's value for attribute `name_id` at `snapshot`, or
  /// UINT32_MAX when the element has none. Values are interned once
  /// store-wide (updates intern through the same dictionary), so id
  /// equality IS value equality — the batched join/filter paths compare
  /// ids and never touch the strings. A whole page span resolves in one
  /// loop over the flat table; a versioned store takes deltas()->mu
  /// shared once per call, not once per entry.
  void AttrValueIds(std::span<const LabelEntry> entries, uint32_t name_id,
                    Lsn snapshot, uint32_t* out) const;
  /// AttrValueIds on one element.
  uint32_t AttrValueId(ElemId id, uint32_t name_id,
                       Lsn snapshot = kMaxLsn) const;
  /// True when the element exists at `snapshot` (base elements always do;
  /// inserted elements from their birth LSN, deleted ones up to their
  /// tombstone LSN).
  bool ElementLive(ElemId id, Lsn snapshot = kMaxLsn) const;

  // -- dictionaries ----------------------------------------------------------
  uint32_t FindAttrName(std::string_view name) const;  // UINT32_MAX if absent
  const std::string& attr_name(uint32_t id) const { return attr_names_[id]; }
  const std::string& value(uint32_t id) const { return values_[id]; }
  uint32_t FindValue(std::string_view v) const;  // UINT32_MAX if absent

  // -- postings & labels -----------------------------------------------------
  /// Posting list for (color, tag); nullptr when the tag has no elements in
  /// that color. Base pages only — scan through MergedPostingCursor to see
  /// versioned inserts/deletes.
  const PostingMeta* Posting(mct::ColorId color, er::NodeId tag) const;
  /// The label of element `id` in `color` at `snapshot`; false if the
  /// element is not in that color (or its placement is deleted there).
  bool Label(mct::ColorId color, ElemId id, LabelEntry* out,
             Lsn snapshot = kMaxLsn) const;
  /// Parent element in `color` (kInvalidElem for roots / absent).
  ElemId Parent(mct::ColorId color, ElemId id, Lsn snapshot = kMaxLsn) const;
  /// Every placement in `color` at `snapshot`, in document (start) order —
  /// the color's full pre-order traversal. Used by exporters, validators,
  /// and checkpoint compaction.
  std::vector<LabelEntry> ColorEntries(mct::ColorId color,
                                       Lsn snapshot = kMaxLsn) const;

  /// All stored elements (copies included) for one logical instance alive
  /// at `snapshot`.
  std::vector<ElemId> ElementsFor(er::NodeId er_node, uint32_t logical,
                                  Lsn snapshot = kMaxLsn) const;

  /// The store's own page cache: one shard holding
  /// StoreOptions::buffer_pool_pages pages, safe to share across threads.
  ShardedBufferPool* buffer_pool() const { return pool_.get(); }
  Pager* pager() { return &pager_; }
  const Pager* pager() const { return &pager_; }

  StoreStats Stats() const;

  // -- versioning (the durable write path; DESIGN.md §13) --------------------
  /// Allocates the delta side state. Must be called before the store is
  /// shared with concurrent readers (wal::DurableStore does it at open).
  void EnableVersioning();
  bool versioned() const { return deltas_ != nullptr; }
  StoreDeltas* deltas() const { return deltas_.get(); }
  /// The snapshot new readers should take: the LSN of the last DURABLE
  /// update. Applied-but-unfsynced updates stay invisible.
  Lsn visible_lsn() const {
    return visible_lsn_.load(std::memory_order_acquire);
  }
  /// Monotonically advances visible_lsn (no-op for smaller values).
  void PublishVisibleLsn(Lsn lsn);

  // -- update support (update-form queries, query::Executor) -----------------
  /// Overwrite an attribute value in its flat record, in place. Charges
  /// one page write. Legacy single-threaded path for read-only stores
  /// only; a versioned store takes updates through storage::ApplyUpdateOp.
  void UpdateAttrValue(ElemId id, uint32_t name_id, std::string_view value);
  uint64_t update_page_writes() const { return update_page_writes_; }

 private:
  friend class StoreBuilder;
  friend class UpdateApplier;
  friend Status SaveStore(const MctStore&, const std::string&, bool);
  friend Result<std::unique_ptr<MctStore>> LoadStore(const mct::MctSchema&,
                                                     const std::string&,
                                                     const StoreOptions&);
  MctStore() = default;

  /// Dictionary ids of `name` / `value`, appended on first sight. The one
  /// interning routine for builds, compaction and updates; callers on a
  /// versioned store hold deltas_->mu exclusively.
  uint32_t InternAttrName(std::string_view name);
  uint32_t InternValue(std::string_view value);
  /// Rebuilds key_index_ from elements_ in time linear in their number.
  void BuildKeyIndex();
  /// Appends an element created by an update, with `records` copied into
  /// the side list; returns its id. The caller holds deltas_->mu
  /// exclusively.
  ElemId AddInsertedElement(const ElementMeta& meta,
                            std::span<const AttrRecord> records);
  /// Base elements of (er_node, logical) in id order: the key index's one
  /// accessor (deltas not applied).
  std::span<const ElemId> BaseElementsFor(er::NodeId er_node,
                                          uint32_t logical) const;

  const mct::MctSchema* schema_ = nullptr;
  Pager pager_;
  std::unique_ptr<ShardedBufferPool> pool_;

  StableVector<ElementMeta> elements_;
  /// The base attribute table (see the file comment): one offset per base
  /// element plus a final end offset, and every record in element order.
  std::vector<uint32_t> attr_offsets_{0};
  std::vector<AttrRecord> attr_records_;
  /// Records of elements created by updates, at id - base element count;
  /// each span points into attr_arena_, which never moves its blocks.
  StableVector<std::span<const AttrRecord>> attrs_added_;
  Arena attr_arena_;

  StableVector<std::string> attr_names_;
  DictIndex attr_name_index_;
  StableVector<std::string> values_;
  DictIndex value_index_;

  /// postings_[color][tag] (tag = ER node id); empty metas pruned to null.
  std::vector<std::vector<std::unique_ptr<PostingMeta>>> postings_;
  /// placements_[color]: elem -> label and parent in that color.
  std::vector<ColorPlacements> placements_;
  /// key_index_[er_node], rebuilt by StoreBuilder::Finish and LoadStore.
  /// Elements inserted by updates live in StoreDeltas::key_index_added
  /// until a checkpoint compacts them into a new base.
  std::vector<KeyIndex> key_index_;

  /// LSN-versioned mutations over the immutable base; null on read-only
  /// stores (all accessors then take their original lock-free path).
  std::unique_ptr<StoreDeltas> deltas_;
  std::atomic<Lsn> visible_lsn_{kNoLsn};

  size_t num_content_nodes_ = 0;
  size_t num_attribute_nodes_ = 0;
  uint64_t update_page_writes_ = 0;
};

/// Builds an MctStore. Usage (driven by instance::Materializer):
///   StoreBuilder b(&schema, options);
///   ElemId e = b.AddElement(type, logical, is_copy);
///   b.AddAttr(e, b.InternAttrName("id"), b.InternValue("c42"),
///             /*with_content=*/false);
///   b.BeginColor(0); b.Enter(e); ... b.Leave(e); ... b.EndColor();
///   auto store = b.Finish();
class StoreBuilder {
 public:
  StoreBuilder(const mct::MctSchema* schema, const StoreOptions& options);

  ElemId AddElement(er::NodeId er_node, uint32_t logical, bool is_copy);
  /// Dictionary ids, assigned in first-interned order. Callers that see a
  /// string many times intern it once and keep the id.
  uint32_t InternAttrName(std::string_view name) {
    return store_->InternAttrName(name);
  }
  uint32_t InternValue(std::string_view value) {
    return store_->InternValue(value);
  }
  void AddAttr(ElemId elem, uint32_t name_id, uint32_t value_id,
               bool with_content);

  /// Colors must be emitted in increasing order, 0 .. num_colors-1, with a
  /// balanced Enter/Leave walk in document order per color.
  void BeginColor(mct::ColorId color);
  void Enter(ElemId elem);
  void Leave(ElemId elem);
  void EndColor();

  std::unique_ptr<MctStore> Finish();

 private:
  std::unique_ptr<MctStore> store_;
  StoreOptions options_;

  // Per-color build state.
  bool in_color_ = false;
  mct::ColorId color_ = 0;
  uint32_t label_counter_ = 0;
  struct OpenNode {
    ElemId elem;
    size_t entry_index;  // into entries_
  };
  std::vector<OpenNode> open_stack_;
  /// Pending label entries of the current color, grouped per tag, in
  /// document order (Enter order == start order).
  std::vector<std::vector<LabelEntry>> per_tag_entries_;
  std::vector<LabelEntry> entries_;  // all entries, Enter order
  std::vector<size_t> entry_tag_;    // parallel: tag of each entry
  std::vector<ElemId> entry_parent_;  // parallel: parent of each entry

  /// Attribute records in AddAttr order and the element of each. Finish
  /// groups them into the store's flat table with a stable counting sort
  /// on the element id; records that arrived in element order (every
  /// materialization and compaction) are moved over unsorted.
  std::vector<AttrRecord> attr_records_;
  std::vector<ElemId> attr_elems_;
  bool attrs_in_order_ = true;
};

}  // namespace mctdb::storage
