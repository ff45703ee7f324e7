#include "storage/store.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <shared_mutex>

#include "common/logging.h"

namespace mctdb::storage {

namespace {

/// Id of `s` in (strings, index), appending it on first sight.
uint32_t Intern(std::string_view s, StableVector<std::string>* strings,
                DictIndex* index) {
  auto it = index->find(s);
  if (it != index->end()) return it->second;
  uint32_t id = static_cast<uint32_t>(strings->size());
  strings->emplace_back(s);
  index->emplace(strings->back(), id);
  return id;
}

/// Stable LSD radix sort of (logical << 32 | elem) pairs on the logical
/// id, eight bits per pass. A pass whose digit is the same in every pair
/// moves nothing and is skipped, so small ids cost one or two passes.
void SortByLogical(std::vector<uint64_t>* pairs,
                   std::vector<uint64_t>* scratch) {
  uint32_t counts[4][256] = {};
  for (uint64_t p : *pairs) {
    for (int d = 0; d < 4; ++d) ++counts[d][(p >> (32 + 8 * d)) & 0xFF];
  }
  scratch->resize(pairs->size());
  for (int d = 0; d < 4; ++d) {
    const int shift = 32 + 8 * d;
    if (counts[d][(pairs->front() >> shift) & 0xFF] == pairs->size()) {
      continue;
    }
    uint32_t next[256];
    uint32_t sum = 0;
    for (int b = 0; b < 256; ++b) {
      next[b] = sum;
      sum += counts[d][b];
    }
    for (uint64_t p : *pairs) (*scratch)[next[(p >> shift) & 0xFF]++] = p;
    pairs->swap(*scratch);
  }
}

/// The element ids of `placed`'s labels in start order, and the highest
/// label value they use. A built color numbers its Enter and Leave events
/// stride, 2 * stride, ..., 2n * stride, so the start of every label lands
/// at position start / stride of a 2n + 1 array: one scatter and one
/// compaction. Labels that do not fit that pattern (two at one position,
/// or one past the end) take a comparison sort.
std::vector<ElemId> BaseStartOrder(const ColorPlacements& placed,
                                   uint32_t* high) {
  const auto& slots = placed.slots;
  *high = 0;
  for (const ColorPlacements::Slot& slot : slots) {
    // Absent slots carry end 0, so they never raise the high water.
    *high = std::max(*high, slot.label.end);
  }
  const size_t n = placed.num_labels;
  if (n == 0) return {};
  const uint32_t stride = static_cast<uint32_t>(*high / (2 * n));
  if (stride > 0) {
    std::vector<ElemId> by_start(*high / stride + 1, kInvalidElem);
    bool fits = true;
    for (const ColorPlacements::Slot& slot : slots) {
      if (slot.label.elem == kInvalidElem) continue;
      const size_t i = slot.label.start / stride;
      if (i >= by_start.size() || by_start[i] != kInvalidElem) {
        fits = false;
        break;
      }
      by_start[i] = slot.label.elem;
    }
    if (fits) {
      // Branch-free compaction: starts and ends alternate unpredictably.
      size_t k = 0;
      for (ElemId e : by_start) {
        by_start[k] = e;
        k += e != kInvalidElem;
      }
      return {by_start.begin(), by_start.begin() + k};
    }
  }
  std::vector<ElemId> order;
  for (const ColorPlacements::Slot& slot : slots) {
    if (slot.label.elem != kInvalidElem) order.push_back(slot.label.elem);
  }
  std::sort(order.begin(), order.end(), [&](ElemId a, ElemId b) {
    return slots[a].label.start < slots[b].label.start;
  });
  return order;
}

/// The value id `records` hold for `name_id`; UINT32_MAX when absent.
inline uint32_t FindValueId(std::span<const AttrRecord> records,
                            uint32_t name_id) {
  for (const AttrRecord& a : records) {
    if (a.name_id == name_id) return a.value_id;
  }
  return UINT32_MAX;
}

}  // namespace

std::span<const ElemId> KeyIndex::Find(uint32_t logical) const {
  // Generated ids run 0 .. count - 1, so an id usually sits at its own
  // position; sorted distinct ids put id v at position v or earlier, so a
  // match there is the entry. Other ids take the binary search.
  size_t i = logical;
  if (i >= logicals.size() || logicals[i] != logical) {
    auto it = std::lower_bound(logicals.begin(), logicals.end(), logical);
    if (it == logicals.end() || *it != logical) return {};
    i = static_cast<size_t>(it - logicals.begin());
  }
  return {elems.data() + offsets[i], elems.data() + offsets[i + 1]};
}

uint32_t MctStore::InternAttrName(std::string_view name) {
  return Intern(name, &attr_names_, &attr_name_index_);
}

uint32_t MctStore::InternValue(std::string_view value) {
  return Intern(value, &values_, &value_index_);
}

void MctStore::BuildKeyIndex() {
  const size_t num_nodes = schema_->diagram().num_nodes();
  // Bucket (logical, elem) pairs by ER node in element order, then sort
  // each bucket stably by logical id: elements of one logical id stay in
  // id order.
  std::vector<std::vector<uint64_t>> pairs(num_nodes);
  {
    std::vector<uint32_t> per_node(num_nodes, 0);
    for (const ElementMeta& m : elements_) ++per_node[m.er_node];
    for (size_t n = 0; n < num_nodes; ++n) pairs[n].reserve(per_node[n]);
  }
  ElemId id = 0;
  for (const ElementMeta& m : elements_) {
    pairs[m.er_node].push_back((uint64_t{m.logical} << 32) | id++);
  }
  key_index_.assign(num_nodes, KeyIndex());
  std::vector<uint64_t> scratch;
  for (size_t n = 0; n < num_nodes; ++n) {
    if (pairs[n].empty()) continue;
    SortByLogical(&pairs[n], &scratch);
    KeyIndex& index = key_index_[n];
    index.elems.reserve(pairs[n].size());
    for (uint64_t p : pairs[n]) {
      const uint32_t logical = static_cast<uint32_t>(p >> 32);
      if (index.logicals.empty() || index.logicals.back() != logical) {
        index.logicals.push_back(logical);
        index.offsets.push_back(static_cast<uint32_t>(index.elems.size()));
      }
      index.elems.push_back(static_cast<ElemId>(p));
    }
    index.offsets.push_back(static_cast<uint32_t>(index.elems.size()));
  }
}

std::span<const ElemId> MctStore::BaseElementsFor(er::NodeId er_node,
                                                  uint32_t logical) const {
  if (er_node >= key_index_.size()) return {};
  return key_index_[er_node].Find(logical);
}

const std::string* MctStore::AttrValue(ElemId id, std::string_view attr_name,
                                       Lsn snapshot) const {
  uint32_t value_id = AttrValueId(id, FindAttrName(attr_name), snapshot);
  return value_id == UINT32_MAX ? nullptr : &values_[value_id];
}

void MctStore::AttrValueIds(std::span<const LabelEntry> entries,
                            uint32_t name_id, Lsn snapshot,
                            uint32_t* out) const {
  // An unknown name (UINT32_MAX) matches no record and no revision.
  for (size_t i = 0; i < entries.size(); ++i) {
    out[i] = FindValueId(attrs(entries[i].elem), name_id);
  }
  if (!versioned()) return;
  std::shared_lock lk(deltas_->mu);
  const auto& revs = deltas_->attr_revs;
  if (revs.empty()) return;
  for (size_t i = 0; i < entries.size(); ++i) {
    auto it = revs.find(StoreDeltas::AttrKey(entries[i].elem, name_id));
    if (it == revs.end()) continue;
    // Revisions are appended in LSN order; the last one at or below the
    // snapshot wins. Older snapshots keep the base record.
    for (const AttrRev& r : it->second) {
      if (r.lsn <= snapshot) out[i] = r.value_id;
    }
  }
}

uint32_t MctStore::AttrValueId(ElemId id, uint32_t name_id,
                               Lsn snapshot) const {
  LabelEntry entry;
  entry.elem = id;
  uint32_t value_id = UINT32_MAX;
  AttrValueIds({&entry, 1}, name_id, snapshot, &value_id);
  return value_id;
}

bool MctStore::ElementLive(ElemId id, Lsn snapshot) const {
  if (id >= elements_.size()) return false;
  if (!versioned()) return true;
  std::shared_lock lk(deltas_->mu);
  auto created = deltas_->element_created.find(id);
  if (created != deltas_->element_created.end() && created->second > snapshot) {
    return false;
  }
  auto deleted = deltas_->element_deleted.find(id);
  return deleted == deltas_->element_deleted.end() ||
         deleted->second > snapshot;
}

uint32_t MctStore::FindAttrName(std::string_view name) const {
  auto lookup = [&]() {
    auto it = attr_name_index_.find(name);
    return it == attr_name_index_.end() ? UINT32_MAX : it->second;
  };
  if (!versioned()) return lookup();
  std::shared_lock lk(deltas_->mu);
  return lookup();
}

uint32_t MctStore::FindValue(std::string_view v) const {
  auto lookup = [&]() {
    auto it = value_index_.find(v);
    return it == value_index_.end() ? UINT32_MAX : it->second;
  };
  if (!versioned()) return lookup();
  std::shared_lock lk(deltas_->mu);
  return lookup();
}

const PostingMeta* MctStore::Posting(mct::ColorId color,
                                     er::NodeId tag) const {
  if (color >= postings_.size() || tag >= postings_[color].size()) {
    return nullptr;
  }
  return postings_[color][tag].get();
}

bool MctStore::Label(mct::ColorId color, ElemId id, LabelEntry* out,
                     Lsn snapshot) const {
  if (color >= placements_.size()) return false;
  const LabelEntry* base = placements_[color].FindLabel(id);
  if (!versioned()) {
    if (base == nullptr) return false;
    *out = *base;
    return true;
  }
  std::shared_lock lk(deltas_->mu);
  auto rm = deltas_->label_removed[color].find(id);
  if (rm != deltas_->label_removed[color].end() && rm->second <= snapshot) {
    return false;
  }
  if (base != nullptr) {
    *out = *base;
    return true;
  }
  auto ad = deltas_->label_added[color].find(id);
  if (ad != deltas_->label_added[color].end() &&
      ad->second.lsn <= snapshot) {
    *out = ad->second.entry;
    return true;
  }
  return false;
}

ElemId MctStore::Parent(mct::ColorId color, ElemId id, Lsn snapshot) const {
  if (color >= placements_.size()) return kInvalidElem;
  ElemId parent = placements_[color].FindParent(id);
  if (parent != kInvalidElem || !versioned()) return parent;
  std::shared_lock lk(deltas_->mu);
  auto ad = deltas_->label_added[color].find(id);
  if (ad == deltas_->label_added[color].end() || ad->second.lsn > snapshot) {
    return kInvalidElem;
  }
  auto pa = deltas_->parent_added[color].find(id);
  return pa == deltas_->parent_added[color].end() ? kInvalidElem : pa->second;
}

std::vector<LabelEntry> MctStore::ColorEntries(mct::ColorId color,
                                               Lsn snapshot) const {
  std::vector<LabelEntry> out;
  if (color >= placements_.size()) return out;
  const ColorPlacements& placed = placements_[color];
  out.reserve(placed.num_labels);
  if (!versioned()) {
    for (const ColorPlacements::Slot& slot : placed.slots) {
      if (slot.label.elem != kInvalidElem) out.push_back(slot.label);
    }
  } else {
    std::shared_lock lk(deltas_->mu);
    const auto& removed = deltas_->label_removed[color];
    auto is_removed = [&](ElemId elem) {
      auto it = removed.find(elem);
      return it != removed.end() && it->second <= snapshot;
    };
    for (const ColorPlacements::Slot& slot : placed.slots) {
      if (slot.label.elem != kInvalidElem && !is_removed(slot.label.elem)) {
        out.push_back(slot.label);
      }
    }
    for (const auto& [elem, versioned_label] : deltas_->label_added[color]) {
      if (versioned_label.lsn <= snapshot && !is_removed(elem)) {
        out.push_back(versioned_label.entry);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const LabelEntry& a, const LabelEntry& b) {
              return a.start < b.start;
            });
  return out;
}

std::vector<ElemId> MctStore::ElementsFor(er::NodeId er_node, uint32_t logical,
                                          Lsn snapshot) const {
  if (er_node >= key_index_.size()) return {};
  std::span<const ElemId> base = BaseElementsFor(er_node, logical);
  std::vector<ElemId> out(base.begin(), base.end());
  if (!versioned()) return out;
  std::shared_lock lk(deltas_->mu);
  auto is_deleted = [&](ElemId elem) {
    auto del = deltas_->element_deleted.find(elem);
    return del != deltas_->element_deleted.end() && del->second <= snapshot;
  };
  out.erase(std::remove_if(out.begin(), out.end(), is_deleted), out.end());
  auto added = deltas_->key_index_added[er_node].find(logical);
  if (added != deltas_->key_index_added[er_node].end()) {
    for (const auto& [lsn, elem] : added->second) {
      if (lsn <= snapshot && !is_deleted(elem)) out.push_back(elem);
    }
  }
  return out;
}

StoreStats MctStore::Stats() const {
  StoreStats st;
  st.num_elements = elements_.size();
  st.num_attributes = num_attribute_nodes_;
  st.num_content_nodes = num_content_nodes_;
  st.num_colors = schema_->num_colors();
  // Bytes: posting pages + element metadata + attribute/content records
  // (charged with their value text per record, as a real store lays them
  // out — dictionary compression is not assumed, so DEEP/UNDR copies pay
  // full freight) + label and parent maps.
  size_t bytes = pager_.bytes();
  bytes += elements_.size() * sizeof(ElementMeta);
  for (ElemId id = 0; id < elements_.size(); ++id) {
    for (const AttrRecord& rec : attrs(id)) {
      bytes += sizeof(AttrRecord) + values_[rec.value_id].size();
      if (rec.has_content) bytes += 8 + values_[rec.value_id].size();
    }
  }
  // Per-color parent pointers are part of the node record in a real
  // layout; the label arrays themselves are in-memory indexes over the
  // posting pages already counted above.
  for (const ColorPlacements& placed : placements_) {
    bytes += placed.num_parents * sizeof(ElemId);
  }
  st.data_mbytes = double(bytes) / (1024.0 * 1024.0);
  return st;
}

void MctStore::EnableVersioning() {
  if (versioned()) return;
  deltas_ =
      std::make_unique<StoreDeltas>(placements_.size(), key_index_.size());
  for (size_t c = 0; c < placements_.size(); ++c) {
    deltas_->base_order[c] =
        BaseStartOrder(placements_[c], &deltas_->label_high_water[c]);
  }
}

void MctStore::PublishVisibleLsn(Lsn lsn) {
  Lsn cur = visible_lsn_.load(std::memory_order_relaxed);
  while (cur < lsn && !visible_lsn_.compare_exchange_weak(
                          cur, lsn, std::memory_order_release,
                          std::memory_order_relaxed)) {
  }
}

void MctStore::UpdateAttrValue(ElemId id, uint32_t name_id,
                               std::string_view value) {
  // A read-only store has only base elements, all in the flat table.
  MCTDB_CHECK_MSG(!versioned(), "UpdateAttrValue on a versioned store");
  MCTDB_CHECK(size_t{id} + 1 < attr_offsets_.size());
  const uint32_t value_id = InternValue(value);
  for (uint32_t i = attr_offsets_[id]; i < attr_offsets_[id + 1]; ++i) {
    AttrRecord& a = attr_records_[i];
    if (a.name_id == name_id) {
      a.value_id = value_id;
      ++update_page_writes_;  // the element's attribute page is rewritten
      return;
    }
  }
  MCTDB_CHECK_MSG(false, "UpdateAttrValue: attribute not present");
}

ElemId MctStore::AddInsertedElement(const ElementMeta& meta,
                                    std::span<const AttrRecord> records) {
  const ElemId id = static_cast<ElemId>(elements_.size());
  std::span<const AttrRecord> copy;
  if (!records.empty()) {
    auto* dst = reinterpret_cast<AttrRecord*>(attr_arena_.AllocateAligned(
        records.size_bytes(), alignof(AttrRecord)));
    std::uninitialized_copy(records.begin(), records.end(), dst);
    copy = {dst, records.size()};
  }
  // Records first: every id below elements_.size() has its span published.
  attrs_added_.push_back(copy);
  elements_.push_back(meta);
  for (const AttrRecord& rec : records) {
    ++num_attribute_nodes_;
    if (rec.has_content) ++num_content_nodes_;
  }
  return id;
}

// ---------------------------------------------------------------------------

StoreBuilder::StoreBuilder(const mct::MctSchema* schema,
                           const StoreOptions& options)
    : store_(std::unique_ptr<MctStore>(new MctStore())), options_(options) {
  if (options_.label_stride == 0) options_.label_stride = 1;
  store_->schema_ = schema;
  size_t colors = schema->num_colors();
  store_->postings_.resize(colors);
  for (auto& per_color : store_->postings_) {
    per_color.resize(schema->diagram().num_nodes());
  }
  store_->placements_.resize(colors);
  per_tag_entries_.resize(schema->diagram().num_nodes());
}

ElemId StoreBuilder::AddElement(er::NodeId er_node, uint32_t logical,
                                bool is_copy) {
  ElemId id = static_cast<ElemId>(store_->elements_.size());
  store_->elements_.push_back({er_node, logical, is_copy});
  return id;
}

void StoreBuilder::AddAttr(ElemId elem, uint32_t name_id, uint32_t value_id,
                           bool with_content) {
  MCTDB_CHECK(elem < store_->elements_.size());
  AttrRecord rec;
  rec.name_id = name_id;
  rec.value_id = value_id;
  rec.has_content = with_content;
  attrs_in_order_ = attrs_in_order_ &&
                    (attr_elems_.empty() || attr_elems_.back() <= elem);
  attr_records_.push_back(rec);
  attr_elems_.push_back(elem);
  ++store_->num_attribute_nodes_;
  if (with_content) ++store_->num_content_nodes_;
}

void StoreBuilder::BeginColor(mct::ColorId color) {
  MCTDB_CHECK(!in_color_);
  in_color_ = true;
  color_ = color;
  label_counter_ = 0;
  open_stack_.clear();
  entries_.clear();
  entry_tag_.clear();
  entry_parent_.clear();
  for (auto& v : per_tag_entries_) v.clear();
}

void StoreBuilder::Enter(ElemId elem) {
  MCTDB_CHECK(in_color_);
  const ElementMeta& meta = store_->elements_[elem];
  LabelEntry entry;
  // Labels advance by `label_stride` instead of 1, leaving unused integers
  // between consecutive labels: subtree inserts later consume them without
  // relabeling the color (DESIGN.md §13).
  MCTDB_CHECK_MSG(label_counter_ <= UINT32_MAX - options_.label_stride,
                  "interval label space exhausted at build time");
  label_counter_ += options_.label_stride;
  entry.elem = elem;
  entry.start = label_counter_;
  entry.level = static_cast<uint16_t>(open_stack_.size());
  entry.is_copy = meta.is_copy ? 1 : 0;
  entry.logical = meta.logical;
  entries_.push_back(entry);
  entry_tag_.push_back(meta.er_node);
  entry_parent_.push_back(open_stack_.empty() ? kInvalidElem
                                              : open_stack_.back().elem);
  open_stack_.push_back({elem, entries_.size() - 1});
}

void StoreBuilder::Leave(ElemId elem) {
  MCTDB_CHECK(in_color_ && !open_stack_.empty());
  MCTDB_CHECK(open_stack_.back().elem == elem);
  LabelEntry& entry = entries_[open_stack_.back().entry_index];
  MCTDB_CHECK_MSG(label_counter_ <= UINT32_MAX - options_.label_stride,
                  "interval label space exhausted at build time");
  label_counter_ += options_.label_stride;
  entry.end = label_counter_;
  open_stack_.pop_back();
}

void StoreBuilder::EndColor() {
  MCTDB_CHECK(in_color_ && open_stack_.empty());
  // Scatter entries to per-tag lists (Enter order == document order) and
  // record labels and parents. Every element placed so far has an id below
  // elements_.size(), so one resize fits the whole color.
  ColorPlacements& placed = store_->placements_[color_];
  placed.slots.resize(store_->elements_.size());
  for (size_t i = 0; i < entries_.size(); ++i) {
    per_tag_entries_[entry_tag_[i]].push_back(entries_[i]);
    placed.SetLabel(entries_[i]);
    placed.SetParent(entries_[i].elem, entry_parent_[i]);
  }
  for (size_t tag = 0; tag < per_tag_entries_.size(); ++tag) {
    if (per_tag_entries_[tag].empty()) continue;
    PostingWriter writer(&store_->pager_);
    for (const LabelEntry& e : per_tag_entries_[tag]) writer.Append(e);
    store_->postings_[color_][tag] =
        std::make_unique<PostingMeta>(writer.Finish());
  }
  in_color_ = false;
}

std::unique_ptr<MctStore> StoreBuilder::Finish() {
  MCTDB_CHECK(!in_color_);
  MCTDB_CHECK_MSG(attr_records_.size() <= UINT32_MAX,
                  "attribute record count exceeds the offset range");
  // Group the records by element: count each element's records, turn the
  // counts into offsets, then scatter in AddAttr order (a stable counting
  // sort, so each element keeps its records' order, which SaveStore
  // writes).
  std::vector<uint32_t>& offsets = store_->attr_offsets_;
  offsets.assign(store_->elements_.size() + 1, 0);
  for (ElemId elem : attr_elems_) ++offsets[size_t{elem} + 1];
  for (size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
  if (attrs_in_order_) {
    store_->attr_records_ = std::move(attr_records_);
  } else {
    std::vector<uint32_t> next(offsets.begin(), offsets.end() - 1);
    store_->attr_records_.resize(attr_records_.size());
    for (size_t i = 0; i < attr_records_.size(); ++i) {
      store_->attr_records_[next[attr_elems_[i]]++] = attr_records_[i];
    }
  }
  attr_records_ = {};
  attr_elems_ = {};
  store_->BuildKeyIndex();
  store_->pool_ = std::make_unique<ShardedBufferPool>(
      &store_->pager_, options_.buffer_pool_pages, /*num_shards=*/1);
  return std::move(store_);
}

}  // namespace mctdb::storage
