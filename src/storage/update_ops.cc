#include "storage/update_ops.h"

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <unordered_set>

#include "common/logging.h"
#include "storage/delta.h"
#include "storage/store.h"

namespace mctdb::storage {

namespace {

// ---------------------------------------------------------------------------
// WAL payload codec: little-endian, length-prefixed, no padding.

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}
void PutStr(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

class PayloadReader {
 public:
  explicit PayloadReader(std::string_view s) : s_(s) {}

  uint8_t U8() {
    if (pos_ + 1 > s_.size()) return Fail<uint8_t>();
    return static_cast<uint8_t>(s_[pos_++]);
  }
  uint32_t U32() {
    if (pos_ + 4 > s_.size()) return Fail<uint32_t>();
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= uint32_t(static_cast<unsigned char>(s_[pos_ + i])) << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  std::string Str() {
    uint32_t n = U32();
    if (failed_ || pos_ + n > s_.size()) return Fail<std::string>();
    std::string v(s_.substr(pos_, n));
    pos_ += n;
    return v;
  }
  bool failed() const { return failed_; }
  bool exhausted() const { return pos_ == s_.size(); }

 private:
  template <typename T>
  T Fail() {
    failed_ = true;
    return T{};
  }
  std::string_view s_;
  size_t pos_ = 0;
  bool failed_ = false;
};

void EncodeSubtree(const SubtreeSpec& s, std::string* out) {
  PutU32(out, s.type);
  PutU32(out, s.logical);
  PutU32(out, static_cast<uint32_t>(s.attrs.size()));
  for (const SubtreeSpec::Attr& a : s.attrs) {
    PutStr(out, a.name);
    PutStr(out, a.value);
    PutU8(out, a.with_content ? 1 : 0);
  }
  PutU32(out, static_cast<uint32_t>(s.children.size()));
  for (const SubtreeSpec& c : s.children) EncodeSubtree(c, out);
}

bool DecodeSubtree(PayloadReader* r, SubtreeSpec* out, int depth) {
  if (depth > 64) return false;  // malicious/corrupt nesting
  out->type = r->U32();
  out->logical = r->U32();
  uint32_t nattrs = r->U32();
  if (r->failed() || nattrs > (1u << 20)) return false;
  out->attrs.resize(nattrs);
  for (SubtreeSpec::Attr& a : out->attrs) {
    a.name = r->Str();
    a.value = r->Str();
    a.with_content = r->U8() != 0;
  }
  uint32_t nchildren = r->U32();
  if (r->failed() || nchildren > (1u << 20)) return false;
  out->children.resize(nchildren);
  for (SubtreeSpec& c : out->children) {
    if (!DecodeSubtree(r, &c, depth + 1)) return false;
  }
  return !r->failed();
}

/// The type's declared key attribute name, or nullptr.
const std::string* KeyAttrName(const er::ErDiagram& d, er::NodeId node) {
  for (const er::Attribute& a : d.node(node).attributes) {
    if (a.is_key) return &a.name;
  }
  return nullptr;
}

}  // namespace

const char* UpdateKindName(UpdateOp::Kind kind) {
  switch (kind) {
    case UpdateOp::Kind::kInsertSubtree:
      return "U1";
    case UpdateOp::Kind::kDeleteSubtree:
      return "U2";
    case UpdateOp::Kind::kRenameValue:
      return "U3";
  }
  return "U?";
}

std::string DebugString(const UpdateOp& op) {
  std::string s = UpdateKindName(op.kind);
  switch (op.kind) {
    case UpdateOp::Kind::kInsertSubtree:
      s += " insert type " + std::to_string(op.subtree.type) + "#" +
           std::to_string(op.subtree.logical) + " under type " +
           std::to_string(op.target_type) + "#" +
           std::to_string(op.target_logical);
      break;
    case UpdateOp::Kind::kDeleteSubtree:
      s += " delete type " + std::to_string(op.target_type) + "#" +
           std::to_string(op.target_logical);
      break;
    case UpdateOp::Kind::kRenameValue:
      s += " rename " + op.attr + " of type " +
           std::to_string(op.target_type) + "#" +
           std::to_string(op.target_logical) + " to \"" + op.new_value +
           "\"";
      break;
  }
  return s;
}

void EncodeUpdateOp(const UpdateOp& op, std::string* out) {
  PutU8(out, static_cast<uint8_t>(op.kind));
  PutU32(out, op.target_type);
  PutU32(out, op.target_logical);
  switch (op.kind) {
    case UpdateOp::Kind::kInsertSubtree:
      EncodeSubtree(op.subtree, out);
      break;
    case UpdateOp::Kind::kDeleteSubtree:
      break;
    case UpdateOp::Kind::kRenameValue:
      PutStr(out, op.attr);
      PutStr(out, op.new_value);
      break;
  }
}

Result<UpdateOp> DecodeUpdateOp(std::string_view payload) {
  PayloadReader r(payload);
  UpdateOp op;
  uint8_t kind = r.U8();
  if (kind < 1 || kind > 3) {
    return Status::Corruption("update op: bad kind byte");
  }
  op.kind = static_cast<UpdateOp::Kind>(kind);
  op.target_type = r.U32();
  op.target_logical = r.U32();
  bool ok = true;
  switch (op.kind) {
    case UpdateOp::Kind::kInsertSubtree:
      ok = DecodeSubtree(&r, &op.subtree, 0);
      break;
    case UpdateOp::Kind::kDeleteSubtree:
      break;
    case UpdateOp::Kind::kRenameValue:
      op.attr = r.Str();
      op.new_value = r.Str();
      break;
  }
  if (!ok || r.failed() || !r.exhausted()) {
    return Status::Corruption("update op: malformed payload");
  }
  return op;
}

// ---------------------------------------------------------------------------
// Verification (schema-only).

namespace {

Status VerifyInsertNode(const mct::MctSchema& schema, const SubtreeSpec& node,
                        er::NodeId partner_type,
                        std::unordered_set<uint64_t>* logicals_seen) {
  const er::ErDiagram& diagram = schema.diagram();
  const er::ErGraph& graph = schema.graph();
  if (node.type >= diagram.num_nodes()) {
    return Status::InvalidArgument("insert: unknown node type");
  }
  const std::string& type_name = diagram.node(node.type).name;
  if (!logicals_seen
           ->insert((uint64_t{node.type} << 32) | node.logical)
           .second) {
    return Status::InvalidArgument("insert: duplicate new logical id for " +
                                   type_name);
  }
  // The nesting edge must exist in the ER graph.
  bool edge_found = false;
  for (er::EdgeId eid : graph.incident(node.type)) {
    if (graph.edge(eid).other(node.type) == partner_type) {
      edge_found = true;
      break;
    }
  }
  if (!edge_found) {
    return Status::InvalidArgument(
        "insert: no ER edge between " + type_name + " and " +
        diagram.node(partner_type).name);
  }
  // The key attribute must be in the spec (key index and value joins need
  // it on every schema).
  if (const std::string* key = KeyAttrName(diagram, node.type)) {
    bool has_key = false;
    for (const SubtreeSpec::Attr& a : node.attrs) has_key |= a.name == *key;
    if (!has_key) {
      return Status::InvalidArgument("insert: spec for " + type_name +
                                     " misses key attribute " + *key);
    }
  }
  // Supported placement class: every occurrence of the type is a root or
  // nests under the spec partner's type. Anything else would require
  // placements the applier cannot derive from the op.
  std::unordered_set<er::NodeId> spec_partners{partner_type};
  for (const SubtreeSpec& c : node.children) spec_partners.insert(c.type);
  for (mct::OccId oid : schema.OccurrencesOf(node.type)) {
    const mct::SchemaOcc& occ = schema.occ(oid);
    if (occ.is_root()) continue;
    if (schema.occ(occ.parent).er_node != partner_type) {
      return Status::NotSupported(
          "insert: " + type_name + " occurs under " +
          diagram.node(schema.occ(occ.parent).er_node).name + " in schema " +
          schema.name() + "; only root or " +
          diagram.node(partner_type).name + "-nested occurrences are "
          "supported");
    }
  }
  // Ref edges leaving the type must point at a spec partner (we can fill
  // those idrefs from the op); anything else is an association we cannot
  // realize.
  for (const mct::RefEdge& re : schema.ref_edges()) {
    if (schema.occ(re.from).er_node != node.type) continue;
    if (spec_partners.count(re.target) == 0) {
      return Status::NotSupported(
          "insert: " + type_name + " carries an idref to " +
          diagram.node(re.target).name + " outside the inserted subtree");
    }
  }
  for (const SubtreeSpec& c : node.children) {
    MCTDB_RETURN_IF_ERROR(
        VerifyInsertNode(schema, c, node.type, logicals_seen));
  }
  return Status::OK();
}

}  // namespace

Status VerifyUpdateOp(const mct::MctSchema& schema, const UpdateOp& op) {
  const er::ErDiagram& diagram = schema.diagram();
  if (op.target_type >= diagram.num_nodes()) {
    return Status::InvalidArgument("update op: unknown target type");
  }
  switch (op.kind) {
    case UpdateOp::Kind::kInsertSubtree: {
      std::unordered_set<uint64_t> logicals_seen;
      return VerifyInsertNode(schema, op.subtree, op.target_type,
                              &logicals_seen);
    }
    case UpdateOp::Kind::kDeleteSubtree:
      return Status::OK();
    case UpdateOp::Kind::kRenameValue: {
      for (const er::Attribute& a : diagram.node(op.target_type).attributes) {
        if (a.name != op.attr) continue;
        if (a.is_key) {
          return Status::InvalidArgument(
              "rename: " + op.attr + " is a key attribute (idref joins "
              "would dangle)");
        }
        return Status::OK();
      }
      return Status::InvalidArgument(
          "rename: " + diagram.node(op.target_type).name +
          " has no attribute " + op.attr);
    }
  }
  return Status::InvalidArgument("update op: bad kind");
}

// ---------------------------------------------------------------------------
// Application. All methods run with the delta mutex held exclusively; they
// read base state directly (MctStore friendship) instead of through the
// locking accessors. A walk over placements reads the base ones by start
// range (StoreDeltas::base_order) and the color's inserted ones in full,
// so an op costs its subtrees plus the inserts since the last checkpoint.

class UpdateApplier {
 public:
  UpdateApplier(MctStore* store, Lsn lsn)
      : s_(store), d_(store->deltas_.get()), lsn_(lsn) {}

  Result<ApplyStats> Apply(const UpdateOp& op) {
    std::unique_lock lk(d_->mu);
    switch (op.kind) {
      case UpdateOp::Kind::kInsertSubtree:
        return Insert(op);
      case UpdateOp::Kind::kDeleteSubtree:
        return Delete(op);
      case UpdateOp::Kind::kRenameValue:
        return Rename(op);
    }
    return Status::InvalidArgument("update op: bad kind");
  }

 private:
  size_t num_colors() const { return s_->placements_.size(); }

  bool IsRemoved(mct::ColorId c, ElemId elem) const {
    return d_->label_removed[c].count(elem) != 0;
  }

  /// Live label of `elem` in `c` at the latest applied state.
  bool LabelLocked(mct::ColorId c, ElemId elem, LabelEntry* out) const {
    if (IsRemoved(c, elem)) return false;
    if (const LabelEntry* base = s_->placements_[c].FindLabel(elem)) {
      *out = *base;
      return true;
    }
    auto ad = d_->label_added[c].find(elem);
    if (ad == d_->label_added[c].end()) return false;
    *out = ad->second.entry;
    return true;
  }

  /// The base placements of `c` whose start lies in [lo, hi], deleted
  /// ones included, in start order.
  std::span<const ElemId> BaseStartsIn(mct::ColorId c, uint32_t lo,
                                       uint32_t hi) const {
    const std::vector<ElemId>& order = d_->base_order[c];
    const std::vector<ColorPlacements::Slot>& slots = s_->placements_[c].slots;
    auto first = std::partition_point(
        order.begin(), order.end(),
        [&](ElemId e) { return slots[e].label.start < lo; });
    auto last = std::partition_point(
        first, order.end(),
        [&](ElemId e) { return slots[e].label.start <= hi; });
    return {first, last};
  }

  bool IsElementDeleted(ElemId elem) const {
    return d_->element_deleted.count(elem) != 0;
  }

  std::vector<ElemId> ElementsForLocked(er::NodeId type,
                                        uint32_t logical) const {
    std::span<const ElemId> base = s_->BaseElementsFor(type, logical);
    std::vector<ElemId> out(base.begin(), base.end());
    auto added = d_->key_index_added[type].find(logical);
    if (added != d_->key_index_added[type].end()) {
      for (const auto& [lsn, elem] : added->second) out.push_back(elem);
    }
    out.erase(std::remove_if(out.begin(), out.end(),
                             [&](ElemId e) { return IsElementDeleted(e); }),
              out.end());
    return out;
  }

  const std::string* AttrValueLocked(ElemId elem, uint32_t name_id) const {
    auto revs = d_->attr_revs.find(StoreDeltas::AttrKey(elem, name_id));
    if (revs != d_->attr_revs.end() && !revs->second.empty()) {
      return &s_->values_[revs->second.back().value_id];
    }
    for (const AttrRecord& a : s_->attrs(elem)) {
      if (a.name_id == name_id) return &s_->values_[a.value_id];
    }
    return nullptr;
  }

  // -- U3 -------------------------------------------------------------------

  Result<ApplyStats> Rename(const UpdateOp& op) {
    std::vector<ElemId> elems =
        ElementsForLocked(op.target_type, op.target_logical);
    if (elems.empty()) {
      return Status::NotFound("rename: no such instance");
    }
    auto it = s_->attr_name_index_.find(op.attr);
    if (it == s_->attr_name_index_.end()) {
      return Status::NotFound("rename: attribute never materialized: " +
                              op.attr);
    }
    uint32_t name_id = it->second;
    uint32_t value_id = s_->InternValue(op.new_value);
    ApplyStats stats;
    std::unordered_set<mct::ColorId> colors;
    for (ElemId elem : elems) {
      bool has = false;
      for (const AttrRecord& a : s_->attrs(elem)) has |= a.name_id == name_id;
      if (!has) continue;
      d_->attr_revs[StoreDeltas::AttrKey(elem, name_id)].push_back(
          {lsn_, value_id});
      ++stats.elements_touched;
      LabelEntry tmp;
      for (mct::ColorId c = 0; c < num_colors(); ++c) {
        if (LabelLocked(c, elem, &tmp)) colors.insert(c);
      }
    }
    if (stats.elements_touched == 0) {
      return Status::NotFound("rename: attribute absent on every element");
    }
    stats.colors_touched = colors.size();
    return stats;
  }

  // -- U2 -------------------------------------------------------------------

  Result<ApplyStats> Delete(const UpdateOp& op) {
    std::vector<ElemId> roots =
        ElementsForLocked(op.target_type, op.target_logical);
    if (roots.empty()) {
      return Status::NotFound("delete: no such instance");
    }
    ApplyStats stats;
    std::unordered_set<ElemId> victims;
    for (mct::ColorId c = 0; c < num_colors(); ++c) {
      // The target's placements as intervals [start, end]. Copies give
      // several; one nested in another adds nothing, so merge them.
      std::vector<std::pair<uint32_t, uint32_t>> ranges;
      LabelEntry le;
      for (ElemId r : roots) {
        if (LabelLocked(c, r, &le)) ranges.emplace_back(le.start, le.end);
      }
      if (ranges.empty()) continue;
      std::sort(ranges.begin(), ranges.end());
      size_t merged = 0;
      for (const auto& range : ranges) {
        if (merged > 0 && range.first <= ranges[merged - 1].second) {
          ranges[merged - 1].second =
              std::max(ranges[merged - 1].second, range.second);
        } else {
          ranges[merged++] = range;
        }
      }
      ranges.resize(merged);
      auto contained = [&](const LabelEntry& e) {
        for (const auto& [lo, hi] : ranges) {
          if (lo <= e.start && e.end <= hi) return true;
        }
        return false;
      };
      std::vector<LabelEntry> doomed;
      for (const auto& [lo, hi] : ranges) {
        std::span<const ElemId> subtree = BaseStartsIn(c, lo, hi);
        stats.placements_visited += subtree.size();
        for (ElemId elem : subtree) {
          const LabelEntry& label = s_->placements_[c].slots[elem].label;
          if (!IsRemoved(c, elem) && label.end <= hi) doomed.push_back(label);
        }
      }
      stats.placements_visited += d_->label_added[c].size();
      for (const auto& [elem, versioned_label] : d_->label_added[c]) {
        if (!IsRemoved(c, elem) && contained(versioned_label.entry)) {
          doomed.push_back(versioned_label.entry);
        }
      }
      for (const LabelEntry& label : doomed) {
        d_->label_removed[c][label.elem] = lsn_;
        d_->posting_removes[StoreDeltas::PostingKey(
                                c, s_->elements_[label.elem].er_node)]
            .push_back({lsn_, label});
        victims.insert(label.elem);
        ++stats.labels_touched;
      }
      if (!doomed.empty()) ++stats.colors_touched;
    }
    // An element dies when its last placement disappears.
    for (ElemId elem : victims) {
      bool alive = false;
      LabelEntry tmp;
      for (mct::ColorId c = 0; c < num_colors() && !alive; ++c) {
        alive = LabelLocked(c, elem, &tmp);
      }
      if (!alive) {
        d_->element_deleted[elem] = lsn_;
        ++stats.elements_touched;
      }
    }
    return stats;
  }

  // -- U1 -------------------------------------------------------------------

  /// Flattened spec node with per-schema extras resolved.
  struct NewNode {
    const SubtreeSpec* spec = nullptr;
    int parent = -1;  ///< index into nodes_, -1 for the subtree root
    /// Attr records to write on every element of this node (spec attrs +
    /// schema-derived idrefs), interned.
    std::vector<AttrRecord> attr_records;
    ElemId primary = kInvalidElem;
    std::vector<int> children;
  };

  /// Per (node, color) placement mode.
  enum class Mode : uint8_t { kAbsent, kUnder, kTop };

  void Flatten(const SubtreeSpec& spec, int parent, std::vector<NewNode>* out) {
    int index = static_cast<int>(out->size());
    out->push_back({});
    (*out)[index].spec = &spec;
    (*out)[index].parent = parent;
    if (parent >= 0) (*out)[parent].children.push_back(index);
    for (const SubtreeSpec& c : spec.children) Flatten(c, index, out);
  }

  /// Highest label value consumed strictly inside (lo, hi), the interval
  /// of a placement — removed placements keep occupying their values, so
  /// both base and added placements count regardless of tombstones. The
  /// intervals of a color nest, so a value inside (lo, hi) belongs to a
  /// placement whose start lies there too.
  uint32_t MaxLabelInRange(mct::ColorId c, uint32_t lo, uint32_t hi,
                           ApplyStats* stats) const {
    uint32_t best = lo;
    auto consider = [&](const LabelEntry& e) {
      if (e.start > lo && e.start < hi) best = std::max(best, e.start);
      if (e.end > lo && e.end < hi) best = std::max(best, e.end);
    };
    std::span<const ElemId> inside = BaseStartsIn(c, lo + 1, hi - 1);
    for (ElemId elem : inside) consider(s_->placements_[c].slots[elem].label);
    for (const auto& [elem, versioned_label] : d_->label_added[c]) {
      consider(versioned_label.entry);
    }
    stats->placements_visited += inside.size() + d_->label_added[c].size();
    return best;
  }

  ElemId CreateElement(const NewNode& node, bool is_copy) {
    ElemId id = s_->AddInsertedElement(
        {node.spec->type, node.spec->logical, is_copy}, node.attr_records);
    d_->element_created.emplace(id, lsn_);
    d_->key_index_added[node.spec->type][node.spec->logical].push_back(
        {lsn_, id});
    return id;
  }

  bool HasAnyLabel(mct::ColorId c, ElemId elem) const {
    // Tombstoned placements block relabeling too: label values must never
    // be reused within a color between checkpoints.
    return s_->placements_[c].FindLabel(elem) != nullptr ||
           d_->label_added[c].count(elem) != 0;
  }

  /// Places the kUnder-connected group rooted at `root_index` with labels
  /// drawn from (lo, hi) (hi == 0 means unbounded top-level placement).
  /// `parent_elem` / `base_level` anchor the group. Returns false when the
  /// label gap cannot hold the group.
  bool PlaceGroup(mct::ColorId c, const std::vector<Mode>& mode,
                  std::vector<NewNode>* nodes, int root_index,
                  ElemId parent_elem, uint16_t base_level, uint32_t lo,
                  uint32_t hi, ApplyStats* stats) {
    // Count group members (kUnder-chained from root_index).
    std::vector<int> members;
    std::vector<int> stack{root_index};
    while (!stack.empty()) {
      int i = stack.back();
      stack.pop_back();
      members.push_back(i);
      for (int ch : (*nodes)[i].children) {
        if (mode[ch] == Mode::kUnder) stack.push_back(ch);
      }
    }
    uint32_t need = static_cast<uint32_t>(2 * members.size());
    uint32_t spread;
    if (hi == 0) {
      spread = 8;  // top-level: open-ended label space after the high water
    } else {
      uint32_t avail = hi - lo - 1;
      if (avail < need) return false;
      spread = std::min<uint32_t>(avail / need, 8);
      if (spread == 0) spread = 1;
    }
    // DFS in spec order, assigning elements and labels.
    uint32_t v = lo;
    std::unordered_set<int> group(members.begin(), members.end());
    // Recursive lambda over the spec structure.
    auto place = [&](auto&& self, int ni, ElemId parent, uint16_t level)
        -> void {
      NewNode& n = (*nodes)[ni];
      ElemId eid;
      bool is_copy;
      if (n.primary == kInvalidElem) {
        n.primary = CreateElement(n, /*is_copy=*/false);
        eid = n.primary;
        is_copy = false;
        ++stats->elements_touched;
      } else if (!HasAnyLabel(c, n.primary)) {
        eid = n.primary;
        is_copy = false;
      } else {
        eid = CreateElement(n, /*is_copy=*/true);
        is_copy = true;
        ++stats->elements_touched;
      }
      LabelEntry entry;
      entry.elem = eid;
      v += spread;
      entry.start = v;
      entry.level = level;
      entry.is_copy = is_copy ? 1 : 0;
      entry.logical = n.spec->logical;
      for (int ch : n.children) {
        if (group.count(ch) != 0) self(self, ch, eid, level + 1);
      }
      v += spread;
      entry.end = v;
      d_->label_added[c].emplace(eid, DeltaPostingEntry{lsn_, entry});
      if (parent != kInvalidElem) d_->parent_added[c][eid] = parent;
      d_->posting_adds[StoreDeltas::PostingKey(c, n.spec->type)].push_back(
          {lsn_, entry});
      if (hi == 0) {
        d_->label_high_water[c] = std::max(d_->label_high_water[c], v);
      }
      ++stats->labels_touched;
    };
    place(place, root_index, parent_elem, base_level);
    if (hi != 0) {
      // Residual headroom above the group just placed: the gap-pressure
      // signal. `v` is the highest value consumed, labels are drawn
      // strictly below `hi`.
      uint32_t headroom = hi > v + 1 ? hi - v - 1 : 0;
      stats->min_free_gap = std::min(stats->min_free_gap, headroom);
    }
    return true;
  }

  Result<ApplyStats> Insert(const UpdateOp& op) {
    const mct::MctSchema& schema = *s_->schema_;
    MCTDB_RETURN_IF_ERROR(VerifyUpdateOp(schema, op));
    std::vector<ElemId> parents =
        ElementsForLocked(op.target_type, op.target_logical);
    if (parents.empty()) {
      return Status::NotFound("insert: parent instance not found");
    }
    std::vector<NewNode> nodes;
    Flatten(op.subtree, -1, &nodes);
    for (const NewNode& n : nodes) {
      if (!ElementsForLocked(n.spec->type, n.spec->logical).empty()) {
        return Status::AlreadyExists(
            "insert: logical id already in use for type " +
            schema.diagram().node(n.spec->type).name);
      }
    }
    // Resolve attr records per node: spec attrs plus schema-derived idref
    // attributes (the value-join realization of the nesting edges).
    for (NewNode& n : nodes) {
      for (const SubtreeSpec::Attr& a : n.spec->attrs) {
        AttrRecord rec;
        rec.name_id = s_->InternAttrName(a.name);
        rec.value_id = s_->InternValue(a.value);
        rec.has_content = a.with_content;
        n.attr_records.push_back(rec);
      }
      for (const mct::RefEdge& re : schema.ref_edges()) {
        if (schema.occ(re.from).er_node != n.spec->type) continue;
        // Verify guaranteed the target is the spec partner or a spec child.
        std::string key_value;
        const std::string* partner_key = nullptr;
        if (n.parent < 0 && re.target == op.target_type) {
          const std::string* key =
              KeyAttrName(schema.diagram(), op.target_type);
          if (key == nullptr) continue;
          auto key_it = s_->attr_name_index_.find(*key);
          if (key_it == s_->attr_name_index_.end()) continue;
          partner_key = AttrValueLocked(parents[0], key_it->second);
        } else {
          // Parent-spec or child-spec partner: read the key from the spec.
          const NewNode* partner = nullptr;
          if (n.parent >= 0 && nodes[n.parent].spec->type == re.target) {
            partner = &nodes[n.parent];
          } else {
            for (int ch : n.children) {
              if (nodes[ch].spec->type == re.target) partner = &nodes[ch];
            }
          }
          if (partner == nullptr) continue;
          const std::string* key =
              KeyAttrName(schema.diagram(), re.target);
          if (key == nullptr) continue;
          for (const SubtreeSpec::Attr& a : partner->spec->attrs) {
            if (a.name == *key) {
              key_value = a.value;
              partner_key = &key_value;
            }
          }
        }
        if (partner_key == nullptr) continue;
        AttrRecord rec;
        rec.name_id = s_->InternAttrName(re.attr_name);
        rec.value_id = s_->InternValue(*partner_key);
        rec.has_content = false;
        n.attr_records.push_back(rec);
      }
    }
    // Per-color placement modes.
    ApplyStats stats;
    for (mct::ColorId c = 0; c < num_colors(); ++c) {
      std::vector<Mode> mode(nodes.size(), Mode::kAbsent);
      for (size_t i = 0; i < nodes.size(); ++i) {
        er::NodeId type = nodes[i].spec->type;
        er::NodeId partner = nodes[i].parent < 0
                                 ? op.target_type
                                 : nodes[nodes[i].parent].spec->type;
        bool structural = false;
        bool at_root = false;
        for (mct::OccId oid : schema.OccurrencesOf(type)) {
          const mct::SchemaOcc& occ = schema.occ(oid);
          if (occ.color != c) continue;
          if (occ.is_root()) {
            at_root = true;
          } else if (schema.occ(occ.parent).er_node == partner) {
            structural = true;
          }
        }
        // Structural nesting requires the partner to be present in the
        // color; the op parent always is when it has a label here.
        if (structural &&
            (nodes[i].parent < 0 || mode[nodes[i].parent] != Mode::kAbsent)) {
          mode[i] = Mode::kUnder;
        } else if (at_root) {
          mode[i] = Mode::kTop;
        }
      }
      bool color_touched = false;
      // Parent-anchored groups: one per live placement of the parent
      // instance, placements in document order (deterministic replay).
      if (mode[0] == Mode::kUnder) {
        std::vector<LabelEntry> parent_labels;
        LabelEntry le;
        for (ElemId p : parents) {
          if (LabelLocked(c, p, &le)) parent_labels.push_back(le);
        }
        std::sort(parent_labels.begin(), parent_labels.end(),
                  [](const LabelEntry& a, const LabelEntry& b) {
                    return a.start < b.start;
                  });
        for (const LabelEntry& pl : parent_labels) {
          uint32_t lo = MaxLabelInRange(c, pl.start, pl.end, &stats);
          if (!PlaceGroup(c, mode, &nodes, 0, pl.elem,
                          static_cast<uint16_t>(pl.level + 1), lo, pl.end,
                          &stats)) {
            return Status::ResourceExhausted(
                "insert: interval-label gap exhausted under parent in "
                "color " +
                std::to_string(c) + "; checkpoint the store to relabel");
          }
          color_touched = true;
        }
      }
      // Top-level groups: once per color.
      for (size_t i = 0; i < nodes.size(); ++i) {
        if (mode[i] != Mode::kTop) continue;
        uint32_t lo = d_->label_high_water[c];
        if (!PlaceGroup(c, mode, &nodes, static_cast<int>(i), kInvalidElem,
                        /*base_level=*/0, lo, /*hi=*/0, &stats)) {
          return Status::ResourceExhausted("insert: label space exhausted");
        }
        color_touched = true;
      }
      if (color_touched) ++stats.colors_touched;
    }
    if (stats.labels_touched == 0) {
      return Status::NotSupported(
          "insert: no color realizes the nesting edge for this schema");
    }
    return stats;
  }

  MctStore* s_;
  StoreDeltas* d_;
  Lsn lsn_;
};

Result<ApplyStats> ApplyUpdateOp(MctStore* store, const UpdateOp& op,
                                 Lsn lsn) {
  if (!store->versioned()) {
    return Status::Internal("ApplyUpdateOp: store has no versioning enabled");
  }
  UpdateApplier applier(store, lsn);
  return applier.Apply(op);
}

}  // namespace mctdb::storage
