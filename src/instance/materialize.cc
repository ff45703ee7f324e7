#include "instance/materialize.h"

#include <algorithm>
#include <array>
#include <vector>

#include "common/logging.h"

namespace mctdb::instance {

namespace {

/// A dictionary id not resolved yet.
constexpr uint32_t kUnresolved = UINT32_MAX;

class Materializer {
 public:
  Materializer(const LogicalInstance& logical, const mct::MctSchema& schema,
               const MaterializeOptions& options)
      : logical_(logical),
        schema_(schema),
        graph_(schema.graph()),
        options_(options),
        builder_(&schema, options.store) {
    const size_t num_nodes = schema.diagram().num_nodes();
    // Ref edges grouped by ER node so idref attributes are attached when
    // the relationship element is created.
    refs_by_node_.resize(num_nodes);
    for (const mct::RefEdge& ref : schema.ref_edges()) {
      refs_by_node_[schema.occ(ref.from).er_node].push_back({&ref});
    }
    attr_name_ids_.resize(num_nodes);
    for (er::NodeId n = 0; n < num_nodes; ++n) {
      attr_name_ids_[n].assign(schema.diagram().node(n).attributes.size(),
                               kUnresolved);
    }
    // Dense per-instance state: (node, instance) and (occurrence,
    // instance) pairs map to offsets into flat arrays.
    node_base_.resize(num_nodes + 1, 0);
    for (er::NodeId n = 0; n < num_nodes; ++n) {
      node_base_[n + 1] = node_base_[n] + logical.count(n);
    }
    shared_elems_.assign(node_base_[num_nodes], storage::kInvalidElem);
    color_stamp_.assign(node_base_[num_nodes], 0);
    key_value_ids_.assign(node_base_[num_nodes], kUnresolved);
    int_value_ids_.fill(kUnresolved);
    word_value_ids_.fill(kUnresolved);
    const auto& occs = schema.occurrences();
    occ_base_.resize(occs.size() + 1, 0);
    for (size_t o = 0; o < occs.size(); ++o) {
      occ_base_[o + 1] = occ_base_[o] + logical.count(occs[o].er_node);
    }
    placed_at_.assign(occ_base_[occs.size()], 0);
  }

  std::unique_ptr<storage::MctStore> Run() {
    for (mct::ColorId c = 0; c < schema_.num_colors(); ++c) {
      builder_.BeginColor(c);
      // Stamps from earlier colors no longer match: nothing to clear.
      stamp_ = uint32_t{c} + 1;
      for (mct::OccId root : schema_.roots(c)) {
        er::NodeId node = schema_.occ(root).er_node;
        for (uint32_t inst = 0; inst < logical_.count(node); ++inst) {
          Place(root, inst);
        }
      }
      // §4.2: instances without a parent (partial participation) must still
      // be stored — "expecting instances not just rooted at X, but also
      // allowing instances rooted at Y". Every instance not yet placed at
      // a CLEAN occurrence of its type becomes an extra top-level tree
      // there (with the occurrence's full subtree), so every clean
      // occurrence covers every instance and every association pair — the
      // invariant the planner's chain matching relies on. Completion runs
      // shallow-first so an orphan ancestor's fragment places its
      // descendants before they are considered on their own.
      std::vector<std::pair<size_t, mct::OccId>> clean;
      for (const mct::SchemaOcc& o : schema_.occurrences()) {
        if (o.color == c && schema_.IsCleanOcc(o.id)) {
          clean.emplace_back(schema_.Depth(o.id), o.id);
        }
      }
      std::sort(clean.begin(), clean.end());
      for (const auto& [depth, occ_id] : clean) {
        er::NodeId node = schema_.occ(occ_id).er_node;
        for (uint32_t inst = 0; inst < logical_.count(node); ++inst) {
          if (placed_at_[occ_base_[occ_id] + inst]) continue;
          Place(occ_id, inst);
        }
      }
      builder_.EndColor();
    }
    return builder_.Finish();
  }

 private:
  storage::ElemId ObtainElement(er::NodeId node, uint32_t inst) {
    const size_t key = node_base_[node] + inst;
    const bool first_in_color = color_stamp_[key] != stamp_;
    color_stamp_[key] = stamp_;
    storage::ElemId& shared = shared_elems_[key];
    if (shared == storage::kInvalidElem) {
      shared = NewElement(node, inst, /*is_copy=*/false);
      return shared;
    }
    // The shared element's placement in this color, or, when it is already
    // placed here, a redundant copy with its own records.
    return first_in_color ? shared : NewElement(node, inst, /*is_copy=*/true);
  }

  storage::ElemId NewElement(er::NodeId node, uint32_t inst, bool is_copy) {
    storage::ElemId elem = builder_.AddElement(node, inst, is_copy);
    const er::ErNode& meta = schema_.diagram().node(node);
    std::vector<uint32_t>& name_ids = attr_name_ids_[node];
    for (size_t a = 0; a < meta.attributes.size(); ++a) {
      const er::Attribute& attr = meta.attributes[a];
      if (name_ids[a] == kUnresolved) {
        name_ids[a] = builder_.InternAttrName(attr.name);
      }
      // Key attributes are id-valued (no separate content node); data
      // attributes own a content node (Table 1 distinguishes the counts).
      builder_.AddAttr(elem, name_ids[a],
                       ValueId(logical_.AttrValueRef(node, inst, a)),
                       /*with_content=*/!attr.is_key);
    }
    for (RefSlot& slot : refs_by_node_[node]) {
      // The relationship instance's endpoint on the referenced side.
      const er::ErEdge& e = graph_.edge(slot.ref->er_edge);
      uint32_t target_inst = logical_.EndpointOf(e.rel, e.endpoint_index, inst);
      if (slot.name_id == kUnresolved) {
        slot.name_id = builder_.InternAttrName(slot.ref->attr_name);
      }
      builder_.AddAttr(
          elem, slot.name_id,
          ValueId(LogicalInstance::KeyValueRef(slot.ref->target, target_inst)),
          /*with_content=*/false);
    }
    return elem;
  }

  /// The store's id for a value identity. Its string is rendered and
  /// interned only the first time the identity comes up: the order in
  /// which interning every record's string assigned ids, so dictionaries
  /// and images do not depend on this shortcut.
  uint32_t ValueId(const LogicalInstance::ValueRef& value) {
    uint32_t* slot = nullptr;
    switch (value.kind) {
      case LogicalInstance::ValueRef::Kind::kKey:
        slot = &key_value_ids_[node_base_[value.node] + value.index];
        break;
      case LogicalInstance::ValueRef::Kind::kInt:
        slot = &int_value_ids_[value.index];
        break;
      case LogicalInstance::ValueRef::Kind::kWord:
        slot = &word_value_ids_[value.index];
        break;
    }
    if (*slot == kUnresolved) {
      *slot = builder_.InternValue(logical_.Render(value));
    }
    return *slot;
  }

  void Place(mct::OccId occ_id, uint32_t inst) {
    if (++placements_ > options_.max_placements) {
      MCTDB_CHECK_MSG(false, "materialization placement cap exceeded");
    }
    placed_at_[occ_base_[occ_id] + inst] = 1;
    const mct::SchemaOcc& occ = schema_.occ(occ_id);
    storage::ElemId elem = ObtainElement(occ.er_node, inst);
    builder_.Enter(elem);
    for (mct::OccId child_id : occ.children) {
      const mct::SchemaOcc& child = schema_.occ(child_id);
      const er::ErEdge& edge = graph_.edge(child.via_edge);
      if (child.er_node == edge.rel) {
        // parent = endpoint: one child per relationship instance the parent
        // instance participates in.
        for (uint32_t rel_inst : logical_.RelsOf(edge.id, inst)) {
          Place(child_id, rel_inst);
        }
      } else {
        // parent = relationship: exactly one endpoint instance.
        Place(child_id,
              logical_.EndpointOf(edge.rel, edge.endpoint_index, inst));
      }
    }
    builder_.Leave(elem);
  }

  const LogicalInstance& logical_;
  const mct::MctSchema& schema_;
  const er::ErGraph& graph_;
  const MaterializeOptions& options_;
  storage::StoreBuilder builder_;

  /// (node, instance) is at node_base_[node] + instance in the arrays below.
  std::vector<size_t> node_base_;
  /// The instance's shared element; kInvalidElem until first placed.
  std::vector<storage::ElemId> shared_elems_;
  /// stamp_ of the last color that placed the instance (0 = none yet).
  std::vector<uint32_t> color_stamp_;
  uint32_t stamp_ = 0;
  /// (occurrence, instance) is at occ_base_[occ] + instance in placed_at_.
  /// An occurrence belongs to one color, so a flag placed in one color
  /// never needs clearing for the next.
  std::vector<size_t> occ_base_;
  std::vector<uint8_t> placed_at_;
  /// Dictionary ids by value identity (kUnresolved until first seen):
  /// keys at node_base_[node] + instance, then ints, then words.
  std::vector<uint32_t> key_value_ids_;
  std::array<uint32_t, LogicalInstance::kIntValues> int_value_ids_;
  std::array<uint32_t, LogicalInstance::kVocabWords> word_value_ids_;
  /// attr_name_ids_[node][a]: name id of the node's attribute a.
  std::vector<std::vector<uint32_t>> attr_name_ids_;
  /// A ref edge and the name id of its idref attribute.
  struct RefSlot {
    const mct::RefEdge* ref;
    uint32_t name_id = kUnresolved;
  };
  /// ref_edges by the ER node whose elements carry the idref.
  std::vector<std::vector<RefSlot>> refs_by_node_;
  size_t placements_ = 0;
};

}  // namespace

std::unique_ptr<storage::MctStore> Materialize(
    const LogicalInstance& logical, const mct::MctSchema& schema,
    const MaterializeOptions& options) {
  Materializer m(logical, schema, options);
  return m.Run();
}

}  // namespace mctdb::instance
