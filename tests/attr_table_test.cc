// The flat attribute table against independent references: every element's
// records against what the LogicalInstance defines for its ER node and
// logical id (built, reloaded and compacted stores), and versioned span
// lookups against values derived from the test's own op list at every
// snapshot.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "design/designer.h"
#include "instance/materialize.h"
#include "query/update_exec.h"
#include "storage/persist.h"
#include "storage/store.h"
#include "wal/checkpoint.h"
#include "wal/durable_store.h"
#include "workload/update_gen.h"
#include "workload/workload.h"

namespace mctdb::storage {
namespace {

using design::Strategy;
using er::NodeId;

struct Rec {
  std::string name;
  std::string value;
  bool has_content = false;
  bool operator==(const Rec& o) const {
    return std::tie(name, value, has_content) ==
           std::tie(o.name, o.value, o.has_content);
  }
};

std::ostream& operator<<(std::ostream& os, const Rec& r) {
  return os << r.name << "=" << r.value << (r.has_content ? "+text" : "");
}

std::vector<Rec> Actual(const MctStore& store, ElemId e) {
  std::vector<Rec> out;
  for (const AttrRecord& r : store.attrs(e)) {
    out.push_back(
        {store.attr_name(r.name_id), store.value(r.value_id), r.has_content});
  }
  return out;
}

const std::string* KeyName(const er::ErDiagram& d, NodeId node) {
  for (const er::Attribute& a : d.node(node).attributes) {
    if (a.is_key) return &a.name;
  }
  return nullptr;
}

/// The idref records of an element of `node`, in ref-edge order;
/// `partner_key` names the key each ref edge points at.
template <typename PartnerKey>
void AppendIdrefs(const mct::MctSchema& schema, NodeId node,
                  PartnerKey partner_key, std::vector<Rec>* out) {
  for (const mct::RefEdge& ref : schema.ref_edges()) {
    if (schema.occ(ref.from).er_node != node) continue;
    if (const std::string* key = partner_key(ref)) {
      out->push_back({ref.attr_name, *key, false});
    }
  }
}

/// What the logical instance defines for instance `inst` of `node`: every
/// declared attribute's AttrValue (keys carry no content node), then each
/// idref holding its endpoint's key.
std::vector<Rec> FromLogical(const mct::MctSchema& schema,
                             const instance::LogicalInstance& li, NodeId node,
                             uint32_t inst) {
  std::vector<Rec> out;
  const er::ErNode& meta = schema.diagram().node(node);
  for (size_t a = 0; a < meta.attributes.size(); ++a) {
    out.push_back({meta.attributes[a].name, li.AttrValue(node, inst, a),
                   !meta.attributes[a].is_key});
  }
  std::string key;
  AppendIdrefs(
      schema, node,
      [&](const mct::RefEdge& ref) {
        const er::ErEdge& e = schema.graph().edge(ref.er_edge);
        key = li.KeyValue(ref.target,
                          li.EndpointOf(e.rel, e.endpoint_index, inst));
        return &key;
      },
      &out);
  return out;
}

/// Expected records per (type, logical), derived from an op list alone:
/// base instances from the logical instance, inserted ones from their
/// specs, renames applied in op order.
class OpModel {
 public:
  OpModel(const mct::MctSchema& schema, const instance::LogicalInstance& li)
      : schema_(schema), li_(li) {}

  void Apply(const UpdateOp& op) {
    if (op.kind == UpdateOp::Kind::kRenameValue) {
      renamed_[{op.target_type, op.target_logical}][op.attr] = op.new_value;
    } else if (op.kind == UpdateOp::Kind::kInsertSubtree) {
      Insert(op, op.subtree, nullptr);
    }
  }

  bool IsInserted(NodeId node, uint32_t logical) const {
    return inserted_.count({node, logical}) != 0;
  }
  size_t renamed_instances() const { return renamed_.size(); }

  std::vector<Rec> Expected(NodeId node, uint32_t logical) const {
    auto it = inserted_.find({node, logical});
    std::vector<Rec> out = it != inserted_.end()
                               ? it->second
                               : FromLogical(schema_, li_, node, logical);
    auto renamed = renamed_.find({node, logical});
    if (renamed != renamed_.end()) {
      for (Rec& r : out) {
        auto v = renamed->second.find(r.name);
        if (v != renamed->second.end()) r.value = v->second;
      }
    }
    return out;
  }

 private:
  using Key = std::pair<NodeId, uint32_t>;

  const std::string* SpecKey(const SubtreeSpec& spec) const {
    const std::string* name = KeyName(schema_.diagram(), spec.type);
    if (name == nullptr) return nullptr;
    for (const SubtreeSpec::Attr& a : spec.attrs) {
      if (a.name == *name) return &a.value;
    }
    return nullptr;
  }

  /// Spec attributes, then one idref per ref edge leaving the type: to
  /// the op's target for the subtree root, else to the spec parent or a
  /// spec child of the referenced type.
  void Insert(const UpdateOp& op, const SubtreeSpec& spec,
              const SubtreeSpec* parent) {
    std::vector<Rec> recs;
    for (const SubtreeSpec::Attr& a : spec.attrs) {
      recs.push_back({a.name, a.value, a.with_content});
    }
    std::string target_key;
    AppendIdrefs(
        schema_, spec.type,
        [&](const mct::RefEdge& ref) -> const std::string* {
          if (parent == nullptr && ref.target == op.target_type) {
            auto it = inserted_keys_.find({op.target_type, op.target_logical});
            target_key = it != inserted_keys_.end()
                             ? it->second
                             : li_.KeyValue(op.target_type, op.target_logical);
            return &target_key;
          }
          const SubtreeSpec* partner = nullptr;
          if (parent != nullptr && parent->type == ref.target) {
            partner = parent;
          } else {
            for (const SubtreeSpec& c : spec.children) {
              if (c.type == ref.target) partner = &c;
            }
          }
          return partner == nullptr ? nullptr : SpecKey(*partner);
        },
        &recs);
    inserted_[{spec.type, spec.logical}] = std::move(recs);
    if (const std::string* key = SpecKey(spec)) {
      inserted_keys_[{spec.type, spec.logical}] = *key;
    }
    for (const SubtreeSpec& c : spec.children) Insert(op, c, &spec);
  }

  const mct::MctSchema& schema_;
  const instance::LogicalInstance& li_;
  std::map<Key, std::vector<Rec>> inserted_;
  std::map<Key, std::string> inserted_keys_;
  std::map<Key, std::map<std::string, std::string>> renamed_;
};

struct Fixture {
  workload::Workload w = workload::TpcwWorkload(0.05);
  er::ErGraph graph{w.diagram};
  design::Designer designer{graph};
  instance::LogicalInstance logical = instance::GenerateInstance(graph, w.gen);

  /// Asserts every element's span equals `model`; returns how many
  /// elements were checked.
  size_t CheckAll(const MctStore& store, const OpModel& model) {
    for (ElemId e = 0; e < store.num_elements(); ++e) {
      const ElementMeta& meta = store.element(e);
      EXPECT_EQ(Actual(store, e), model.Expected(meta.er_node, meta.logical))
          << store.schema().name() << " elem " << e << " ("
          << w.diagram.node(meta.er_node).name << "#" << meta.logical << ")";
      if (testing::Test::HasFailure()) return e;
    }
    return store.num_elements();
  }
};

TEST(AttrTableTest, BuiltAndReloadedStoresMatchTheLogicalInstance) {
  Fixture f;
  for (Strategy s : design::AllStrategies()) {
    mct::MctSchema schema = f.designer.Design(s);
    SCOPED_TRACE(schema.name());
    const OpModel model(schema, f.logical);
    auto built = instance::Materialize(f.logical, schema);
    ASSERT_GT(f.CheckAll(*built, model), 0u);

    const std::string path = testing::TempDir() + "/attr_table.mctdb";
    ASSERT_TRUE(SaveStore(*built, path).ok());
    auto loaded = LoadStore(schema, path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ((*loaded)->num_elements(), built->num_elements());
    f.CheckAll(**loaded, model);
    std::remove(path.c_str());
  }
}

TEST(AttrTableTest, CompactionFoldsRenamesAndInsertsIntoTheBase) {
  Fixture f;
  size_t inserted_checked = 0, renamed_instances = 0;
  for (Strategy s : design::AllStrategies()) {
    mct::MctSchema schema = f.designer.Design(s);
    SCOPED_TRACE(schema.name());
    auto durable =
        wal::DurableStore::Ephemeral(instance::Materialize(f.logical, schema));
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    workload::UpdateGenOptions gen;
    gen.num_ops = 24;
    OpModel model(schema, f.logical);
    query::UpdateExecutor exec(durable->get());
    for (const UpdateOp& op :
         workload::GenerateUpdateOps({schema}, f.logical, gen)) {
      auto r = exec.Execute(op);
      if (r.ok()) {
        model.Apply(op);
      } else {
        // A stream op this schema cannot place is skipped, as in replay.
        ASSERT_TRUE(r.status().IsNotSupported()) << r.status().ToString();
      }
    }
    renamed_instances += model.renamed_instances();

    auto compact = wal::CompactStore(*(*durable)->store(), {});
    ASSERT_TRUE(compact.ok()) << compact.status().ToString();
    EXPECT_FALSE((*compact)->versioned());
    ASSERT_GT(f.CheckAll(**compact, model), 0u);
    for (ElemId e = 0; e < (*compact)->num_elements(); ++e) {
      const ElementMeta& meta = (*compact)->element(e);
      if (model.IsInserted(meta.er_node, meta.logical)) ++inserted_checked;
    }
  }
  // The streams really inserted (and kept) elements and renamed values.
  EXPECT_GT(inserted_checked, 0u);
  EXPECT_GT(renamed_instances, 0u);
}

/// Renames several times over, some on inserted instances, and checks
/// AttrValueIds (one span per type and attribute) and AttrValueId at every
/// LSN against values derived from the op list.
TEST(AttrTableTest, SpanLookupsMatchTheOpListAtEverySnapshot) {
  Fixture f;
  mct::MctSchema schema = f.designer.Design(Strategy::kDeep);
  auto durable_or =
      wal::DurableStore::Ephemeral(instance::Materialize(f.logical, schema));
  ASSERT_TRUE(durable_or.ok()) << durable_or.status().ToString();
  wal::DurableStore& durable = **durable_or;
  const MctStore& store = *durable.store();
  const er::ErDiagram& d = f.w.diagram;
  const NodeId country = *d.FindNode("country");

  // Two inserts: the generator's first, and the same subtree with fresh
  // logical ids under the next parent instance (one parent's label gap
  // holds one such subtree).
  std::vector<UpdateOp> inserts;
  for (uint32_t wrap = 0; wrap < 2; ++wrap) {
    workload::UpdateGenOptions gen;
    gen.logical_id_base += wrap * 200000u;
    for (UpdateOp& op :
         workload::GenerateUpdateOps({schema}, f.logical, gen)) {
      if (op.kind != UpdateOp::Kind::kInsertSubtree) continue;
      op.target_logical += wrap;
      inserts.push_back(std::move(op));
      break;
    }
  }
  ASSERT_EQ(inserts.size(), 2u);
  // The inserted child entity and one of its non-key attributes.
  const SubtreeSpec& child = inserts[0].subtree.children.at(0);
  std::string child_attr;
  for (const SubtreeSpec::Attr& a : child.attrs) {
    if (a.name != *KeyName(d, child.type)) child_attr = a.name;
  }
  ASSERT_FALSE(child_attr.empty());

  auto rename = [](NodeId type, uint32_t logical, const std::string& attr,
                   const std::string& value) {
    UpdateOp op;
    op.kind = UpdateOp::Kind::kRenameValue;
    op.target_type = type;
    op.target_logical = logical;
    op.attr = attr;
    op.new_value = value;
    return op;
  };
  const std::vector<UpdateOp> ops = {
      inserts[0],
      rename(country, 0, "name", "Atlantis"),
      rename(country, 1, "name", "Japan"),
      rename(child.type, child.logical, child_attr, "first"),
      inserts[1],
      rename(country, 0, "name", "Lemuria"),
      rename(child.type, child.logical, child_attr, "second"),
      rename(country, 0, "name", "Japan"),
      rename(country, 1, "name", "Mu"),
  };

  const Lsn s0 = durable.snapshot();
  query::UpdateExecutor exec(&durable);
  std::vector<Lsn> lsns;
  for (const UpdateOp& op : ops) {
    auto r = exec.Execute(op);
    ASSERT_TRUE(r.ok()) << DebugString(op) << ": " << r.status().ToString();
    lsns.push_back(r->lsn);
  }

  std::vector<NodeId> types = {country};
  for (const UpdateOp& op : inserts) {
    std::vector<const SubtreeSpec*> stack = {&op.subtree};
    while (!stack.empty()) {
      const SubtreeSpec* s = stack.back();
      stack.pop_back();
      types.push_back(s->type);
      for (const SubtreeSpec& c : s->children) stack.push_back(&c);
    }
  }
  std::sort(types.begin(), types.end());
  types.erase(std::unique(types.begin(), types.end()), types.end());

  size_t checked = 0, renamed_seen = 0;
  for (Lsn snapshot = s0; snapshot <= lsns.back(); ++snapshot) {
    OpModel model(schema, f.logical);
    for (size_t i = 0; i < ops.size() && lsns[i] <= snapshot; ++i) {
      model.Apply(ops[i]);
    }
    for (NodeId type : types) {
      std::vector<LabelEntry> entries;
      for (ElemId e = 0; e < store.num_elements(); ++e) {
        if (store.element(e).er_node == type && store.ElementLive(e, snapshot)) {
          entries.emplace_back().elem = e;
        }
      }
      for (const er::Attribute& attr : d.node(type).attributes) {
        const uint32_t name_id = store.FindAttrName(attr.name);
        ASSERT_NE(name_id, UINT32_MAX) << attr.name;
        std::vector<uint32_t> ids(entries.size());
        store.AttrValueIds(entries, name_id, snapshot, ids.data());
        for (size_t i = 0; i < entries.size(); ++i) {
          const ElemId e = entries[i].elem;
          const ElementMeta& meta = store.element(e);
          const std::string* want = nullptr;
          const std::vector<Rec> expected = model.Expected(type, meta.logical);
          for (const Rec& r : expected) {
            if (r.name == attr.name) want = &r.value;
          }
          ASSERT_EQ(store.AttrValueId(e, name_id, snapshot), ids[i]);
          if (want == nullptr) {
            ASSERT_EQ(ids[i], UINT32_MAX);
            continue;
          }
          ASSERT_NE(ids[i], UINT32_MAX);
          ASSERT_EQ(store.value(ids[i]), *want)
              << d.node(type).name << "#" << meta.logical << "." << attr.name
              << " at lsn " << snapshot;
          if (ids[i] != store.AttrValueId(e, name_id, s0)) ++renamed_seen;
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 0u);
  EXPECT_GT(renamed_seen, 0u) << "the renames must be visible somewhere";
}

}  // namespace
}  // namespace mctdb::storage
