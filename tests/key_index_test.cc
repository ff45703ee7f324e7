// The key index behind MctStore::ElementsFor: per ER node, sorted arrays
// of (logical id -> elements) built from the element table. It must agree
// with a plain scan of that table on built, reloaded and compacted stores,
// and it must not be sized by the value of a logical id — inserts may use
// ids near 2^32 (under ASAN an array indexed by logical id would try to
// allocate 16 GB here).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "design/designer.h"
#include "instance/materialize.h"
#include "storage/persist.h"
#include "wal/durable_store.h"
#include "workload/update_gen.h"
#include "workload/workload.h"

namespace mctdb::storage {
namespace {

using design::Strategy;

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

struct World {
  workload::Workload w = workload::TpcwWorkload(0.03);
  er::ErGraph graph{w.diagram};
  design::Designer designer{graph};
  instance::LogicalInstance logical = instance::GenerateInstance(graph, w.gen);
};

/// ElementsFor equals a scan of the element table in id order for every
/// (node, logical) present, and is empty for ids past the instance range.
/// Returns how many logical instances have more than one element.
size_t ExpectMatchesScan(const MctStore& store,
                         const instance::LogicalInstance& logical) {
  std::map<std::pair<er::NodeId, uint32_t>, std::vector<ElemId>> scan;
  for (ElemId id = 0; id < store.num_elements(); ++id) {
    const ElementMeta& m = store.element(id);
    scan[{m.er_node, m.logical}].push_back(id);
  }
  size_t shared = 0;
  for (const auto& [key, elems] : scan) {
    EXPECT_EQ(store.ElementsFor(key.first, key.second), elems)
        << "node " << key.first << " logical " << key.second;
    shared += elems.size() > 1;
  }
  const size_t num_nodes = logical.diagram().num_nodes();
  for (er::NodeId n = 0; n < num_nodes; ++n) {
    for (uint32_t absent : {static_cast<uint32_t>(logical.count(n)),
                            0x7FFFFFFFu, 0xFFFFFFFFu}) {
      EXPECT_TRUE(store.ElementsFor(n, absent).empty())
          << "node " << n << " logical " << absent;
    }
  }
  EXPECT_TRUE(store.ElementsFor(static_cast<er::NodeId>(num_nodes), 0).empty());
  return shared;
}

TEST(KeyIndexTest, MatchesAScanBuiltAndReloaded) {
  World world;
  // DEEP and UNDR store redundant copies: several elements per logical id.
  for (Strategy strategy : {Strategy::kDeep, Strategy::kUndr}) {
    mct::MctSchema schema = world.designer.Design(strategy);
    SCOPED_TRACE(schema.name());
    auto built = instance::Materialize(world.logical, schema);
    EXPECT_GT(ExpectMatchesScan(*built, world.logical), 0u);
    std::string path = TempPath("key_index.mctdb");
    ASSERT_TRUE(SaveStore(*built, path).ok());
    auto loaded = LoadStore(schema, path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_GT(ExpectMatchesScan(**loaded, world.logical), 0u);
  }
}

void CheckInsertsNearTheTopOfTheIdSpace(const World& world,
                                        const mct::MctSchema& schema) {
  workload::UpdateGenOptions gen;
  gen.num_ops = 24;
  gen.logical_id_base = 0xFFFFFF00u;
  const std::vector<UpdateOp> ops =
      workload::GenerateUpdateOps({schema}, world.logical, gen);
  // Every inserted instance, and the ones the stream deletes again.
  std::set<std::pair<er::NodeId, uint32_t>> inserted;
  std::set<std::pair<er::NodeId, uint32_t>> deleted;
  for (const UpdateOp& op : ops) {
    if (op.kind == UpdateOp::Kind::kInsertSubtree) {
      inserted.insert({op.subtree.type, op.subtree.logical});
      for (const SubtreeSpec& child : op.subtree.children) {
        inserted.insert({child.type, child.logical});
      }
    } else if (op.kind == UpdateOp::Kind::kDeleteSubtree) {
      deleted.insert({op.target_type, op.target_logical});
    }
  }
  ASSERT_FALSE(inserted.empty());
  for (const auto& key : inserted) {
    ASSERT_GE(key.second, gen.logical_id_base);
  }

  auto expect_inserts = [&](const MctStore& store, Lsn snapshot,
                            const char* when) {
    for (const auto& key : inserted) {
      const bool live = deleted.count(key) == 0;
      EXPECT_EQ(store.ElementsFor(key.first, key.second, snapshot).empty(),
                !live)
          << when << ": node " << key.first << " logical " << key.second;
    }
  };

  std::string path = TempPath("key_index_wal.mctdb");
  {
    auto d = wal::DurableStore::Create(
        instance::Materialize(world.logical, schema), path);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    wal::DurableStore& store = **d;
    for (const UpdateOp& op : ops) {
      auto r = store.Apply(op);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    expect_inserts(*store.store(), store.snapshot(), "applied");
    auto cp = store.Checkpoint(wal::CheckpointMode::kRebaseLive);
    ASSERT_TRUE(cp.ok()) << cp.status().ToString();
    ASSERT_TRUE(cp->rebased);
    // The compacted base holds the inserts in its own key index.
    expect_inserts(*store.store(), store.snapshot(), "rebased");
    ExpectMatchesScan(*store.store(), world.logical);
  }
  auto reopened = wal::DurableStore::Open(schema, path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  expect_inserts(*(*reopened)->store(), (*reopened)->snapshot(), "reopened");
  ExpectMatchesScan(*(*reopened)->store(), world.logical);
}

TEST(KeyIndexTest, InsertsNearTheTopOfTheIdSpaceSurviveRebaseAndReopen) {
  World world;
  // DEEP stores redundant copies; MCMR takes three inserts.
  for (Strategy strategy : {Strategy::kDeep, Strategy::kMcmr}) {
    mct::MctSchema schema = world.designer.Design(strategy);
    SCOPED_TRACE(schema.name());
    CheckInsertsNearTheTopOfTheIdSpace(world, schema);
  }
}

}  // namespace
}  // namespace mctdb::storage
