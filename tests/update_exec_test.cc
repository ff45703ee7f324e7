#include "query/update_exec.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/plan_verify.h"
#include "design/designer.h"
#include "instance/materialize.h"
#include "obs/exec_stats.h"
#include "query/executor.h"
#include "query/planner.h"
#include "storage/update_ops.h"
#include "wal/durable_store.h"
#include "workload/update_gen.h"
#include "workload/workload.h"

namespace mctdb::query {
namespace {

using design::Strategy;

struct Fixture {
  workload::Workload w = workload::TpcwWorkload(0.02);
  er::ErGraph graph{w.diagram};
  design::Designer designer{graph};
  instance::LogicalInstance logical = instance::GenerateInstance(graph, w.gen);

  std::unique_ptr<wal::DurableStore> MakeDurable(const mct::MctSchema& s) {
    auto d = wal::DurableStore::Ephemeral(instance::Materialize(logical, s));
    EXPECT_TRUE(d.ok()) << d.status().ToString();
    return std::move(*d);
  }
};

TEST(UpdateExecTest, StreamAppliesAndAdvancesSnapshots) {
  Fixture f;
  mct::MctSchema schema = f.designer.Design(Strategy::kMcmr);
  auto durable = f.MakeDurable(schema);
  std::vector<mct::MctSchema> schemas{schema};
  workload::UpdateGenOptions gen;
  gen.num_ops = 12;
  auto ops = workload::GenerateUpdateOps(schemas, f.logical, gen);
  ASSERT_FALSE(ops.empty());

  UpdateExecutor exec(durable.get());
  Lsn last = kNoLsn;
  for (const auto& op : ops) {
    auto r = exec.Execute(op);
    ASSERT_TRUE(r.ok()) << storage::DebugString(op) << ": "
                        << r.status().ToString();
    EXPECT_GT(r->lsn, last);  // LSNs strictly increase per op
    last = r->lsn;
    EXPECT_GE(r->wal_appends, 1u);  // redo logged before dirtying
    // The op is durable (and thus visible) by the time Execute returns.
    EXPECT_GE(durable->snapshot(), r->lsn);
  }
  EXPECT_EQ(durable->wal_appends(), ops.size());
}

TEST(UpdateExecTest, InsertIsQueryVisibleAndDeleteRemovesIt) {
  Fixture f;
  mct::MctSchema schema = f.designer.Design(Strategy::kEn);
  auto durable = f.MakeDurable(schema);
  std::vector<mct::MctSchema> schemas{schema};
  workload::UpdateGenOptions gen;
  gen.num_ops = 8;
  auto ops = workload::GenerateUpdateOps(schemas, f.logical, gen);

  const storage::UpdateOp* insert = nullptr;
  const storage::UpdateOp* del = nullptr;
  for (const auto& op : ops) {
    if (op.kind == storage::UpdateOp::Kind::kInsertSubtree &&
        insert == nullptr) {
      insert = &op;
    }
    if (op.kind == storage::UpdateOp::Kind::kDeleteSubtree) del = &op;
  }
  ASSERT_NE(insert, nullptr);
  ASSERT_NE(del, nullptr);
  // The generator deletes only stream-inserted children.
  ASSERT_EQ(del->target_logical, insert->subtree.children[0].logical);

  UpdateExecutor exec(durable.get());
  auto ins = exec.Execute(*insert);
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  EXPECT_GT(ins->stats.elements_touched, 0u);

  // The inserted instances are visible to the applier's own index:
  // re-inserting the same logical ids collides.
  auto again = exec.Execute(*insert);
  EXPECT_TRUE(again.status().IsAlreadyExists())
      << again.status().ToString();

  // The delete finds the inserted child... once.
  auto gone = exec.Execute(*del);
  ASSERT_TRUE(gone.ok()) << gone.status().ToString();
  EXPECT_GT(gone->stats.elements_touched, 0u);
  auto gone_again = exec.Execute(*del);
  EXPECT_TRUE(gone_again.status().IsNotFound())
      << gone_again.status().ToString();
}

TEST(UpdateExecTest, TraceCarriesWalStages) {
  Fixture f;
  mct::MctSchema schema = f.designer.Design(Strategy::kMcmr);
  auto durable = f.MakeDurable(schema);
  std::vector<mct::MctSchema> schemas{schema};
  auto ops = workload::GenerateUpdateOps(schemas, f.logical, {});
  ASSERT_FALSE(ops.empty());

  UpdateExecutor exec(durable.get());
  auto r = exec.Execute(ops[0]);
  ASSERT_TRUE(r.ok());
  bool saw_append = false, saw_commit = false, saw_update = false;
  for (const obs::Span& child : r->trace.children) {
    if (child.kind == obs::StageKind::kWal && child.label == "append") {
      saw_append = true;
    }
    if (child.kind == obs::StageKind::kWal &&
        child.label == "group_commit") {
      saw_commit = true;
    }
    if (child.kind == obs::StageKind::kUpdate) saw_update = true;
  }
  EXPECT_TRUE(saw_append);
  EXPECT_TRUE(saw_commit);
  EXPECT_TRUE(saw_update);
}

TEST(UpdateExecTest, VerifierRejectsKeyRenameWithPln011) {
  Fixture f;
  mct::MctSchema schema = f.designer.Design(Strategy::kMcmr);

  // Find an entity with a key attribute and try to rename it.
  storage::UpdateOp op;
  op.kind = storage::UpdateOp::Kind::kRenameValue;
  for (const er::ErNode& node : f.w.diagram.nodes()) {
    for (const er::Attribute& a : node.attributes) {
      if (a.is_key) {
        op.target_type = node.id;
        op.attr = a.name;
        break;
      }
    }
    if (op.target_type != er::kInvalidNode) break;
  }
  ASSERT_NE(op.target_type, er::kInvalidNode);
  op.new_value = "clobbered";

  analysis::DiagnosticReport report = analysis::VerifyUpdate(schema, op);
  ASSERT_TRUE(report.has_errors());
  EXPECT_EQ(report.diagnostics()[0].code, "PLN011");

  // The executor refuses before touching the WAL or the store.
  auto durable = f.MakeDurable(schema);
  UpdateExecutor exec(durable.get());
  auto r = exec.Execute(op);
  ASSERT_TRUE(r.status().IsInvalidArgument());
  EXPECT_NE(r.status().message().find("PLN011"), std::string::npos);
  EXPECT_EQ(durable->wal_appends(), 0u);
}

TEST(UpdateExecTest, UnsupportedPlacementReportsPln012) {
  Fixture f;
  // DEEP nests aggressively, so some relationship orientation is bound to
  // put the inserted type under a non-target parent (the unsupported
  // class). Search for it and check the diagnostic mapping.
  mct::MctSchema schema = f.designer.Design(Strategy::kDeep);
  const storage::UpdateOp* found = nullptr;
  storage::UpdateOp candidate;
  for (const er::ErNode& rel : f.w.diagram.nodes()) {
    if (!rel.is_relationship()) continue;
    for (int side = 0; side < 2; ++side) {
      storage::UpdateOp op;
      op.kind = storage::UpdateOp::Kind::kInsertSubtree;
      op.target_type = rel.endpoints[side].target;
      op.target_logical = 0;
      op.subtree.type = rel.id;
      op.subtree.logical = 9000000;
      for (const er::Attribute& a :
           f.w.diagram.node(rel.id).attributes) {
        op.subtree.attrs.push_back({a.name, "v", !a.is_key});
      }
      Status s = storage::VerifyUpdateOp(schema, op);
      if (s.IsNotSupported()) {
        candidate = op;
        found = &candidate;
        break;
      }
    }
    if (found != nullptr) break;
  }
  ASSERT_NE(found, nullptr)
      << "expected some orientation to be unsupported under DEEP";
  analysis::DiagnosticReport report = analysis::VerifyUpdate(schema, *found);
  ASSERT_TRUE(report.has_errors());
  EXPECT_EQ(report.diagnostics()[0].code, "PLN012");
}

TEST(UpdateExecTest, SchemaInvalidOpRefusedBeforeWalAppend) {
  // DurableStore::Apply verifies ahead of the WAL append: a schema-invalid
  // op must come back InvalidArgument (PLN011) with wal_appends unchanged,
  // so the log only holds records the verifier accepted.
  Fixture f;
  mct::MctSchema schema = f.designer.Design(Strategy::kEn);
  auto durable = f.MakeDurable(schema);
  ASSERT_EQ(durable->wal_appends(), 0u);

  er::NodeId country = *f.w.diagram.FindNode("country");
  const er::Attribute* key = nullptr;
  const er::Attribute* nonkey = nullptr;
  for (const er::Attribute& a : f.w.diagram.node(country).attributes) {
    (a.is_key ? key : nonkey) = &a;
  }
  ASSERT_NE(key, nullptr);
  ASSERT_NE(nonkey, nullptr);

  std::vector<storage::UpdateOp> bad;
  {
    storage::UpdateOp op;  // U3 on the key attribute
    op.kind = storage::UpdateOp::Kind::kRenameValue;
    op.target_type = country;
    op.target_logical = 0;
    op.attr = key->name;
    op.new_value = "clobbered";
    bad.push_back(op);
    op.attr = "no_such_attribute";  // U3 on an undeclared attribute
    bad.push_back(op);
    op.target_type = 9999;  // unknown target type
    bad.push_back(op);
  }
  {
    // U1 whose child misses its key attribute.
    std::vector<mct::MctSchema> schemas{schema};
    workload::UpdateGenOptions gen;
    gen.num_ops = 8;
    for (storage::UpdateOp op :
         workload::GenerateUpdateOps(schemas, f.logical, gen)) {
      if (op.kind != storage::UpdateOp::Kind::kInsertSubtree) continue;
      ASSERT_FALSE(op.subtree.children.empty());
      storage::SubtreeSpec& child = op.subtree.children[0];
      std::string key;
      for (const er::Attribute& a : f.w.diagram.node(child.type).attributes) {
        if (a.is_key) key = a.name;
      }
      ASSERT_FALSE(key.empty());
      std::erase_if(child.attrs, [&](const storage::SubtreeSpec::Attr& a) {
        return a.name == key;
      });
      bad.push_back(op);
      break;
    }
    ASSERT_EQ(bad.size(), 4u) << "no insert in the generated stream";
  }
  for (const storage::UpdateOp& op : bad) {
    auto refused = durable->Apply(op);
    ASSERT_FALSE(refused.ok()) << storage::DebugString(op);
    EXPECT_TRUE(refused.status().IsInvalidArgument())
        << refused.status().ToString();
    EXPECT_NE(refused.status().message().find("PLN011"), std::string::npos)
        << refused.status().ToString();
  }
  EXPECT_NE(durable->Apply(bad.back()).status().message().find(
                "misses key attribute"),
            std::string::npos);
  EXPECT_EQ(durable->wal_appends(), 0u) << "refused ops dirtied the log";

  // The gate lets a valid op through: rename a non-key attribute of an
  // existing instance.
  storage::UpdateOp ok;
  ok.kind = storage::UpdateOp::Kind::kRenameValue;
  ok.target_type = country;
  ok.target_logical = 0;
  ok.attr = nonkey->name;
  ok.new_value = "renamed";
  auto applied = durable->Apply(ok);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(durable->wal_appends(), 1u);
}

TEST(UpdateExecTest, SameStreamKeepsSchemasEquivalent) {
  Fixture f;
  mct::MctSchema en = f.designer.Design(Strategy::kEn);
  mct::MctSchema mcmr = f.designer.Design(Strategy::kMcmr);
  std::vector<mct::MctSchema> schemas{en, mcmr};
  workload::UpdateGenOptions gen;
  gen.num_ops = 10;
  auto ops = workload::GenerateUpdateOps(schemas, f.logical, gen);
  ASSERT_FALSE(ops.empty());

  auto d1 = f.MakeDurable(en);
  auto d2 = f.MakeDurable(mcmr);
  UpdateExecutor e1(d1.get()), e2(d2.get());
  for (const auto& op : ops) {
    ASSERT_TRUE(e1.Execute(op).ok()) << storage::DebugString(op);
    ASSERT_TRUE(e2.Execute(op).ok()) << storage::DebugString(op);
  }
  // Both schemas saw the same logical mutations: every read query agrees.
  for (const std::string& name : f.w.figure_queries) {
    const query::AssociationQuery* q = f.w.Find(name);
    if (q == nullptr || q->is_update()) continue;
    auto p1 = PlanQuery(*q, en);
    auto p2 = PlanQuery(*q, mcmr);
    if (!p1.ok() || !p2.ok()) continue;
    Executor x1(d1->store()), x2(d2->store());
    x1.set_snapshot(d1->snapshot());
    x2.set_snapshot(d2->snapshot());
    auto r1 = x1.Execute(*p1);
    auto r2 = x2.Execute(*p2);
    ASSERT_TRUE(r1.ok() && r2.ok()) << name;
    EXPECT_EQ(r1->logicals, r2->logicals) << name;
  }
}

}  // namespace
}  // namespace mctdb::query
