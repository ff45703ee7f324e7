#include "wal/recovery.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "design/designer.h"
#include "instance/materialize.h"
#include "query/executor.h"
#include "query/planner.h"
#include "query/update_exec.h"
#include "storage/persist.h"
#include "wal/durable_store.h"
#include "workload/update_gen.h"
#include "workload/workload.h"

namespace mctdb::wal {
namespace {

using design::Strategy;

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Everything the recovery tests share: a small TPC-W instance, one
/// schema, the deterministic op stream, and a per-prefix oracle of read
/// query results (oracle[k] = the answers after the first k ops).
struct RecoveryWorld {
  workload::Workload w = workload::TpcwWorkload(0.02);
  er::ErGraph graph{w.diagram};
  design::Designer designer{graph};
  mct::MctSchema schema = designer.Design(Strategy::kMcmr);
  instance::LogicalInstance logical = instance::GenerateInstance(graph, w.gen);
  std::vector<storage::UpdateOp> ops;
  std::vector<std::string> query_names;
  /// oracle[k][q] = logicals of query q after ops[0..k).
  std::vector<std::vector<std::vector<uint32_t>>> oracle;

  RecoveryWorld() {
    std::vector<mct::MctSchema> schemas{schema};
    workload::UpdateGenOptions gen;
    gen.num_ops = 10;
    ops = workload::GenerateUpdateOps(schemas, logical, gen);
    EXPECT_GE(ops.size(), 4u);
    for (const std::string& name : w.figure_queries) {
      const query::AssociationQuery* q = w.Find(name);
      if (q == nullptr || q->is_update()) continue;
      if (!query::PlanQuery(*q, schema).ok()) continue;
      query_names.push_back(name);
      if (query_names.size() == 2) break;
    }
    EXPECT_EQ(query_names.size(), 2u);

    // Build the oracle on an ephemeral store: LSNs on a fresh log are
    // 1..N, so "state after k ops" is simply snapshot k.
    auto d = DurableStore::Ephemeral(
        instance::Materialize(logical, schema, {}));
    BuildOracle(d);
  }

  std::vector<std::vector<uint32_t>> QueryAt(storage::MctStore* store,
                                             Lsn snapshot) const {
    std::vector<std::vector<uint32_t>> out;
    for (const std::string& name : query_names) {
      const query::AssociationQuery* q = w.Find(name);
      auto plan = query::PlanQuery(*q, schema);
      EXPECT_TRUE(plan.ok());
      query::Executor exec(store);
      exec.set_snapshot(snapshot);
      auto r = exec.Execute(*plan);
      EXPECT_TRUE(r.ok()) << name << ": " << r.status().ToString();
      out.push_back(r->logicals);
    }
    return out;
  }

 private:
  void BuildOracle(Result<std::unique_ptr<DurableStore>>& d) {
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    query::UpdateExecutor exec(d->get());
    oracle.push_back(QueryAt((*d)->store(), (*d)->snapshot()));
    for (const auto& op : ops) {
      auto r = exec.Execute(op);
      ASSERT_TRUE(r.ok()) << storage::DebugString(op) << ": "
                          << r.status().ToString();
      oracle.push_back(QueryAt((*d)->store(), (*d)->snapshot()));
    }
    ASSERT_EQ(oracle.size(), ops.size() + 1);
  }
};

RecoveryWorld& World() {
  static RecoveryWorld* world = new RecoveryWorld();
  return *world;
}

/// Builds a durable store at `path` with the full op stream applied, and
/// returns the final WAL bytes (read back from disk after close).
std::string BuildCrashedLog(RecoveryWorld& world, const std::string& path) {
  {
    auto d = DurableStore::Create(
        instance::Materialize(world.logical, world.schema, {}), path);
    EXPECT_TRUE(d.ok()) << d.status().ToString();
    query::UpdateExecutor exec(d->get());
    for (const auto& op : world.ops) {
      auto r = exec.Execute(op);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    }
  }
  return ReadFile(DurableStore::WalPath(path));
}

// The PR's durability acceptance criterion: for EVERY byte offset of the
// log, a crash that leaves exactly that prefix on disk recovers to a
// prefix-consistent state — the store answers every probe query exactly
// like the oracle after some op prefix k, with k = the number of complete
// records that survived.
TEST(WalRecoveryTest, CrashAtEveryOffsetRecoversAPrefix) {
  RecoveryWorld& world = World();
  std::string path = TempPath("crash_offsets.mctdb");
  std::string wal = BuildCrashedLog(world, path);
  ASSERT_GT(wal.size(), kWalHeaderSize);

  const size_t n_ops = world.ops.size();
  Lsn prev_k = 0;
  for (size_t offset = 0; offset <= wal.size(); ++offset) {
    WriteFile(DurableStore::WalPath(path), std::string_view(wal).substr(0, offset));
    auto d = DurableStore::Open(world.schema, path);
    ASSERT_TRUE(d.ok()) << "offset " << offset << ": "
                        << d.status().ToString();
    const RecoveryStats& r = (*d)->recovery();
    Lsn k = r.last_lsn;
    ASSERT_LE(k, n_ops) << "offset " << offset;
    EXPECT_EQ(r.replayed_records, k) << "offset " << offset;
    // More surviving bytes never means fewer recovered ops.
    EXPECT_GE(k, prev_k) << "offset " << offset;
    prev_k = k;
    // Prefix consistency against the oracle.
    auto got = world.QueryAt((*d)->store(), (*d)->snapshot());
    EXPECT_EQ(got, world.oracle[k]) << "offset " << offset;
  }
  // The full log recovers the full stream.
  EXPECT_EQ(prev_k, n_ops);
}

TEST(WalRecoveryTest, GarbageTailIsTruncatedAndLogged) {
  RecoveryWorld& world = World();
  std::string path = TempPath("garbage_tail.mctdb");
  std::string wal = BuildCrashedLog(world, path);
  WriteFile(DurableStore::WalPath(path),
            wal + std::string(97, '\xC7'));  // stale bytes past the tail

  auto d = DurableStore::Open(world.schema, path);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  const RecoveryStats& r = (*d)->recovery();
  EXPECT_EQ(r.replayed_records, world.ops.size());
  EXPECT_EQ(r.truncated_bytes, 97u);
  auto got = world.QueryAt((*d)->store(), (*d)->snapshot());
  EXPECT_EQ(got, world.oracle[world.ops.size()]);
  // The truncation happened in place: a second open is clean.
  auto d2 = DurableStore::Open(world.schema, path);
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ((*d2)->recovery().truncated_bytes, 0u);
}

TEST(WalRecoveryTest, CheckpointTrimsLogAndReopenSkipsImageOps) {
  RecoveryWorld& world = World();
  std::string path = TempPath("checkpointed.mctdb");
  const size_t kMid = world.ops.size() / 2;
  {
    auto d = DurableStore::Create(
        instance::Materialize(world.logical, world.schema, {}), path);
    ASSERT_TRUE(d.ok());
    query::UpdateExecutor exec(d->get());
    for (size_t i = 0; i < kMid; ++i) {
      ASSERT_TRUE(exec.Execute(world.ops[i]).ok());
    }
    auto cp = (*d)->Checkpoint();
    ASSERT_TRUE(cp.ok()) << cp.status().ToString();
    EXPECT_EQ(cp->checkpoint_lsn, static_cast<Lsn>(kMid));
    EXPECT_GT(cp->log_bytes_trimmed, 0u);
    for (size_t i = kMid; i < world.ops.size(); ++i) {
      ASSERT_TRUE(exec.Execute(world.ops[i]).ok());
    }
  }
  auto d = DurableStore::Open(world.schema, path);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  const RecoveryStats& r = (*d)->recovery();
  // Only the post-checkpoint suffix needed replay.
  EXPECT_EQ(r.replayed_records, world.ops.size() - kMid);
  EXPECT_EQ(r.last_lsn, world.ops.size());
  auto got = world.QueryAt((*d)->store(), (*d)->snapshot());
  EXPECT_EQ(got, world.oracle[world.ops.size()]);
}

TEST(WalRecoveryTest, CheckpointErrorFaultLeavesStoreConsistent) {
  RecoveryWorld& world = World();
  std::string path = TempPath("cp_err.mctdb");
  {
    auto d = DurableStore::Create(
        instance::Materialize(world.logical, world.schema, {}), path);
    ASSERT_TRUE(d.ok());
    query::UpdateExecutor exec(d->get());
    for (const auto& op : world.ops) ASSERT_TRUE(exec.Execute(op).ok());
    failpoint::FailpointGuard guard("wal.checkpoint", "err");
    EXPECT_FALSE((*d)->Checkpoint().ok());
  }
  // The failed checkpoint mutated nothing: reopen replays the whole log.
  auto d = DurableStore::Open(world.schema, path);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ((*d)->recovery().replayed_records, world.ops.size());
  auto got = world.QueryAt((*d)->store(), (*d)->snapshot());
  EXPECT_EQ(got, world.oracle[world.ops.size()]);
}

TEST(WalRecoveryTest, CheckpointCrashWindowIsCoveredByIdempotentReplay) {
  RecoveryWorld& world = World();
  std::string path = TempPath("cp_window.mctdb");
  {
    auto d = DurableStore::Create(
        instance::Materialize(world.logical, world.schema, {}), path);
    ASSERT_TRUE(d.ok());
    query::UpdateExecutor exec(d->get());
    for (const auto& op : world.ops) ASSERT_TRUE(exec.Execute(op).ok());
    // Crash between "image renamed into place" and "log trimmed": the
    // post-image probe aborts the checkpoint exactly there.
    failpoint::FailpointGuard guard("wal.checkpoint", "trunc");
    EXPECT_FALSE((*d)->Checkpoint().ok());
  }
  // Reopen sees a complete image AND a full log. Replay walks every
  // record but the already-present ops skip idempotently — the store must
  // land in exactly the full-stream state, not a doubled one.
  auto d = DurableStore::Open(world.schema, path);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  const RecoveryStats& r = (*d)->recovery();
  EXPECT_EQ(r.scanned_records, world.ops.size());
  EXPECT_EQ(r.replayed_records + r.skipped_records, world.ops.size());
  auto got = world.QueryAt((*d)->store(), (*d)->snapshot());
  EXPECT_EQ(got, world.oracle[world.ops.size()]);
}

// The replay gate: checksum-valid records the live path refuses (written
// here straight through a LogWriter) are skipped on reopen, never handed
// to the applier.
TEST(WalRecoveryTest, ReplaySkipsRecordsTheVerifierRefuses) {
  RecoveryWorld& world = World();
  std::string path = TempPath("replay_gate.mctdb");
  const er::NodeId country = *world.w.diagram.FindNode("country");
  std::string key;
  for (const er::Attribute& a : world.w.diagram.node(country).attributes) {
    if (a.is_key) key = a.name;
  }
  ASSERT_FALSE(key.empty());
  std::string key_before;
  {
    auto d = DurableStore::Create(
        instance::Materialize(world.logical, world.schema, {}), path);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    std::vector<storage::ElemId> elems =
        (*d)->store()->ElementsFor(country, 0);
    ASSERT_FALSE(elems.empty());
    const std::string* value = (*d)->store()->AttrValue(elems[0], key);
    ASSERT_NE(value, nullptr);
    key_before = *value;
  }
  {
    storage::UpdateOp rename;  // U3 on country's key attribute
    rename.kind = storage::UpdateOp::Kind::kRenameValue;
    rename.target_type = country;
    rename.target_logical = 0;
    rename.attr = key;
    rename.new_value = "clobbered";
    storage::UpdateOp del;  // U2 on a type the diagram does not have
    del.kind = storage::UpdateOp::Kind::kDeleteSubtree;
    del.target_type = 9999;
    auto log = LogWriter::Open(DurableStore::WalPath(path),
                               storage::SchemaFingerprint(world.schema),
                               kNoLsn, kNoLsn);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    for (const storage::UpdateOp& op : {rename, del}) {
      std::string payload;
      storage::EncodeUpdateOp(op, &payload);
      ASSERT_TRUE((*log)->Append(RecordType::kUpdateOp, payload).ok());
    }
    ASSERT_TRUE((*log)->Commit(2).ok());
  }
  auto d = DurableStore::Open(world.schema, path);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  const RecoveryStats& r = (*d)->recovery();
  EXPECT_EQ(r.scanned_records, 2u);
  EXPECT_EQ(r.replayed_records, 0u);
  EXPECT_EQ(r.skipped_records, 2u);
  for (storage::ElemId e : (*d)->store()->ElementsFor(country, 0)) {
    const std::string* value = (*d)->store()->AttrValue(e, key);
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(*value, key_before);
  }
}

}  // namespace
}  // namespace mctdb::wal
