// MaintenanceManager tests (DESIGN.md §17): the background triggers
// (WAL size / record count / elapsed time), the gap-saturation stall +
// interval-label rebalance path with a byte-identical manual-checkpoint
// oracle, and the ENOSPC read-only degradation + timed re-probe cycle.
#include "wal/maintenance.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "design/designer.h"
#include "er/er_parser.h"
#include "instance/logical.h"
#include "instance/materialize.h"
#include "obs/trace_id.h"
#include "query/executor.h"
#include "query/planner.h"
#include "storage/persist.h"
#include "wal/durable_store.h"
#include "workload/update_gen.h"
#include "workload/workload.h"

namespace mctdb::wal {
namespace {

using design::Strategy;

constexpr char kMiniEr[] = R"(
diagram mini
entity user { key id  attr name string }
entity post { key id  attr title string }
rel writes: user (1) -- post (m!)
)";

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Waits until `pred` holds, polling; false on timeout.
template <typename Pred>
bool WaitFor(Pred pred, double seconds = 5.0) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration<double>(seconds);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// The shared world: one tiny user--writes--post diagram, the schema the
/// stall tests use (picked so inserts place UNDER the parent's label
/// range and can saturate it), and a factory for "insert one new
/// writes+post pair under user 0" ops with fresh logical ids.
class MaintenanceTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto diagram = er::ParseErDiagram(kMiniEr);
    ASSERT_TRUE(diagram.ok()) << diagram.status().ToString();
    diagram_ = new er::ErDiagram(*diagram);
    graph_ = new er::ErGraph(*diagram_);
    instance::GenOptions gen;
    gen.base_count = 4;
    logical_ = new instance::LogicalInstance(
        instance::GenerateInstance(*graph_, gen));
    // Pick a schema and stride whose inserts are parent-anchored
    // (bounded label gaps): at least one insert fits, then the gap
    // saturates.
    design::Designer designer(*graph_);
    for (Strategy s : design::AllStrategies()) {
      mct::MctSchema schema = designer.Design(s);
      for (uint32_t stride : {8u, 16u, 24u, 32u}) {
        tight_stride_ = stride;
        if (SaturationIndex(schema) >= 1) {
          schema_ = new mct::MctSchema(std::move(schema));
          return;
        }
      }
    }
    FAIL() << "no strategy saturates on the mini diagram";
  }
  static void TearDownTestSuite() {
    delete schema_;
    delete logical_;
    delete graph_;
    delete diagram_;
    schema_ = nullptr;
  }

  /// Insert op k: a new `writes` instance with a new `post` child, under
  /// pre-existing user 0. Same parent every time, so repeated inserts
  /// shrink the same bounded label gap.
  static storage::UpdateOp MakeInsert(int k) {
    const er::ErNode* user = nullptr;
    const er::ErNode* post = nullptr;
    const er::ErNode* writes = nullptr;
    for (const er::ErNode& n : diagram_->nodes()) {
      if (n.name == "user") user = &n;
      if (n.name == "post") post = &n;
      if (n.name == "writes") writes = &n;
    }
    storage::UpdateOp op;
    op.kind = storage::UpdateOp::Kind::kInsertSubtree;
    op.target_type = user->id;
    op.target_logical = 0;
    uint32_t base = (1u << 20) + uint32_t(k) * 2;
    op.subtree.type = writes->id;
    op.subtree.logical = base;
    storage::SubtreeSpec child;
    child.type = post->id;
    child.logical = base + 1;
    for (const er::Attribute& a : post->attributes) {
      storage::SubtreeSpec::Attr attr;
      attr.name = a.name;
      attr.value = (a.is_key ? "post_new" : "v_new") + std::to_string(base + 1);
      attr.with_content = !a.is_key;
      child.attrs.push_back(std::move(attr));
    }
    op.subtree.children.push_back(std::move(child));
    return op;
  }

  static DurableStoreOptions TightStride() {
    DurableStoreOptions options;
    options.store.label_stride = tight_stride_;
    return options;
  }

  /// Wide enough that the trigger tests' few inserts never saturate —
  /// keeps the urgent gap-pressure path from preempting the trigger
  /// under test.
  static DurableStoreOptions WideStride() {
    DurableStoreOptions options;
    options.store.label_stride = 512;
    return options;
  }

  /// Applies MakeInsert ops to a fresh tight-stride ephemeral store with
  /// NO maintenance until one hits ResourceExhausted; returns its index,
  /// or -1 if 64 inserts all fit (schema places them top-level).
  static int SaturationIndex(const mct::MctSchema& schema) {
    auto d = DurableStore::Ephemeral(
        instance::Materialize(*logical_, schema, {TightStride().store}),
        TightStride());
    if (!d.ok()) return -1;
    for (int k = 0; k < 64; ++k) {
      auto r = (*d)->Apply(MakeInsert(k));
      if (!r.ok()) {
        return r.status().IsResourceExhausted() ? k : -1;
      }
    }
    return -1;
  }

  static er::ErDiagram* diagram_;
  static er::ErGraph* graph_;
  static instance::LogicalInstance* logical_;
  static mct::MctSchema* schema_;
  static uint32_t tight_stride_;
};

er::ErDiagram* MaintenanceTest::diagram_ = nullptr;
er::ErGraph* MaintenanceTest::graph_ = nullptr;
instance::LogicalInstance* MaintenanceTest::logical_ = nullptr;
mct::MctSchema* MaintenanceTest::schema_ = nullptr;
uint32_t MaintenanceTest::tight_stride_ = 8;

MaintenanceOptions QuietOptions() {
  // Nothing fires unless a test turns a trigger on.
  MaintenanceOptions options;
  options.wal_bytes_threshold = 0;
  options.wal_records_threshold = 0;
  options.interval_seconds = 0.0;
  options.gap_pressure_min_free = 0;
  options.poll_seconds = 0.002;
  options.max_stall_seconds = 10.0;
  options.reprobe_seconds = 0.01;
  return options;
}

TEST_F(MaintenanceTest, WalRecordsThresholdTriggersCheckpoint) {
  auto d = DurableStore::Ephemeral(
      instance::Materialize(*logical_, *schema_, {WideStride().store}),
      WideStride());
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  MaintenanceOptions options = QuietOptions();
  options.wal_records_threshold = 2;
  std::atomic<int> callbacks{0};
  std::atomic<uint64_t> callback_trace{0};
  MaintenanceManager mm(d->get(), options,
                        [&](const MaintenanceManager::Event& event) {
                          EXPECT_TRUE(event.status.ok())
                              << event.status.ToString();
                          EXPECT_EQ(event.reason,
                                    CheckpointReason::kWalRecords);
                          EXPECT_TRUE(event.stats.rebased);
                          callback_trace = obs::CurrentTraceId();
                          ++callbacks;
                        });
  mm.Start();
  ASSERT_TRUE((*d)->Apply(MakeInsert(0)).ok());
  ASSERT_TRUE((*d)->Apply(MakeInsert(1)).ok());
  EXPECT_TRUE(WaitFor([&] {
    return mm.checkpoints(CheckpointReason::kWalRecords) >= 1;
  }));
  EXPECT_TRUE(WaitFor([&] { return callbacks.load() >= 1; }));
  // The cycle minted its own trace id: flight events and the service's
  // plan-cache generation bump stay correlated even without an ambient
  // ScopedTraceId on this background thread.
  EXPECT_NE(callback_trace.load(), 0u);
  mm.Stop();
  EXPECT_GE((*d)->rebases(), 1u);
}

// A writer parked on the write lock while a checkpoint holds it appends
// as soon as the checkpoint releases the lock, while the checkpoint is
// still freeing the store its rebase replaced. That record is not in the
// image, so it must count toward the next records-threshold checkpoint.
TEST_F(MaintenanceTest, AppendParkedBehindACheckpointCountsTowardTheNext) {
  // A DEEP TPC-W store: large enough that freeing a replaced store takes
  // longer than the parked writer needs to append.
  const workload::Workload w = workload::TpcwWorkload(0.3);
  const er::ErGraph graph(w.diagram);
  const mct::MctSchema deep =
      design::Designer(graph).Design(Strategy::kDeep);
  const instance::LogicalInstance logical =
      instance::GenerateInstance(graph, w.gen);
  std::vector<storage::UpdateOp> renames;
  workload::UpdateGenOptions gen;
  gen.num_ops = 32;
  for (storage::UpdateOp& op :
       workload::GenerateUpdateOps({deep}, logical, gen)) {
    if (op.kind == storage::UpdateOp::Kind::kRenameValue) {
      renames.push_back(std::move(op));
    }
  }
  ASSERT_FALSE(renames.empty());
  auto d = DurableStore::Ephemeral(instance::Materialize(logical, deep));
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  MaintenanceOptions options = QuietOptions();
  options.wal_records_threshold = 1;
  MaintenanceManager mm(d->get(), options);
  // Each checkpoint sleeps 30 ms under the write lock: long enough for the
  // second update of a round to park on it.
  failpoint::FailpointGuard delay("wal.checkpoint", "delay(30)");
  mm.Start();
  size_t next = 0;
  for (uint64_t round = 1; round <= 8; ++round) {
    const uint64_t hits = failpoint::HitCount("wal.checkpoint");
    ASSERT_TRUE((*d)->Apply(renames[next++ % renames.size()]).ok());
    ASSERT_TRUE(WaitFor(
        [&] { return failpoint::HitCount("wal.checkpoint") > hits; }));
    ASSERT_TRUE((*d)->Apply(renames[next++ % renames.size()]).ok());
    ASSERT_TRUE(WaitFor(
        [&] {
          return mm.checkpoints(CheckpointReason::kWalRecords) >= 2 * round;
        },
        2.0))
        << "round " << round << ": the update parked behind checkpoint "
        << 2 * round - 1 << " triggered no checkpoint of its own";
  }
  mm.Stop();
  EXPECT_EQ(mm.checkpoints_total(), 16u);
}

// A pinned store outlives the rebases that replace it and still answers
// at its own snapshot; a replaced store nobody pins is freed by the
// checkpoint that replaced it, and a pinned one when its pin is released.
TEST_F(MaintenanceTest, PinnedStoreOutlivesTheRebasesThatReplaceIt) {
  auto d = DurableStore::Ephemeral(
      instance::Materialize(*logical_, *schema_, {WideStride().store}),
      WideStride());
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  query::QueryBuilder builder("posts", *diagram_);
  builder.Root("post");
  const query::AssociationQuery posts = builder.Build();
  auto plan = query::PlanQuery(posts, *schema_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto answer = [&](storage::MctStore* store, Lsn snapshot) {
    query::Executor exec(store);
    exec.set_snapshot(snapshot);
    auto r = exec.Execute(*plan);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->logicals : std::vector<uint32_t>{};
  };

  MaintenanceOptions options = QuietOptions();
  options.wal_records_threshold = 1;  // one rebase per insert
  // Counted when the maintenance thread has booked the checkpoint: an
  // insert applied before that would be counted into it and fire none.
  std::atomic<uint64_t> checkpoints{0};
  MaintenanceManager mm(d->get(), options,
                        [&](const MaintenanceManager::Event&) {
                          ++checkpoints;
                        });
  mm.Start();
  ASSERT_TRUE((*d)->Apply(MakeInsert(0)).ok());
  ASSERT_TRUE(WaitFor([&] { return checkpoints == 1; }));
  ASSERT_EQ((*d)->rebases(), 1u);
  std::shared_ptr<storage::MctStore> pinned = (*d)->PinStore();
  const Lsn pinned_lsn = pinned->visible_lsn();
  const std::vector<uint32_t> before = answer(pinned.get(), pinned_lsn);
  ASSERT_FALSE(before.empty());
  const std::weak_ptr<storage::MctStore> first = pinned;
  std::weak_ptr<storage::MctStore> second;
  for (int k = 1; k <= 2; ++k) {
    ASSERT_TRUE((*d)->Apply(MakeInsert(k)).ok());
    // Read the pinned store while the background checkpoint replaces the
    // live one.
    ASSERT_TRUE(WaitFor([&] {
      EXPECT_EQ(answer(pinned.get(), pinned_lsn), before);
      return checkpoints == uint64_t(k) + 1;
    }));
    ASSERT_EQ((*d)->rebases(), uint64_t(k) + 1);
    if (k == 1) second = (*d)->PinStore();
  }
  mm.Stop();  // joins the thread: the last checkpoint has returned

  EXPECT_TRUE(second.expired())
      << "a replaced store no reader pins is freed by its checkpoint";
  EXPECT_FALSE(first.expired());
  EXPECT_EQ(answer(pinned.get(), pinned_lsn), before);
  EXPECT_EQ(answer((*d)->store(), (*d)->snapshot()).size(), before.size() + 2);
  pinned.reset();
  EXPECT_TRUE(first.expired());
}

TEST_F(MaintenanceTest, WalBytesThresholdTriggersCheckpoint) {
  auto d = DurableStore::Ephemeral(
      instance::Materialize(*logical_, *schema_, {WideStride().store}),
      WideStride());
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  MaintenanceOptions options = QuietOptions();
  options.wal_bytes_threshold = 1;  // any durable byte crosses it
  MaintenanceManager mm(d->get(), options);
  mm.Start();
  ASSERT_TRUE((*d)->Apply(MakeInsert(0)).ok());
  EXPECT_TRUE(WaitFor([&] {
    return mm.checkpoints(CheckpointReason::kWalSize) >= 1;
  }));
  mm.Stop();
}

TEST_F(MaintenanceTest, ElapsedIntervalTriggersOnlyAfterAppends) {
  auto d = DurableStore::Ephemeral(
      instance::Materialize(*logical_, *schema_, {WideStride().store}),
      WideStride());
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  MaintenanceOptions options = QuietOptions();
  options.interval_seconds = 0.01;
  MaintenanceManager mm(d->get(), options);
  mm.Start();
  // No appends: the interval alone must not checkpoint.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(mm.checkpoints(CheckpointReason::kElapsed), 0u);
  ASSERT_TRUE((*d)->Apply(MakeInsert(0)).ok());
  EXPECT_TRUE(WaitFor([&] {
    return mm.checkpoints(CheckpointReason::kElapsed) >= 1;
  }));
  mm.Stop();
}

TEST_F(MaintenanceTest, ProactiveGapPressureTriggersBeforeSaturation) {
  auto d = DurableStore::Ephemeral(
      instance::Materialize(*logical_, *schema_, {TightStride().store}),
      TightStride());
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  MaintenanceOptions options = QuietOptions();
  options.gap_pressure_min_free = 1u << 20;  // any bounded insert qualifies
  MaintenanceManager mm(d->get(), options);
  mm.Start();
  ASSERT_TRUE((*d)->Apply(MakeInsert(0)).ok());
  EXPECT_TRUE(WaitFor([&] {
    return mm.checkpoints(CheckpointReason::kGapPressure) >= 1;
  }));
  EXPECT_GE(mm.gap_rebalances(), 1u);
  mm.Stop();
}

// The tentpole scenario: a writer that would be ResourceExhausted stalls
// behind the urgent rebalancing checkpoint and succeeds on retry, and the
// resulting store is BYTE-IDENTICAL to the oracle that hit the error,
// checkpointed manually, and retried by hand.
TEST_F(MaintenanceTest, GapSaturationStallsRebalancesAndMatchesOracle) {
  const int saturation = SaturationIndex(*schema_);
  ASSERT_GE(saturation, 1) << "fixture schema no longer saturates";
  const int total = saturation * 3 + 2;  // cross several rebalances

  // Oracle: no maintenance; on saturation checkpoint by hand and retry.
  auto oracle = DurableStore::Ephemeral(
      instance::Materialize(*logical_, *schema_, {TightStride().store}),
      TightStride());
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  size_t manual_checkpoints = 0;
  for (int k = 0; k < total; ++k) {
    auto r = (*oracle)->Apply(MakeInsert(k));
    if (!r.ok()) {
      ASSERT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
      auto cp = (*oracle)->Checkpoint(CheckpointMode::kRebaseLive);
      ASSERT_TRUE(cp.ok()) << cp.status().ToString();
      ++manual_checkpoints;
      r = (*oracle)->Apply(MakeInsert(k));
      ASSERT_TRUE(r.ok()) << "retry after manual rebalance: "
                          << r.status().ToString();
    }
  }
  ASSERT_GE(manual_checkpoints, 2u);

  // Subject: same ops, maintenance attached, reactive stalls only. Every
  // Apply succeeds — saturation stalls behind the urgent checkpoint
  // instead of surfacing.
  auto subject = DurableStore::Ephemeral(
      instance::Materialize(*logical_, *schema_, {TightStride().store}),
      TightStride());
  ASSERT_TRUE(subject.ok()) << subject.status().ToString();
  MaintenanceManager mm(subject->get(), QuietOptions());
  mm.Start();
  for (int k = 0; k < total; ++k) {
    auto r = (*subject)->Apply(MakeInsert(k));
    ASSERT_TRUE(r.ok()) << "op " << k << ": " << r.status().ToString();
  }
  mm.Stop();

  EXPECT_GE((*subject)->write_stalls(), manual_checkpoints);
  EXPECT_GE((*subject)->saturation_events(), manual_checkpoints);
  EXPECT_EQ((*subject)->rebases(), manual_checkpoints);
  EXPECT_EQ(mm.gap_rebalances(), manual_checkpoints);
  EXPECT_EQ((*subject)->snapshot(), (*oracle)->snapshot());

  // Byte-identical final state: the stall path is the manual path, just
  // driven from the background thread.
  std::string subject_path = TempPath("maintenance_subject.mctdb");
  std::string oracle_path = TempPath("maintenance_oracle.mctdb");
  ASSERT_TRUE(
      storage::SaveStore(*(*subject)->store(), subject_path).ok());
  ASSERT_TRUE(storage::SaveStore(*(*oracle)->store(), oracle_path).ok());
  std::string subject_bytes = ReadFile(subject_path);
  std::string oracle_bytes = ReadFile(oracle_path);
  ASSERT_FALSE(subject_bytes.empty());
  EXPECT_EQ(subject_bytes, oracle_bytes);
}

TEST_F(MaintenanceTest, StallBudgetSpentSurfacesRetryAfterHint) {
  auto d = DurableStore::Ephemeral(
      instance::Materialize(*logical_, *schema_, {TightStride().store}),
      TightStride());
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  MaintenanceOptions options = QuietOptions();
  options.max_stall_seconds = 0.05;
  MaintenanceManager mm(d->get(), options);
  mm.Start();
  // Checkpoints cannot complete (injected fault), so the urgent
  // rebalance never fixes the gap and the writer burns its whole stall
  // budget before the error surfaces.
  failpoint::FailpointGuard guard("wal.checkpoint", "err");
  int k = 0;
  Status last = Status::OK();
  for (; k < 64; ++k) {
    auto r = (*d)->Apply(MakeInsert(k));
    if (!r.ok()) {
      last = r.status();
      break;
    }
  }
  ASSERT_TRUE(last.IsResourceExhausted()) << last.ToString();
  EXPECT_NE(last.ToString().find("retry after"), std::string::npos)
      << last.ToString();
  EXPECT_GE((*d)->write_stalls(), 1u);
  EXPECT_FALSE(mm.last_error().empty());
  mm.Stop();
}

// Chaos: ENOSPC on the WAL fsync degrades the store to sticky read-only
// (writes Unavailable, reads pinned at the last published LSN); once the
// "disk" drains the maintenance re-probe restores writes and publishes
// what was parked.
TEST_F(MaintenanceTest, EnospcDegradesToReadOnlyAndReprobeRestores) {
  failpoint::DisarmAll();
  std::string path = TempPath("maintenance_readonly.mctdb");
  auto d = DurableStore::Create(
      instance::Materialize(*logical_, *schema_, {WideStride().store}), path,
      WideStride());
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  ASSERT_TRUE((*d)->Apply(MakeInsert(0)).ok());
  const Lsn pinned = (*d)->snapshot();

  MaintenanceManager mm(d->get(), QuietOptions());
  mm.Start();
  {
    failpoint::FailpointGuard guard("wal.fsync", "enospc(1.0)");
    // The writer that trips the full disk gets the errno-faithful
    // IoError; every later writer sees Unavailable (degraded fast-path).
    auto r = (*d)->Apply(MakeInsert(1));
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("No space left"),
              std::string::npos)
        << r.status().ToString();
    EXPECT_TRUE((*d)->read_only());
    // Reads keep serving at the pinned snapshot; the parked op is not
    // visible.
    EXPECT_EQ((*d)->snapshot(), pinned);
    // Further writes refuse immediately.
    auto r2 = (*d)->Apply(MakeInsert(2));
    ASSERT_FALSE(r2.ok());
    EXPECT_TRUE(r2.status().IsUnavailable()) << r2.status().ToString();
    // The re-probe timer keeps trying (and failing) while armed.
    EXPECT_TRUE(WaitFor([&] { return mm.reprobes() >= 1; }));
    EXPECT_TRUE((*d)->read_only());
    EXPECT_FALSE(mm.last_error().empty());
  }
  // Disk drained: the next re-probe flushes the parked batch, publishes
  // the stuck LSN, and leaves read-only mode.
  EXPECT_TRUE(WaitFor([&] { return !(*d)->read_only(); }));
  EXPECT_TRUE(WaitFor([&] { return (*d)->snapshot() > pinned; }));
  auto r = (*d)->Apply(MakeInsert(3));
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  mm.Stop();
}

}  // namespace
}  // namespace mctdb::wal
