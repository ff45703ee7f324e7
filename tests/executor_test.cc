#include "query/executor.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "design/designer.h"
#include "instance/materialize.h"
#include "query/planner.h"
#include "workload/workload.h"

namespace mctdb::query {
namespace {

using design::Designer;
using design::Strategy;

/// Shared small TPC-W database materialized under every strategy.
class ExecutorTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    w_ = new workload::Workload(workload::TpcwWorkload(0.05));
    graph_ = new er::ErGraph(w_->diagram);
    designer_ = new Designer(*graph_);
    logical_ = new instance::LogicalInstance(
        instance::GenerateInstance(*graph_, w_->gen));
    for (Strategy s : design::AllStrategies()) {
      schemas_->push_back(designer_->Design(s));
    }
    for (mct::MctSchema& schema : *schemas_) {
      stores_->push_back(instance::Materialize(*logical_, schema));
    }
  }
  static void TearDownTestSuite() {
    delete stores_;
    delete schemas_;
    delete logical_;
    delete designer_;
    delete graph_;
    delete w_;
    stores_ = nullptr;
  }

  static ExecResult Run(const char* query, size_t strategy_index) {
    const AssociationQuery* q = w_->Find(query);
    EXPECT_NE(q, nullptr);
    auto plan = PlanQuery(*q, (*schemas_)[strategy_index]);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    Executor exec((*stores_)[strategy_index].get());
    auto result = exec.Execute(*plan);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return *result;
  }

  static size_t NumStrategies() { return schemas_->size(); }
  static const char* StrategyName(size_t i) {
    return design::ToString(design::AllStrategies()[i]);
  }

  static workload::Workload* w_;
  static er::ErGraph* graph_;
  static Designer* designer_;
  static instance::LogicalInstance* logical_;
  static std::vector<mct::MctSchema>* schemas_;
  static std::vector<std::unique_ptr<storage::MctStore>>* stores_;
};

workload::Workload* ExecutorTest::w_ = nullptr;
er::ErGraph* ExecutorTest::graph_ = nullptr;
Designer* ExecutorTest::designer_ = nullptr;
instance::LogicalInstance* ExecutorTest::logical_ = nullptr;
std::vector<mct::MctSchema>* ExecutorTest::schemas_ =
    new std::vector<mct::MctSchema>();
std::vector<std::unique_ptr<storage::MctStore>>* ExecutorTest::stores_ =
    new std::vector<std::unique_ptr<storage::MctStore>>();

TEST_F(ExecutorTest, AllReadQueriesAgreeAcrossSchemas) {
  // The defining property of the evaluation: equivalent content =>
  // equivalent (logical) results under every schema.
  for (const auto& q : w_->queries) {
    if (q.is_update()) continue;
    ExecResult reference = Run(q.name.c_str(), 0);
    for (size_t i = 1; i < NumStrategies(); ++i) {
      ExecResult other = Run(q.name.c_str(), i);
      EXPECT_EQ(other.logicals, reference.logicals)
          << q.name << ": " << StrategyName(i) << " vs " << StrategyName(0);
    }
  }
}

TEST_F(ExecutorTest, Q1FindsJapaneseOrders) {
  ExecResult r = Run("Q1", 3);  // EN
  EXPECT_GT(r.unique_count, 0u) << "Japan exists in the country vocabulary";
  // Cross-check against the logical instance: walk make/has/in upward.
  const er::ErDiagram& d = w_->diagram;
  er::NodeId order = *d.FindNode("order");
  er::NodeId make = *d.FindNode("make");
  er::NodeId has = *d.FindNode("has");
  er::NodeId in = *d.FindNode("in");
  er::NodeId country = *d.FindNode("country");
  std::set<uint32_t> expected;
  for (uint32_t m = 0; m < logical_->count(make); ++m) {
    uint32_t cust = logical_->EndpointOf(make, 0, m);
    uint32_t ord = logical_->EndpointOf(make, 1, m);
    // Walk customer -> has -> address -> in -> country by hand.
    const er::ErEdge* has_cust_edge = nullptr;
    for (er::EdgeId eid : graph_->incident(has)) {
      const er::ErEdge& e = graph_->edge(eid);
      if (e.rel == has && e.node == *d.FindNode("customer")) {
        has_cust_edge = &e;
      }
    }
    ASSERT_NE(has_cust_edge, nullptr);
    for (uint32_t h : logical_->RelsOf(has_cust_edge->id, cust)) {
      uint32_t addr = logical_->EndpointOf(has, 0, h);
      const er::ErEdge* in_addr_edge = nullptr;
      for (er::EdgeId eid : graph_->incident(in)) {
        const er::ErEdge& e = graph_->edge(eid);
        if (e.rel == in && e.node == *d.FindNode("address")) {
          in_addr_edge = &e;
        }
      }
      ASSERT_NE(in_addr_edge, nullptr);
      for (uint32_t i : logical_->RelsOf(in_addr_edge->id, addr)) {
        uint32_t ctry = logical_->EndpointOf(in, 0, i);
        if (logical_->AttrValue(country, ctry, 1) == "Japan") {
          expected.insert(ord);
        }
      }
    }
  }
  std::set<uint32_t> got(r.logicals.begin(), r.logicals.end());
  EXPECT_EQ(got, expected);
  (void)order;
}

TEST_F(ExecutorTest, DeepReturnsDuplicatesOnQ6) {
  // DEEP = strategy index 0 in AllStrategies(); Q6 traverses the M:N
  // composite through duplicated item nests.
  ExecResult deep = Run("Q6", 0);
  ExecResult en = Run("Q6", 3);
  EXPECT_EQ(deep.unique_count, en.unique_count);
  EXPECT_GE(deep.raw_count, deep.unique_count);
  if (deep.unique_count > 1) {
    EXPECT_GT(deep.raw_count, deep.unique_count)
        << "DEEP's duplicated nests must surface as raw duplicates";
  }
  EXPECT_EQ(en.raw_count, en.unique_count) << "EN is node normal";
}

TEST_F(ExecutorTest, UpdatesTouchAllCopies) {
  ExecResult deep = Run("U1", 0);
  ExecResult en = Run("U1", 3);
  EXPECT_EQ(deep.logicals_updated, en.logicals_updated);
  EXPECT_GT(deep.elements_updated, deep.logicals_updated)
      << "DEEP must rewrite every nested copy";
  EXPECT_EQ(en.elements_updated, en.logicals_updated);
}

TEST_F(ExecutorTest, UpdatesActuallyChangeValues) {
  // Run U3 on MCMR (index 4) and verify the address zip changed.
  ExecResult r = Run("U3", 4);
  ASSERT_EQ(r.logicals_updated, 1u);
  auto* store = (*stores_)[4].get();
  er::NodeId address = *w_->diagram.FindNode("address");
  auto elems = store->ElementsFor(address, r.logicals[0]);
  ASSERT_FALSE(elems.empty());
  EXPECT_EQ(*store->AttrValue(elems[0], "zip"), "00000");
}

TEST_F(ExecutorTest, GroupByProducesGroups) {
  ExecResult r = Run("Q11", 5);  // DR
  size_t total = 0;
  for (const auto& [value, count] : r.groups) total += count;
  EXPECT_EQ(total, r.unique_count);
}

TEST_F(ExecutorTest, PageAccountingNonzero) {
  ExecResult r = Run("Q1", 2);  // SHALLOW: scans several postings
  EXPECT_GT(r.page_misses + r.page_hits, 0u);
  EXPECT_GT(r.elapsed_seconds, 0.0);
}

TEST_F(ExecutorTest, PerQueryCountsMatchPoolDeltasWhenSerial) {
  // With a single executor on the store's own pool, the per-query charged
  // counts must equal the pool-global deltas — the old (diff-based)
  // numbers were correct in the serial case, and the new attribution
  // must reproduce them exactly.
  auto* store = (*stores_)[2].get();  // SHALLOW
  auto* pool = store->buffer_pool();
  const AssociationQuery* q = w_->Find("Q1");
  ASSERT_NE(q, nullptr);
  auto plan = PlanQuery(*q, (*schemas_)[2]);
  ASSERT_TRUE(plan.ok());
  Executor exec(store);
  uint64_t hits0 = pool->hits();
  uint64_t misses0 = pool->misses();
  auto result = exec.Execute(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->page_hits, pool->hits() - hits0);
  EXPECT_EQ(result->page_misses, pool->misses() - misses0);
}

TEST_F(ExecutorTest, TwoThreadsShareTheDefaultPool) {
  // Executor(store) from two threads at once, through each store's own
  // one-shard pool and no service. An 8-page pool makes the threads evict
  // each other's pages. Every answer must equal the serial run's, and the
  // per-query page counts must add up to the pools' totals.
  instance::MaterializeOptions options;
  options.store.buffer_pool_pages = 8;
  std::vector<std::unique_ptr<storage::MctStore>> stores;
  std::vector<QueryPlan> plans;
  std::vector<storage::MctStore*> plan_stores;
  for (const mct::MctSchema& schema : *schemas_) {
    stores.push_back(instance::Materialize(*logical_, schema, options));
    for (const AssociationQuery& q : w_->queries) {
      if (q.is_update()) continue;
      auto plan = PlanQuery(q, schema);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      plans.push_back(*plan);
      plan_stores.push_back(stores.back().get());
    }
  }
  constexpr int kRounds = 3;
  auto run_grid = [&](std::vector<ExecResult>* out, Status* status) {
    for (int round = 0; round < kRounds; ++round) {
      for (size_t i = 0; i < plans.size(); ++i) {
        Executor exec(plan_stores[i]);
        auto r = exec.Execute(plans[i]);
        if (!r.ok()) {
          *status = r.status();
          return;
        }
        out->push_back(std::move(*r));
      }
    }
  };
  auto pool_fetches = [&stores] {
    uint64_t n = 0;
    for (const auto& s : stores) {
      n += s->buffer_pool()->hits() + s->buffer_pool()->misses();
    }
    return n;
  };

  std::vector<ExecResult> serial;
  Status serial_status;
  run_grid(&serial, &serial_status);
  ASSERT_TRUE(serial_status.ok()) << serial_status.ToString();

  uint64_t before = pool_fetches();
  std::vector<ExecResult> got[2];
  Status status[2];
  std::thread first(run_grid, &got[0], &status[0]);
  std::thread second(run_grid, &got[1], &status[1]);
  first.join();
  second.join();

  uint64_t charged = 0;
  for (int t = 0; t < 2; ++t) {
    ASSERT_TRUE(status[t].ok()) << status[t].ToString();
    ASSERT_EQ(got[t].size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "thread " << t << ", cell " << i);
      const ExecResult& r = got[t][i];
      const ExecResult& want = serial[i];
      EXPECT_EQ(r.logicals, want.logicals);
      EXPECT_EQ(r.raw_count, want.raw_count);
      EXPECT_EQ(r.unique_count, want.unique_count);
      EXPECT_EQ(r.groups, want.groups);
      EXPECT_EQ(r.join_pairs, want.join_pairs);
      EXPECT_EQ(r.page_hits + r.page_misses, want.page_hits + want.page_misses)
          << "a query fetches the same pages whoever else runs";
      charged += r.page_hits + r.page_misses;
    }
  }
  EXPECT_EQ(charged, pool_fetches() - before)
      << "every pool fetch is charged to exactly one query";
}

TEST_F(ExecutorTest, TraceSpansCoverTheQuery) {
  ExecResult r = Run("Q1", 4);  // MCMR: structural joins + crossings
  EXPECT_EQ(r.trace.kind, obs::StageKind::kQuery);
  EXPECT_EQ(r.trace.label, "Q1");
  EXPECT_FALSE(r.trace.children.empty());
  // The span tree's inclusive page counts ARE the query's counts.
  EXPECT_EQ(r.trace.total_page_hits(), r.page_hits);
  EXPECT_EQ(r.trace.total_page_misses(), r.page_misses);
  EXPECT_EQ(r.trace.join_pairs, r.join_pairs);
  // Per-stage rollup self times sum to the root's elapsed (within float
  // noise) and every stage row with calls has kind coverage.
  obs::StageTable table = obs::AggregateByStage(r.trace);
  EXPECT_GT(table[size_t(obs::StageKind::kTagScan)].calls, 0u);
  EXPECT_GT(table[size_t(obs::StageKind::kStructuralJoin)].calls, 0u);
  double self_sum = 0;
  for (const obs::StageAgg& row : table) self_sum += row.seconds;
  EXPECT_NEAR(self_sum, r.trace.elapsed_seconds,
              r.trace.elapsed_seconds * 0.5 + 1e-4);
}

TEST_F(ExecutorTest, NullQueryPlanIsInvalidArgument) {
  QueryPlan plan;  // no query attached
  Executor exec((*stores_)[0].get());
  auto result = exec.Execute(plan);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
}

TEST_F(ExecutorTest, MissingEdgePlanIsInvalidArgument) {
  // A plan whose edge list was stripped (e.g. a buggy cache or a partial
  // deserialization) must fail cleanly instead of dereferencing null.
  const AssociationQuery* q = w_->Find("Q1");
  ASSERT_NE(q, nullptr);
  auto plan = PlanQuery(*q, (*schemas_)[3]);
  ASSERT_TRUE(plan.ok());
  QueryPlan stripped = *plan;
  stripped.edges.clear();
  Executor exec((*stores_)[3].get());
  auto result = exec.Execute(stripped);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
}

TEST_F(ExecutorTest, EmptyPredicateYieldsEmptyResult) {
  QueryBuilder b("empty", w_->diagram);
  int c = b.Root("country");
  b.Where(c, "name", "Atlantis");
  b.Via(c, {"in", "address"});
  AssociationQuery q = b.Build();
  auto plan = PlanQuery(q, (*schemas_)[3]);
  ASSERT_TRUE(plan.ok());
  Executor exec((*stores_)[3].get());
  auto result = exec.Execute(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->logicals.empty());
}

}  // namespace
}  // namespace mctdb::query
