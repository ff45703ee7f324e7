// Planner coverage sweep: every query of every collection workload must
// plan on every strategy, and the figure-level metric orderings must hold
// diagram-wide (not just on TPC-W).
#include <gtest/gtest.h>

#include "design/designer.h"
#include "query/planner.h"
#include "workload/metrics.h"

namespace mctdb::query {
namespace {

using design::Strategy;

class PlannerCollectionTest
    : public testing::TestWithParam<size_t> {};  // index into collection

std::vector<workload::Workload>* Workloads() {
  static auto* workloads =
      new std::vector<workload::Workload>(workload::CollectionWorkloads());
  return workloads;
}

TEST_P(PlannerCollectionTest, EveryQueryPlansOnEveryStrategy) {
  const workload::Workload& w = (*Workloads())[GetParam()];
  er::ErGraph graph(w.diagram);
  design::Designer designer(graph);
  for (Strategy s : design::AllStrategies()) {
    mct::MctSchema schema = designer.Design(s);
    for (const auto& q : w.queries) {
      auto plan = PlanQuery(q, schema);
      EXPECT_TRUE(plan.ok()) << w.diagram.name() << "/" << q.name << " on "
                             << design::ToString(s) << ": "
                             << plan.status().ToString();
    }
  }
}

TEST_P(PlannerCollectionTest, DeepNeverPaysValueJoinsOrCrossings) {
  const workload::Workload& w = (*Workloads())[GetParam()];
  er::ErGraph graph(w.diagram);
  design::Designer designer(graph);
  mct::MctSchema deep = designer.Design(Strategy::kDeep);
  for (const auto& q : w.queries) {
    auto plan = PlanQuery(q, deep);
    ASSERT_TRUE(plan.ok()) << q.name;
    EXPECT_EQ(plan->Stats().value_joins, 0u) << q.name;
    EXPECT_EQ(plan->Stats().color_crossings, 0u) << q.name;
  }
}

TEST_P(PlannerCollectionTest, NodeNormalSchemasNeverPayDupOps) {
  const workload::Workload& w = (*Workloads())[GetParam()];
  er::ErGraph graph(w.diagram);
  design::Designer designer(graph);
  for (Strategy s : {Strategy::kEn, Strategy::kMcmr, Strategy::kDr}) {
    mct::MctSchema schema = designer.Design(s);
    for (const auto& q : w.queries) {
      auto plan = PlanQuery(q, schema);
      ASSERT_TRUE(plan.ok()) << q.name;
      EXPECT_EQ(plan->Stats().dup_elims, 0u)
          << w.diagram.name() << "/" << q.name << " on "
          << design::ToString(s);
      EXPECT_EQ(plan->Stats().dup_updates, 0u) << q.name;
    }
  }
}

TEST_P(PlannerCollectionTest, Fig13OrderingHoldsPerDiagram) {
  const workload::Workload& w = (*Workloads())[GetParam()];
  er::ErGraph graph(w.diagram);
  design::Designer designer(graph);
  auto gmean_vjcc = [&](Strategy s) {
    mct::MctSchema schema = designer.Design(s);
    std::vector<size_t> xs;
    for (const auto& row : workload::PlanMetrics(w, schema)) {
      xs.push_back(row.stats.value_joins_plus_crossings());
    }
    return workload::GeoMean1p(xs);
  };
  double shallow = gmean_vjcc(Strategy::kShallow);
  double en = gmean_vjcc(Strategy::kEn);
  double mcmr = gmean_vjcc(Strategy::kMcmr);
  double dr = gmean_vjcc(Strategy::kDr);
  EXPECT_GE(shallow + 1e-9, en) << w.diagram.name();
  EXPECT_GE(en + 1e-9, mcmr) << w.diagram.name();
  EXPECT_GE(mcmr + 1e-9, dr) << w.diagram.name();
}

INSTANTIATE_TEST_SUITE_P(AllDiagrams, PlannerCollectionTest,
                         testing::Range<size_t>(0, 12),
                         [](const testing::TestParamInfo<size_t>& info) {
                           return (*Workloads())[info.param].diagram.name() ==
                                          "TPC-W"
                                      ? std::string("TPCW")
                                      : (*Workloads())[info.param]
                                            .diagram.name();
                         });

}  // namespace
}  // namespace mctdb::query
