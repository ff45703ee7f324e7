// End-to-end pipeline tests: ER diagram -> all seven schemas -> one logical
// instance -> seven materialized stores -> planned + executed workload ->
// the logical answer everywhere. This is the property the paper's whole
// experimental section rests on. The reference answer comes from the
// logical instance alone (AnswerFromInstance), sharing no store, planner,
// label or join code with the executor it checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "design/designer.h"
#include "er/er_catalog.h"
#include "instance/materialize.h"
#include "query/executor.h"
#include "query/planner.h"
#include "workload/metrics.h"
#include "workload/workload.h"

namespace mctdb {
namespace {

using design::Designer;
using design::Strategy;

struct Answer {
  std::vector<uint32_t> logicals;
  std::map<std::string, size_t> groups;
};

/// Answers an association query from the logical instance: pattern edges
/// follow their ER paths through RelsOf/EndpointOf, predicates read
/// AttrValue. An instance of a pattern node matches when its predicate
/// holds and every filter child (a node off the root-to-output spine)
/// matches at least one instance reachable from it.
class LogicalOracle {
 public:
  LogicalOracle(const instance::LogicalInstance& li,
                const query::AssociationQuery& q)
      : li_(li), q_(q), filters_(q.nodes.size()), memo_(q.nodes.size()) {
    for (int u = q.output; u >= 0; u = q.nodes[u].parent) {
      spine_.insert(spine_.begin(), u);
    }
    for (size_t u = 1; u < q.nodes.size(); ++u) {
      if (std::find(spine_.begin(), spine_.end(), int(u)) == spine_.end()) {
        filters_[q.nodes[u].parent].push_back(int(u));
      }
    }
  }

  /// Walks the spine top-down from the root's matching instances.
  Answer Run() {
    std::set<uint32_t> current;
    for (uint32_t x = 0; x < li_.count(q_.nodes[0].er_node); ++x) {
      if (Matches(0, x)) current.insert(x);
    }
    for (size_t k = 1; k < spine_.size(); ++k) {
      std::set<uint32_t> next;
      for (uint32_t x : current) {
        for (uint32_t y : Reach(q_.nodes[spine_[k]].path_from_parent, x)) {
          if (Matches(spine_[k], y)) next.insert(y);
        }
      }
      current = std::move(next);
    }
    Answer answer;
    answer.logicals.assign(current.begin(), current.end());
    if (q_.group_by.has_value()) {
      for (uint32_t x : current) {
        auto v = Value(q_.nodes[q_.output].er_node, x, q_.group_by->attr);
        if (v.has_value()) ++answer.groups[*v];
      }
    }
    return answer;
  }

 private:
  std::optional<std::string> Value(er::NodeId node, uint32_t inst,
                                   const std::string& attr) const {
    const auto& attrs = li_.diagram().node(node).attributes;
    for (size_t a = 0; a < attrs.size(); ++a) {
      if (attrs[a].name == attr) return li_.AttrValue(node, inst, a);
    }
    return std::nullopt;
  }

  /// Instances of path.back() reachable from instance `inst` of path[0].
  std::set<uint32_t> Reach(const std::vector<er::NodeId>& path,
                           uint32_t inst) const {
    const er::ErGraph& g = li_.graph();
    std::set<uint32_t> current{inst};
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      const er::ErEdge* edge = nullptr;
      for (er::EdgeId id : g.incident(path[i])) {
        if (g.edge(id).other(path[i]) == path[i + 1]) {
          edge = &g.edge(id);
          break;
        }
      }
      EXPECT_NE(edge, nullptr);
      if (edge == nullptr) return {};
      std::set<uint32_t> next;
      for (uint32_t x : current) {
        if (edge->rel == path[i + 1]) {  // endpoint -> relationship
          const std::vector<uint32_t>& rels = li_.RelsOf(edge->id, x);
          next.insert(rels.begin(), rels.end());
        } else {  // relationship -> endpoint
          next.insert(li_.EndpointOf(edge->rel, edge->endpoint_index, x));
        }
      }
      current = std::move(next);
    }
    return current;
  }

  bool Matches(int u, uint32_t inst) {
    auto [it, fresh] = memo_[u].try_emplace(inst, false);
    if (!fresh) return it->second;
    const query::PatternNode& node = q_.nodes[u];
    bool match = !node.predicate.has_value() ||
                 Value(node.er_node, inst, node.predicate->attr) ==
                     node.predicate->value;
    for (size_t f = 0; match && f < filters_[u].size(); ++f) {
      const int c = filters_[u][f];
      match = false;
      for (uint32_t y : Reach(q_.nodes[c].path_from_parent, inst)) {
        if (Matches(c, y)) {
          match = true;
          break;
        }
      }
    }
    it->second = match;
    return match;
  }

  const instance::LogicalInstance& li_;
  const query::AssociationQuery& q_;
  std::vector<int> spine_;  // root .. output
  std::vector<std::vector<int>> filters_;
  std::vector<std::map<uint32_t, bool>> memo_;
};

Answer AnswerFromInstance(const instance::LogicalInstance& li,
                          const query::AssociationQuery& q) {
  return LogicalOracle(li, q).Run();
}

void RunWorkloadEquivalence(workload::Workload w) {
  er::ErGraph graph(w.diagram);
  Designer designer(graph);
  instance::LogicalInstance logical =
      instance::GenerateInstance(graph, w.gen);

  std::vector<mct::MctSchema> schemas;
  std::vector<std::unique_ptr<storage::MctStore>> stores;
  for (Strategy s : design::AllStrategies()) {
    schemas.push_back(designer.Design(s));
  }
  for (mct::MctSchema& schema : schemas) {
    stores.push_back(instance::Materialize(logical, schema));
  }

  for (const auto& q : w.queries) {
    if (q.is_update()) continue;  // updates mutate; checked separately
    const Answer expected = AnswerFromInstance(logical, q);
    for (size_t i = 0; i < schemas.size(); ++i) {
      auto plan = query::PlanQuery(q, schemas[i]);
      ASSERT_TRUE(plan.ok())
          << w.diagram.name() << "/" << q.name << " on " << schemas[i].name()
          << ": " << plan.status().ToString();
      query::Executor exec(stores[i].get());
      auto result = exec.Execute(*plan);
      ASSERT_TRUE(result.ok()) << q.name;
      EXPECT_EQ(result->logicals, expected.logicals)
          << w.diagram.name() << "/" << q.name << " on " << schemas[i].name();
      EXPECT_EQ(result->groups, expected.groups)
          << w.diagram.name() << "/" << q.name << " on " << schemas[i].name();
    }
  }
}

/// Orders billed to addresses whose customer made an order in status
/// `status`: a filter (customer) with its own filter (order) under it.
query::AssociationQuery NestedFilterQuery(const er::ErDiagram& d,
                                          std::string_view status) {
  query::QueryBuilder b("NESTED_FILTER", d);
  int address = b.Root("address");
  int customer = b.Via(address, {"has", "customer"});
  int order = b.Via(customer, {"make", "order"});
  b.Where(order, "status", status);
  b.Via(address, {"billing", "order"});
  return b.Build();
}

TEST(IntegrationTest, TpcwWorkloadEquivalence) {
  workload::Workload w = workload::TpcwWorkload(0.04);
  w.queries.push_back(NestedFilterQuery(w.diagram, "Laos"));
  RunWorkloadEquivalence(std::move(w));
}

TEST(IntegrationTest, NestedFilterPredicateNarrowsTheAnswer) {
  // The nested predicate must matter on this instance, or the equivalence
  // above could not tell a dropped inner filter from a kept one.
  workload::Workload w = workload::TpcwWorkload(0.04);
  er::ErGraph graph(w.diagram);
  instance::LogicalInstance logical =
      instance::GenerateInstance(graph, w.gen);
  query::AssociationQuery nested = NestedFilterQuery(w.diagram, "Laos");
  query::AssociationQuery unfiltered = nested;
  unfiltered.nodes[2].predicate.reset();
  const Answer narrowed = AnswerFromInstance(logical, nested);
  const Answer wide = AnswerFromInstance(logical, unfiltered);
  EXPECT_FALSE(narrowed.logicals.empty());
  EXPECT_LT(narrowed.logicals.size(), wide.logicals.size());
  EXPECT_TRUE(std::includes(wide.logicals.begin(), wide.logicals.end(),
                            narrowed.logicals.begin(),
                            narrowed.logicals.end()));
}

TEST(IntegrationTest, DerbyWorkloadEquivalence) {
  workload::Workload w = workload::DerbyWorkload();
  w.gen.base_count = 12;
  RunWorkloadEquivalence(std::move(w));
}

TEST(IntegrationTest, XmarkWorkloadsEquivalenceOnSmallDiagrams) {
  // The whole ER collection. ER5's parallel departs/arrives relationships
  // caught a real bug (filter-branch reduction by element rather than
  // logical identity misses sibling copies in DEEP).
  for (auto maker : {er::Er6Star, er::Er7Chain, er::Er10Lattice,
                     er::Er1Company, er::Er5Airline, er::Er9OneOneRing,
                     er::Er2University, er::Er3Library, er::Er4Hospital,
                     er::Er8Bipartite}) {
    workload::Workload w = workload::XmarkEmulatedWorkload(maker());
    w.gen.base_count = 10;
    RunWorkloadEquivalence(std::move(w));
  }
}

void RunUpdateEquivalence(const workload::Workload& w) {
  er::ErGraph graph(w.diagram);
  Designer designer(graph);
  instance::LogicalInstance logical =
      instance::GenerateInstance(graph, w.gen);
  std::vector<mct::MctSchema> schemas;
  for (Strategy s : design::AllStrategies()) {
    schemas.push_back(designer.Design(s));
  }
  for (const auto& q : w.queries) {
    if (!q.is_update()) continue;
    const Answer expected = AnswerFromInstance(logical, q);
    for (const mct::MctSchema& schema : schemas) {
      // A fresh store per update: each one rewrites what it targets.
      auto store = instance::Materialize(logical, schema);
      auto plan = query::PlanQuery(q, schema);
      ASSERT_TRUE(plan.ok()) << q.name;
      query::Executor exec(store.get());
      auto result = exec.Execute(*plan);
      ASSERT_TRUE(result.ok()) << q.name;
      EXPECT_EQ(result->logicals, expected.logicals)
          << w.diagram.name() << "/" << q.name << " on " << schema.name();
      // Every copy must have been rewritten: verify via the key index.
      er::NodeId type = q.nodes[q.output].er_node;
      uint32_t name_id = store->FindAttrName(q.update->attr);
      ASSERT_NE(name_id, UINT32_MAX);
      for (uint32_t logical_id : result->logicals) {
        for (storage::ElemId e : store->ElementsFor(type, logical_id)) {
          EXPECT_EQ(*store->AttrValue(e, q.update->attr),
                    q.update->new_value)
              << q.name << " on " << schema.name();
        }
      }
    }
  }
}

TEST(IntegrationTest, UpdatesAgreeOnLogicalTargets) {
  RunUpdateEquivalence(workload::TpcwWorkload(0.04));
  workload::Workload derby = workload::DerbyWorkload();
  derby.gen.base_count = 12;
  RunUpdateEquivalence(derby);
}

TEST(IntegrationTest, IndexSeeksFireSomewhereOnTheTpcwGrid) {
  // Scans skip pages through the posting index; pin that the index is
  // used at all. Answers cannot show it: skipped pages never join.
  workload::Workload w = workload::TpcwWorkload(0.05);
  er::ErGraph graph(w.diagram);
  Designer designer(graph);
  instance::LogicalInstance logical =
      instance::GenerateInstance(graph, w.gen);
  uint64_t total_seeks = 0;
  for (Strategy s : design::AllStrategies()) {
    mct::MctSchema schema = designer.Design(s);
    auto store = instance::Materialize(logical, schema);
    for (const auto& q : w.queries) {
      if (q.is_update()) continue;
      auto plan = query::PlanQuery(q, schema);
      ASSERT_TRUE(plan.ok());
      query::Executor exec(store.get());
      auto result = exec.Execute(*plan);
      ASSERT_TRUE(result.ok());
      total_seeks += result->index_seeks;
    }
  }
  EXPECT_GT(total_seeks, 0u) << "no query ever used the posting index";
}

TEST(IntegrationTest, Table1ShapeAtSmallScale) {
  // Storage ordering of Table 1: node-normal schemas tie; DR > EN in bytes
  // (extra colors) but equal in elements; UNDR and DEEP are strictly
  // bigger in elements.
  workload::Workload w = workload::TpcwWorkload(0.1);
  er::ErGraph graph(w.diagram);
  Designer designer(graph);
  instance::LogicalInstance logical =
      instance::GenerateInstance(graph, w.gen);
  std::map<std::string, storage::StoreStats> stats;
  for (Strategy s : design::AllStrategies()) {
    mct::MctSchema schema = designer.Design(s);
    stats[schema.name()] = instance::Materialize(logical, schema)->Stats();
  }
  EXPECT_EQ(stats["SHALLOW"].num_elements, stats["EN"].num_elements);
  EXPECT_EQ(stats["AF"].num_elements, stats["EN"].num_elements);
  EXPECT_EQ(stats["MCMR"].num_elements, stats["EN"].num_elements);
  EXPECT_EQ(stats["DR"].num_elements, stats["EN"].num_elements);
  EXPECT_GT(stats["UNDR"].num_elements, stats["DR"].num_elements);
  EXPECT_GT(stats["DEEP"].num_elements, stats["EN"].num_elements);
  EXPECT_GT(stats["DR"].data_mbytes, stats["EN"].data_mbytes);
  EXPECT_GT(stats["DEEP"].data_mbytes, stats["DR"].data_mbytes);
}

}  // namespace
}  // namespace mctdb
