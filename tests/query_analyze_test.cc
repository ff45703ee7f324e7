// Static query analyzer tests: a table-driven corpus of (schema, query,
// expected QRY codes) covering every designer output for one ER source,
// plus golden text/JSON fixtures demonstrating each QRY001-QRY011 code
// (tests/data/qry/; regenerate with MCTDB_REGEN_FIXTURES=1).
#include "analysis/query_analyze.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "design/designer.h"
#include "query/mcxpath.h"
#include "query/planner.h"
#include "workload/workload.h"

namespace mctdb::analysis {
namespace {

using design::Strategy;
using query::AssociationQuery;
using query::McXPath;
using query::QueryBuilder;

er::EdgeId EdgeBetween(const er::ErGraph& g, er::NodeId a, er::NodeId b) {
  for (er::EdgeId eid : g.incident(a)) {
    if (g.edge(eid).other(a) == b) return eid;
  }
  return er::kInvalidEdge;
}

/// The corpus ER source: country 1:N address, everything attributed, so
/// every designer strategy produces a deterministic schema over it.
class QueryAnalyzeTest : public testing::Test {
 protected:
  QueryAnalyzeTest() : diagram_("corpus") {
    country_ = diagram_.AddEntity(
        "country", {{"id", er::AttrType::kString, true},
                    {"name", er::AttrType::kString, false}});
    address_ = diagram_.AddEntity(
        "address", {{"id", er::AttrType::kString, true},
                    {"city", er::AttrType::kString, false}});
    auto rel = diagram_.AddOneToMany("in", country_, address_);
    EXPECT_TRUE(rel.ok());
    in_ = *rel;
    graph_ = std::make_unique<er::ErGraph>(diagram_);
    ca_edge_ = EdgeBetween(*graph_, country_, in_);
    ia_edge_ = EdgeBetween(*graph_, in_, address_);
  }

  /// Hand-built two-color schema: blue nests country/in/address, red holds
  /// a lone address root. Fully deterministic for the MC-XPath fixtures.
  mct::MctSchema TwoColor() const {
    mct::MctSchema s("H2", graph_.get());
    mct::ColorId blue = s.AddColor();
    mct::ColorId red = s.AddColor();
    mct::OccId c0 = s.AddRoot(blue, country_);
    mct::OccId i0 = s.AddChild(c0, in_, ca_edge_);
    s.AddChild(i0, address_, ia_edge_);
    s.AddRoot(red, address_);
    return s;
  }

  /// One-color variant of the same source (no red), for divergence.
  mct::MctSchema OneColor() const {
    mct::MctSchema s("H1", graph_.get());
    mct::ColorId blue = s.AddColor();
    mct::OccId c0 = s.AddRoot(blue, country_);
    mct::OccId i0 = s.AddChild(c0, in_, ca_edge_);
    s.AddChild(i0, address_, ia_edge_);
    return s;
  }

  /// Roots only, no structural or ref realization of any edge: every
  /// association step is unrecoverable (QRY006).
  mct::MctSchema Disconnected() const {
    mct::MctSchema s("BROKEN", graph_.get());
    mct::ColorId blue = s.AddColor();
    s.AddRoot(blue, country_);
    s.AddRoot(blue, address_);
    return s;
  }

  AssociationQuery CountryToAddress() const {
    QueryBuilder b("Qca", diagram_);
    int r = b.Root("country");
    int a = b.Via(r, {"in", "address"});
    b.Output(a);
    return b.Build();
  }

  McXPath Parse(const char* text) const {
    auto parsed = query::ParseMcXPath(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    return *parsed;
  }

  er::ErDiagram diagram_;
  er::NodeId country_ = er::kInvalidNode;
  er::NodeId address_ = er::kInvalidNode;
  er::NodeId in_ = er::kInvalidNode;
  er::EdgeId ca_edge_ = er::kInvalidEdge;
  er::EdgeId ia_edge_ = er::kInvalidEdge;
  std::unique_ptr<er::ErGraph> graph_;
};

// ---------------------------------------------------------------------------
// Table-driven corpus across every designer output of the same ER source.

TEST_F(QueryAnalyzeTest, WellFormedQueryCleanOnEveryDesignerOutput) {
  design::Designer designer(*graph_);
  AssociationQuery q = CountryToAddress();
  for (Strategy s : design::AllStrategies()) {
    mct::MctSchema schema = designer.Design(s);
    QueryAnalysis verdict = AnalyzeQuery(q, schema);
    EXPECT_FALSE(verdict.fatal())
        << schema.name() << ":\n" << verdict.report.ToText();
    EXPECT_FALSE(verdict.statically_empty)
        << schema.name() << ":\n" << verdict.report.ToText();
  }
}

TEST_F(QueryAnalyzeTest, UndeclaredPredicateEmptyOnEveryDesignerOutput) {
  // Predicates are checked against the ER declarations, which every
  // designer output shares — the verdict must agree across all seven.
  design::Designer designer(*graph_);
  QueryBuilder b("Qbad", diagram_);
  int r = b.Root("country");
  b.Where(r, "population", "big");  // country declares id + name only
  AssociationQuery q = b.Build();
  for (Strategy s : design::AllStrategies()) {
    mct::MctSchema schema = designer.Design(s);
    QueryAnalysis verdict = AnalyzeQuery(q, schema);
    EXPECT_FALSE(verdict.fatal()) << schema.name();
    EXPECT_TRUE(verdict.statically_empty) << schema.name();
    EXPECT_TRUE(verdict.report.HasCode("QRY007")) << schema.name();
    EXPECT_TRUE(verdict.report.HasCode("QRY010")) << schema.name();
  }
}

TEST_F(QueryAnalyzeTest, TpcwWorkloadGridHasNoFatalFindings) {
  // The paper's Q1-Q13 grid: every query plans on every strategy, so the
  // analyzer must never report a fatal code for any (query, schema) pair
  // (it would reject a query the planner accepts).
  workload::Workload w = workload::TpcwWorkload(0.03);
  er::ErGraph graph(w.diagram);
  design::Designer designer(graph);
  for (Strategy s : design::AllStrategies()) {
    mct::MctSchema schema = designer.Design(s);
    for (const AssociationQuery& q : w.queries) {
      QueryAnalysis verdict = AnalyzeQuery(q, schema);
      EXPECT_FALSE(verdict.fatal())
          << q.name << " on " << schema.name() << ":\n"
          << verdict.report.ToText();
      // The grid queries all return results in the paper; none may be
      // pruned.
      EXPECT_FALSE(verdict.statically_empty)
          << q.name << " on " << schema.name() << ":\n"
          << verdict.report.ToText();
    }
  }
}

TEST_F(QueryAnalyzeTest, AnalyzerEmptinessMatchesPlannerAcceptance) {
  // Soundness coupling: a fatal analyzer verdict must coincide with the
  // planner refusing the query, never with a plannable one.
  design::Designer designer(*graph_);
  AssociationQuery q = CountryToAddress();
  mct::MctSchema broken = Disconnected();
  QueryAnalysis verdict = AnalyzeQuery(q, broken);
  EXPECT_TRUE(verdict.fatal());
  EXPECT_TRUE(verdict.report.HasCode("QRY006"));
  EXPECT_FALSE(query::PlanQuery(q, broken).ok());
  for (Strategy s : design::AllStrategies()) {
    mct::MctSchema schema = designer.Design(s);
    EXPECT_FALSE(AnalyzeQuery(q, schema).fatal());
    EXPECT_TRUE(query::PlanQuery(q, schema).ok()) << schema.name();
  }
}

// ---------------------------------------------------------------------------
// Golden fixtures: one per code, text + JSON, committed under
// tests/data/qry/. Regenerate with MCTDB_REGEN_FIXTURES=1.

void CheckFixture(const DiagnosticReport& report, const std::string& code) {
  SCOPED_TRACE(code);
  std::string base = std::string(MCTDB_TEST_DATA_DIR) + "/qry/" + code;
  std::string text = report.ToText();
  std::string json = report.ToJson();
  if (std::getenv("MCTDB_REGEN_FIXTURES") != nullptr) {
    std::ofstream(base + ".txt") << text;
    std::ofstream(base + ".json") << json;
    return;
  }
  auto read = [](const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing fixture " << path
                           << " (regenerate with MCTDB_REGEN_FIXTURES=1)";
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  EXPECT_EQ(read(base + ".txt"), text);
  EXPECT_EQ(read(base + ".json"), json);
  EXPECT_TRUE(report.HasCode(code)) << report.ToText();
}

TEST_F(QueryAnalyzeTest, FixtureQry001UnknownType) {
  mct::MctSchema s = TwoColor();
  QueryAnalysis verdict = AnalyzeMcXPath(Parse("/continent"), s);
  EXPECT_TRUE(verdict.fatal());
  EXPECT_TRUE(IsFatalQueryCode("QRY001"));
  CheckFixture(verdict.report, "QRY001");
}

TEST_F(QueryAnalyzeTest, FixtureQry002UnknownColor) {
  mct::MctSchema s = OneColor();
  QueryAnalysis verdict = AnalyzeMcXPath(Parse("/(red)address"), s);
  EXPECT_TRUE(verdict.fatal());
  EXPECT_TRUE(IsFatalQueryCode("QRY002"));
  CheckFixture(verdict.report, "QRY002");
}

TEST_F(QueryAnalyzeTest, FixtureQry003TagAbsentFromColor) {
  mct::MctSchema s = TwoColor();
  QueryAnalysis verdict = AnalyzeMcXPath(Parse("/(red)country"), s);
  EXPECT_FALSE(verdict.fatal());
  EXPECT_TRUE(verdict.statically_empty);
  EXPECT_FALSE(IsFatalQueryCode("QRY003"));
  CheckFixture(verdict.report, "QRY003");
}

TEST_F(QueryAnalyzeTest, FixtureQry004NoParentChildPair) {
  // country/address skips the `in` level: both tags occur in blue but no
  // parent-child occurrence pair realizes the step ('//' would match).
  mct::MctSchema s = TwoColor();
  QueryAnalysis direct = AnalyzeMcXPath(Parse("/(blue)country/(blue)address"), s);
  EXPECT_TRUE(direct.statically_empty);
  QueryAnalysis desc = AnalyzeMcXPath(Parse("/(blue)country//(blue)address"), s);
  EXPECT_FALSE(desc.statically_empty) << desc.report.ToText();
  CheckFixture(direct.report, "QRY004");
}

TEST_F(QueryAnalyzeTest, FixtureQry005EmptyColorCrossing) {
  // Crossing into red at `in`, which has no red occurrence — the crossing
  // joins disjoint domains.
  mct::MctSchema s = TwoColor();
  QueryAnalysis bad =
      AnalyzeMcXPath(Parse("/(blue)country/(blue)in/(red)address"), s);
  EXPECT_TRUE(bad.statically_empty);
  EXPECT_FALSE(bad.fatal());
  CheckFixture(bad.report, "QRY005");
}

TEST_F(QueryAnalyzeTest, FixtureQry006UnrecoverableEdge) {
  QueryAnalysis verdict = AnalyzeQuery(CountryToAddress(), Disconnected());
  EXPECT_TRUE(verdict.fatal());
  EXPECT_TRUE(IsFatalQueryCode("QRY006"));
  CheckFixture(verdict.report, "QRY006");
}

TEST_F(QueryAnalyzeTest, FixtureQry007UndeclaredAttribute) {
  mct::MctSchema s = TwoColor();
  QueryAnalysis verdict =
      AnalyzeMcXPath(Parse("/(blue)country[@population='big']"), s);
  EXPECT_TRUE(verdict.statically_empty);
  EXPECT_FALSE(IsFatalQueryCode("QRY007"));
  CheckFixture(verdict.report, "QRY007");
}

TEST_F(QueryAnalyzeTest, FixtureQry008RedundantPredicate) {
  // Two branches to the same type with the identical predicate.
  QueryBuilder b("Qdup", diagram_);
  int r = b.Root("country");
  int a1 = b.Via(r, {"in", "address"});
  int a2 = b.Via(r, {"in", "address"});
  b.Where(a1, "city", "Tokyo");
  b.Where(a2, "city", "Tokyo");
  b.Output(a2);
  QueryAnalysis verdict = AnalyzeQuery(b.Build(), TwoColor());
  EXPECT_FALSE(verdict.fatal());
  EXPECT_FALSE(verdict.statically_empty);
  EXPECT_TRUE(verdict.simplifiable);
  CheckFixture(verdict.report, "QRY008");
}

TEST_F(QueryAnalyzeTest, FixtureQry009RedundantDistinct) {
  // Single clean occurrence of country overall: distinct cannot remove
  // anything.
  QueryBuilder b("Qdist", diagram_);
  b.Root("country");
  b.Distinct();
  QueryAnalysis verdict = AnalyzeQuery(b.Build(), OneColor());
  EXPECT_FALSE(verdict.statically_empty);
  EXPECT_TRUE(verdict.simplifiable);
  CheckFixture(verdict.report, "QRY009");
}

TEST_F(QueryAnalyzeTest, FixtureQry010StaticallyEmptySummary) {
  QueryBuilder b("Qbad", diagram_);
  int r = b.Root("country");
  b.Where(r, "population", "big");
  QueryAnalysis verdict = AnalyzeQuery(b.Build(), TwoColor());
  EXPECT_TRUE(verdict.statically_empty);
  EXPECT_EQ(verdict.empty_reason.substr(0, 6), "QRY007");
  CheckFixture(verdict.report, "QRY010");
}

TEST_F(QueryAnalyzeTest, FixtureQry011CrossSchemaDivergence) {
  // /(red)address is fine on the two-color variant but names an unknown
  // color on the one-color one: equivalent designer variants disagree.
  mct::MctSchema h1 = OneColor();
  mct::MctSchema h2 = TwoColor();
  DiagnosticReport merged = AnalyzeMcXPathAcrossSchemas(
      Parse("/(red)address"), {&h1, &h2});
  EXPECT_TRUE(merged.HasCode("QRY011"));
  CheckFixture(merged, "QRY011");
}

}  // namespace
}  // namespace mctdb::analysis
