#include "analysis/plan_verify.h"

#include <algorithm>
#include <vector>

#include "common/string_util.h"

namespace mctdb::analysis {

namespace {

using mct::MctSchema;
using mct::OccId;
using query::AssociationQuery;
using query::EdgePlan;
using query::PatternNode;
using query::QueryPlan;
using query::Segment;
using query::SegmentKind;

/// Does any occurrence chain in `color` match `types` downward from its
/// first element? (Static non-emptiness of a structural segment: a chain
/// the planner committed to must exist somewhere in the color's forest.)
bool ChainExists(const MctSchema& schema, mct::ColorId color,
                 const std::vector<er::NodeId>& types) {
  struct Frame {
    OccId occ;
    size_t depth;
  };
  for (const mct::SchemaOcc& o : schema.occurrences()) {
    if (o.color != color || o.er_node != types[0]) continue;
    std::vector<Frame> stack{{o.id, 0}};
    while (!stack.empty()) {
      Frame f = stack.back();
      stack.pop_back();
      if (f.depth + 1 == types.size()) return true;
      for (OccId child : schema.occ(f.occ).children) {
        if (schema.occ(child).er_node == types[f.depth + 1]) {
          stack.push_back({child, f.depth + 1});
        }
      }
    }
  }
  return false;
}

class PlanVerifier {
 public:
  PlanVerifier(const QueryPlan& plan, DiagnosticReport* report)
      : plan_(plan), report_(report) {}

  void Run() {
    if (plan_.query == nullptr || plan_.schema == nullptr) {
      report_->Error("PLN001", "plan",
                     plan_.query == nullptr
                         ? "plan is not bound to a query"
                         : "plan is not bound to a schema");
      return;
    }
    query_ = plan_.query;
    schema_ = plan_.schema;
    if (query_->nodes.empty()) {
      report_->Error("PLN002", Loc(), "query has no pattern nodes");
      return;
    }
    CheckPattern();
    CheckEdgeSet();
    CheckAnchor();
    for (const EdgePlan& edge : plan_.edges) CheckEdge(edge);
  }

 private:
  std::string Loc() const {
    return StringPrintf("%s on %s", query_->name.c_str(),
                        schema_->name().c_str());
  }
  std::string EdgeLoc(const EdgePlan& edge) const {
    return StringPrintf("%s on %s edge->%d", query_->name.c_str(),
                        schema_->name().c_str(), edge.pattern_node);
  }
  std::string TypeName(er::NodeId n) const {
    return n < schema_->diagram().num_nodes()
               ? schema_->diagram().node(n).name
               : StringPrintf("node#%u", n);
  }

  /// Pattern-node parent chains must all reach a root without escaping the
  /// node array or looping.
  void CheckPattern() {
    const auto& nodes = query_->nodes;
    for (size_t i = 0; i < nodes.size(); ++i) {
      size_t steps = 0;
      int cur = static_cast<int>(i);
      bool broken = false;
      while (cur >= 0) {
        if (static_cast<size_t>(cur) >= nodes.size() ||
            ++steps > nodes.size()) {
          broken = true;
          break;
        }
        cur = nodes[cur].parent;
      }
      if (broken) {
        report_->Error(
            "PLN003", Loc(),
            StringPrintf("pattern node %zu has a broken or cyclic parent "
                         "chain — the operator is unreachable from the "
                         "anchor",
                         i));
      }
    }
  }

  /// One edge plan per non-root pattern node, in range, no duplicates, no
  /// non-root node left uncovered (an uncovered node's operator would
  /// never run).
  void CheckEdgeSet() {
    const auto& nodes = query_->nodes;
    std::vector<bool> covered(nodes.size(), false);
    for (const EdgePlan& edge : plan_.edges) {
      if (edge.pattern_node < 0 ||
          static_cast<size_t>(edge.pattern_node) >= nodes.size()) {
        report_->Error("PLN002", Loc(),
                       StringPrintf("edge plan targets nonexistent pattern "
                                    "node %d",
                                    edge.pattern_node));
        continue;
      }
      if (nodes[edge.pattern_node].parent < 0) {
        report_->Error("PLN002", Loc(),
                       StringPrintf("edge plan targets the anchor node %d",
                                    edge.pattern_node));
        continue;
      }
      if (covered[edge.pattern_node]) {
        report_->Error("PLN002", Loc(),
                       StringPrintf("pattern node %d has two edge plans",
                                    edge.pattern_node));
        continue;
      }
      covered[edge.pattern_node] = true;
    }
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].parent >= 0 && !covered[i]) {
        report_->Error(
            "PLN003", Loc(),
            StringPrintf("pattern node %zu has no edge plan — its subtree "
                         "is unreachable",
                         i),
            "re-plan the query; every non-root node needs an edge plan");
      }
    }
  }

  void CheckAnchor() {
    if (plan_.anchor_color >= schema_->num_colors()) {
      report_->Error("PLN007", Loc(),
                     StringPrintf("anchor color %u does not exist (schema "
                                  "has %zu colors)",
                                  unsigned(plan_.anchor_color),
                                  schema_->num_colors()));
      return;
    }
    // Find the root pattern node; CheckPattern reports broken chains.
    for (const PatternNode& node : query_->nodes) {
      if (node.parent >= 0) continue;
      if (schema_->FindOcc(plan_.anchor_color, node.er_node) ==
          mct::kInvalidOcc) {
        report_->Error(
            "PLN010", Loc(),
            StringPrintf("anchor scan for '%s' in color %s can never "
                         "match: the tag has no occurrence there",
                         TypeName(node.er_node).c_str(),
                         schema_->color_name(plan_.anchor_color).c_str()),
            "anchor in a color that holds the tag");
      }
      break;
    }
  }

  void CheckEdge(const EdgePlan& edge) {
    if (edge.pattern_node < 0 ||
        static_cast<size_t>(edge.pattern_node) >= query_->nodes.size()) {
      return;  // PLN002 already reported by CheckEdgeSet
    }
    const PatternNode& node = query_->nodes[edge.pattern_node];
    const std::vector<er::NodeId>& path = node.path_from_parent;
    if (path.size() < 2) {
      report_->Error("PLN002", EdgeLoc(edge),
                     "non-root pattern node carries no association path");
      return;
    }
    if (edge.segments.empty()) {
      report_->Error("PLN005", EdgeLoc(edge),
                     "edge plan has no segments: the path is uncovered");
      return;
    }
    size_t pos = 0;
    for (size_t s = 0; s < edge.segments.size(); ++s) {
      const Segment& seg = edge.segments[s];
      std::string loc =
          StringPrintf("%s segment %zu", EdgeLoc(edge).c_str(), s);
      if (seg.from_index >= seg.to_index || seg.to_index >= path.size()) {
        report_->Error(
            "PLN004", loc,
            StringPrintf("interval [%zu, %zu] violates the structural-join "
                         "precondition for a path of %zu nodes",
                         seg.from_index, seg.to_index, path.size()));
        return;  // downstream positions are meaningless now
      }
      if (seg.from_index != pos) {
        report_->Error(
            "PLN005", loc,
            StringPrintf("segment starts at path index %zu but the previous "
                         "segment ended at %zu (%s)",
                         seg.from_index, pos,
                         seg.from_index > pos ? "gap" : "overlap"));
        return;
      }
      pos = seg.to_index;
      size_t span = seg.to_index - seg.from_index;
      switch (seg.kind) {
        case SegmentKind::kValueJoin:
          CheckValueJoin(seg, path, span, loc);
          break;
        case SegmentKind::kAncDesc:
        case SegmentKind::kStepChain:
          CheckStructural(seg, path, span, loc);
          break;
      }
    }
    if (pos != path.size() - 1) {
      report_->Error(
          "PLN005", EdgeLoc(edge),
          StringPrintf("segments cover path indices [0, %zu] of [0, %zu]: "
                       "the tail of the association is uncovered",
                       pos, path.size() - 1));
    }
  }

  void CheckValueJoin(const Segment& seg,
                      const std::vector<er::NodeId>& path, size_t span,
                      const std::string& loc) {
    // PLN013: the join's operands are the posting lists of the two path
    // endpoints. If they name the same ER type the executor would hash and
    // probe ONE posting list against itself — a degenerate self-join that
    // silently matches every instance to itself — and if the registered
    // ref edge connects a different pair of types, the probe keys and the
    // idref values belong to unrelated domains.
    if (seg.from_index < path.size() && seg.to_index < path.size()) {
      er::NodeId a = path[seg.from_index];
      er::NodeId b = path[seg.to_index];
      if (a == b) {
        report_->Error(
            "PLN013", loc,
            StringPrintf("value join operands reference the same posting "
                         "list (type %u on both sides): a self-join can "
                         "only produce identity matches",
                         a),
            "join two distinct path endpoints");
      } else if (seg.ref_edge < schema_->graph().num_edges()) {
        const er::ErEdge& e = schema_->graph().edge(seg.ref_edge);
        bool connects = (e.rel == a && e.node == b) ||
                        (e.rel == b && e.node == a);
        if (!connects) {
          report_->Error(
              "PLN013", loc,
              StringPrintf("value join covers path step %u-%u but its ref "
                           "edge %u connects %u-%u",
                           a, b, seg.ref_edge, e.rel, e.node),
              "use the ref edge registered for the covered ER edge");
        }
      }
    }
    if (span != 1) {
      report_->Error(
          "PLN006", loc,
          StringPrintf("value join spans %zu path steps; its arity is "
                       "exactly one ER edge",
                       span));
    }
    if (seg.num_structural_joins != 0) {
      report_->Error("PLN006", loc,
                     StringPrintf("value join claims %zu structural joins",
                                  seg.num_structural_joins));
    }
    for (const mct::RefEdge& ref : schema_->ref_edges()) {
      if (ref.er_edge == seg.ref_edge) return;
    }
    report_->Error(
        "PLN009", loc,
        StringPrintf("value join on ER edge %u, but the schema has no "
                     "id/idref ref edge for it",
                     seg.ref_edge),
        "realize the edge structurally or add the ref edge");
  }

  void CheckStructural(const Segment& seg,
                       const std::vector<er::NodeId>& path, size_t span,
                       const std::string& loc) {
    if (seg.kind == SegmentKind::kAncDesc && seg.num_structural_joins != 1) {
      report_->Error(
          "PLN006", loc,
          StringPrintf("ancestor-descendant segment claims %zu structural "
                       "joins; a single a-d step is exactly one",
                       seg.num_structural_joins));
    }
    if (seg.kind == SegmentKind::kStepChain &&
        seg.num_structural_joins != span) {
      report_->Error(
          "PLN006", loc,
          StringPrintf("step chain over %zu path steps claims %zu "
                       "structural joins; a parent-child chain needs one "
                       "join per step",
                       span, seg.num_structural_joins));
    }
    if (seg.color >= schema_->num_colors()) {
      report_->Error(
          "PLN007", loc,
          StringPrintf("segment runs in nonexistent color %u (schema has "
                       "%zu colors)",
                       unsigned(seg.color), schema_->num_colors()));
      return;
    }
    // Statically-empty color predicate: every tag on the sub-path must
    // occur in the segment's color, and the (possibly reversed) chain must
    // exist in that color's forest.
    std::vector<er::NodeId> types(path.begin() + seg.from_index,
                                  path.begin() + seg.to_index + 1);
    if (seg.reversed) std::reverse(types.begin(), types.end());
    for (er::NodeId t : types) {
      if (schema_->FindOcc(seg.color, t) == mct::kInvalidOcc) {
        report_->Error(
            "PLN008", loc,
            StringPrintf("color predicate can never match: tag '%s' has no "
                         "occurrence in color %s",
                         TypeName(t).c_str(),
                         schema_->color_name(seg.color).c_str()),
            "run the segment in a color that realizes the sub-path");
        return;
      }
    }
    if (!ChainExists(*schema_, seg.color, types)) {
      report_->Error(
          "PLN008", loc,
          StringPrintf("color predicate can never match: color %s holds "
                       "the tags but no occurrence chain realizes the "
                       "sub-path",
                       schema_->color_name(seg.color).c_str()),
          "run the segment in a color that realizes the sub-path");
    }
  }

  const QueryPlan& plan_;
  DiagnosticReport* report_;
  const AssociationQuery* query_ = nullptr;
  const MctSchema* schema_ = nullptr;
};

}  // namespace

DiagnosticReport VerifyPlan(const QueryPlan& plan,
                            const PlanVerifyOptions& options) {
  DiagnosticReport report(options.max_diagnostics);
  PlanVerifier verifier(plan, &report);
  verifier.Run();
  return report;
}

}  // namespace mctdb::analysis
