#include "analysis/query_analyze.h"

#include <set>
#include <tuple>

#include "common/string_util.h"

namespace mctdb::analysis {

namespace {

using mct::MctSchema;
using mct::OccId;
using mct::SchemaOcc;
using query::AssociationQuery;
using query::McXPath;
using query::McXPathStep;
using query::PatternNode;

std::string TypeName(const MctSchema& schema, er::NodeId n) {
  return n < schema.diagram().num_nodes() ? schema.diagram().node(n).name
                                          : StringPrintf("node#%u", n);
}

/// The ER edge joining adjacent path nodes, or kInvalidEdge.
er::EdgeId EdgeBetween(const er::ErGraph& graph, er::NodeId a, er::NodeId b) {
  if (a >= graph.num_nodes()) return er::kInvalidEdge;
  for (er::EdgeId eid : graph.incident(a)) {
    if (graph.edge(eid).other(a) == b) return eid;
  }
  return er::kInvalidEdge;
}

/// Can the (a, b) association step be covered by one structural segment
/// the planner would accept? Mirrors the planner's chain matching: the
/// parent occurrence must be a root or *clean* (graft/copy tops cover only
/// part of the instances, so the planner never anchors a join there), the
/// child a direct occurrence child, in either direction.
bool PairStructurallyPlannable(const MctSchema& schema, er::NodeId a,
                               er::NodeId b) {
  for (const SchemaOcc& o : schema.occurrences()) {
    if (o.er_node != a && o.er_node != b) continue;
    if (!o.is_root() && !schema.IsCleanOcc(o.id)) continue;
    er::NodeId want = o.er_node == a ? b : a;
    for (OccId child : o.children) {
      if (schema.occ(child).er_node == want) return true;
    }
  }
  return false;
}

/// Does any parent-child occurrence pair (parent tag `a`, child tag `b`)
/// exist in `color`? Satisfiability of a '/' axis step: interval labels
/// nest exactly as the color's occurrence forest does, so no pair => the
/// structural join can never produce output on any valid instance.
bool ParentChildPairInColor(const MctSchema& schema, mct::ColorId color,
                            er::NodeId a, er::NodeId b) {
  for (const SchemaOcc& o : schema.occurrences()) {
    if (o.color != color || o.er_node != a) continue;
    for (OccId child : o.children) {
      if (schema.occ(child).er_node == b) return true;
    }
  }
  return false;
}

/// The '//' analog: any occurrence of `b` in `color` with a proper
/// ancestor occurrence of `a`.
bool AncDescPairInColor(const MctSchema& schema, mct::ColorId color,
                        er::NodeId a, er::NodeId b) {
  for (const SchemaOcc& o : schema.occurrences()) {
    if (o.color != color || o.er_node != b) continue;
    for (OccId cur = o.parent; cur != mct::kInvalidOcc;
         cur = schema.occ(cur).parent) {
      if (schema.occ(cur).er_node == a) return true;
    }
  }
  return false;
}

/// Is `attr` a claim the schema makes about elements of type `tag`: a
/// declared ER attribute, or an idref attribute a ref edge materializes on
/// some occurrence of the type? A predicate on anything else is
/// always-false — stored elements only ever carry declared attributes.
bool AttrDeclared(const MctSchema& schema, er::NodeId tag,
                  const std::string& attr) {
  if (tag < schema.diagram().num_nodes()) {
    for (const er::Attribute& a : schema.diagram().node(tag).attributes) {
      if (a.name == attr) return true;
    }
  }
  for (const mct::RefEdge& re : schema.ref_edges()) {
    if (schema.occ(re.from).er_node == tag && re.attr_name == attr) {
      return true;
    }
  }
  return false;
}

/// Shared emptiness bookkeeping: records the first emptiness reason and
/// emits the detailed finding.
struct EmptyTracker {
  QueryAnalysis* out;
  void Flag(const std::string& code, const std::string& loc,
            const std::string& message, const std::string& fixit = "") {
    out->report.Warning(code, loc, message, fixit);
    if (!out->statically_empty) {
      out->statically_empty = true;
      out->empty_reason = code + ": " + message;
    }
  }
};

void FinishEmptiness(QueryAnalysis* out, const std::string& loc) {
  if (!out->statically_empty) return;
  out->report.Warning(
      "QRY010", loc,
      "query is statically empty on this schema (" + out->empty_reason +
          "); the planner prunes it to a zero-I/O empty result",
      "fix the step the detailed finding points at, or accept the empty "
      "answer");
}

}  // namespace

bool IsFatalQueryCode(std::string_view code) {
  return code == "QRY001" || code == "QRY002" || code == "QRY006";
}

QueryAnalysis AnalyzeQuery(const AssociationQuery& q, const MctSchema& schema,
                           const QueryAnalyzeOptions& options) {
  QueryAnalysis out;
  out.report = DiagnosticReport(options.max_diagnostics);
  EmptyTracker empty{&out};
  const er::ErDiagram& diagram = schema.diagram();
  const er::ErGraph& graph = schema.graph();
  std::string loc = StringPrintf("%s on %s", q.name.c_str(),
                                 schema.name().c_str());
  if (q.nodes.empty()) {
    out.report.Error("QRY002", loc, "query has no pattern nodes");
    return out;
  }
  // (type, attr, value) predicates already seen — the redundancy check.
  std::set<std::tuple<er::NodeId, std::string, std::string>> preds_seen;
  for (size_t i = 0; i < q.nodes.size(); ++i) {
    const PatternNode& node = q.nodes[i];
    std::string node_loc = StringPrintf("%s node %zu", loc.c_str(), i);
    if (node.er_node >= diagram.num_nodes()) {
      out.report.Error("QRY001", node_loc,
                       StringPrintf("unknown element type %u", node.er_node));
      continue;
    }
    if (node.parent >= static_cast<int>(q.nodes.size()) ||
        node.parent == static_cast<int>(i)) {
      out.report.Error("QRY002", node_loc,
                       StringPrintf("broken parent index %d", node.parent));
      continue;
    }
    if (node.parent >= 0) {
      const auto& path = node.path_from_parent;
      if (path.size() < 2) {
        out.report.Error("QRY002", node_loc,
                         "non-root pattern node carries no association path");
      } else {
        er::NodeId parent_type = q.nodes[node.parent].er_node;
        if (path.front() != parent_type || path.back() != node.er_node) {
          out.report.Error(
              "QRY002", node_loc,
              "association path endpoints disagree with the pattern "
              "(expected " + TypeName(schema, parent_type) + " .. " +
                  TypeName(schema, node.er_node) + ")");
        }
        for (size_t p = 0; p + 1 < path.size(); ++p) {
          er::NodeId a = path[p], b = path[p + 1];
          if (a >= diagram.num_nodes() || b >= diagram.num_nodes()) {
            out.report.Error("QRY001", node_loc,
                             StringPrintf("unknown element type %u on the "
                                          "association path",
                                          a >= diagram.num_nodes() ? a : b));
            continue;
          }
          er::EdgeId eid = EdgeBetween(graph, a, b);
          if (eid == er::kInvalidEdge) {
            out.report.Error("QRY002", node_loc,
                             "path nodes " + TypeName(schema, a) + " and " +
                                 TypeName(schema, b) +
                                 " are not adjacent in the ER graph");
            continue;
          }
          bool has_ref = false;
          for (const mct::RefEdge& ref : schema.ref_edges()) {
            has_ref |= ref.er_edge == eid;
          }
          if (!PairStructurallyPlannable(schema, a, b) && !has_ref) {
            out.report.Error(
                "QRY006", node_loc,
                "association step " + TypeName(schema, a) + " - " +
                    TypeName(schema, b) +
                    " is neither structurally realized in any color nor "
                    "covered by a ref edge; no plan exists on this schema",
                "realize the edge structurally or add an id/idref pair");
          }
        }
      }
    }
    if (node.predicate.has_value()) {
      const auto& pred = *node.predicate;
      if (!AttrDeclared(schema, node.er_node, pred.attr)) {
        empty.Flag(
            "QRY007", node_loc,
            "predicate @" + pred.attr + "='" + pred.value + "' tests an "
            "attribute '" + TypeName(schema, node.er_node) +
                "' does not declare; it is false on every stored element",
            "drop the predicate or test a declared attribute");
      } else if (!preds_seen
                      .insert({node.er_node, pred.attr, pred.value})
                      .second) {
        out.report.Note(
            "QRY008", node_loc,
            "predicate @" + pred.attr + "='" + pred.value +
                "' repeats an identical test on another pattern node of "
                "type " + TypeName(schema, node.er_node),
            "factor the shared predicate once");
        out.simplifiable = true;
      }
    }
  }
  // Redundant distinct: set semantics where the schema provably admits no
  // duplicate placement of the output type (single occurrence overall,
  // and its context never fans out above a reverse link).
  if (q.distinct && q.nodes.size() == 1 &&
      q.nodes[0].er_node < diagram.num_nodes()) {
    // Clean (all-traversable root path) single occurrence: the
    // materializer stores every logical instance there exactly once, so
    // the scan cannot produce duplicates.
    std::vector<OccId> occs = schema.OccurrencesOf(q.nodes[0].er_node);
    if (occs.size() == 1 && schema.IsCleanOcc(occs[0])) {
      out.report.Note(
          "QRY009", loc,
          "distinct is redundant: the schema stores every " +
              TypeName(schema, q.nodes[0].er_node) +
              " instance exactly once, so the scan cannot produce "
              "duplicates",
          "drop distinct to save the duplicate-elimination pass");
      out.simplifiable = true;
    }
  }
  FinishEmptiness(&out, loc);
  return out;
}

QueryAnalysis AnalyzeMcXPath(const McXPath& path, const MctSchema& schema,
                             const QueryAnalyzeOptions& options) {
  QueryAnalysis out;
  out.report = DiagnosticReport(options.max_diagnostics);
  EmptyTracker empty{&out};
  const er::ErDiagram& diagram = schema.diagram();
  std::string loc = StringPrintf("mc-xpath on %s", schema.name().c_str());
  if (path.steps.empty()) {
    out.report.Error("QRY002", loc, "empty path");
    return out;
  }
  if (schema.num_colors() == 0) {
    out.report.Error("QRY002", loc, "schema has no colors");
    return out;
  }
  std::set<std::tuple<er::NodeId, std::string, std::string>> preds_seen;
  // A step with no color inherits the previous step's; the first defaults
  // to color 0 — the same rule EvalMcXPath applies.
  mct::ColorId color = 0;
  er::NodeId prev_tag = er::kInvalidNode;
  for (size_t i = 0; i < path.steps.size(); ++i) {
    const McXPathStep& step = path.steps[i];
    std::string step_loc = StringPrintf(
        "%s step %zu (%s%s%s%s)", loc.c_str(), i, step.descendant ? "//" : "/",
        step.color.empty() ? "" : ("(" + step.color + ")").c_str(),
        step.tag.c_str(),
        step.pred_attr.empty()
            ? ""
            : ("[@" + step.pred_attr + "='" + step.pred_value + "']").c_str());
    mct::ColorId step_color = color;
    bool color_ok = true;
    if (!step.color.empty()) {
      color_ok = false;
      for (mct::ColorId c = 0; c < schema.num_colors(); ++c) {
        if (schema.color_name(c) == step.color) {
          step_color = c;
          color_ok = true;
          break;
        }
      }
      if (!color_ok) {
        out.report.Error("QRY002", step_loc,
                         "no color named '" + step.color + "' in this schema",
                         "use one of the schema's color names");
      }
    }
    auto tag_id = diagram.FindNode(step.tag);
    if (!tag_id.has_value()) {
      out.report.Error("QRY001", step_loc,
                       "no element type named '" + step.tag + "'");
      prev_tag = er::kInvalidNode;
      continue;
    }
    er::NodeId tag = *tag_id;
    if (color_ok) {
      if (schema.FindOcc(step_color, tag) == mct::kInvalidOcc) {
        empty.Flag("QRY003", step_loc,
                   "tag '" + step.tag + "' has no occurrence in color " +
                       schema.color_name(step_color) +
                       "; the step can never match",
                   "navigate in a color that holds the tag");
      } else if (prev_tag != er::kInvalidNode) {
        if (step_color != color &&
            schema.FindOcc(step_color, prev_tag) == mct::kInvalidOcc) {
          empty.Flag(
              "QRY005", step_loc,
              "color crossing into " + schema.color_name(step_color) +
                  " is always empty: '" + TypeName(schema, prev_tag) +
                  "' has no occurrence there (disjoint color domains)",
              "cross at a tag shared by both colors");
        } else {
          bool pair = step.descendant
                          ? AncDescPairInColor(schema, step_color, prev_tag,
                                               tag)
                          : ParentChildPairInColor(schema, step_color,
                                                   prev_tag, tag);
          if (!pair) {
            empty.Flag(
                "QRY004", step_loc,
                std::string("the schema forest of color ") +
                    schema.color_name(step_color) + " has no " +
                    (step.descendant ? "ancestor-descendant"
                                     : "parent-child") +
                    " occurrence pair " + TypeName(schema, prev_tag) +
                    " -> " + step.tag + "; the structural join is always "
                    "empty",
                step.descendant
                    ? "check the nesting the designer chose for these types"
                    : "use '//' if the types nest only transitively");
          }
        }
      }
    }
    if (!step.pred_attr.empty()) {
      if (!AttrDeclared(schema, tag, step.pred_attr)) {
        empty.Flag("QRY007", step_loc,
                   "predicate @" + step.pred_attr + "='" + step.pred_value +
                       "' tests an attribute '" + step.tag +
                       "' does not declare; it is false on every stored "
                       "element",
                   "drop the predicate or test a declared attribute");
      } else if (!preds_seen
                      .insert({tag, step.pred_attr, step.pred_value})
                      .second) {
        out.report.Note("QRY008", step_loc,
                        "predicate @" + step.pred_attr + "='" +
                            step.pred_value +
                            "' repeats an identical test on an earlier "
                            "step over '" + step.tag + "'",
                        "apply the predicate once");
        out.simplifiable = true;
      }
    }
    prev_tag = tag;
    if (color_ok) color = step_color;
  }
  FinishEmptiness(&out, loc);
  return out;
}

namespace {

/// Shared divergence pass over per-schema analyses.
DiagnosticReport Divergence(const std::string& query_label,
                            const std::vector<const MctSchema*>& schemas,
                            const std::vector<QueryAnalysis>& per,
                            const QueryAnalyzeOptions& options) {
  DiagnosticReport merged(options.max_diagnostics);
  for (size_t i = 0; i < schemas.size(); ++i) {
    merged.MergeFrom(per[i].report, schemas[i]->name());
  }
  // Divergence: equivalent designer variants must agree on satisfiability
  // — the designers all preserve the same associations (the paper's AR
  // property), so "empty here, satisfiable there" indicates a designer
  // bug or a schema the designer's claims do not actually hold for.
  const MctSchema* satisfiable_on = nullptr;
  for (size_t i = 0; i < schemas.size(); ++i) {
    if (!per[i].fatal() && !per[i].statically_empty) {
      satisfiable_on = schemas[i];
      break;
    }
  }
  if (satisfiable_on == nullptr) return merged;
  for (size_t i = 0; i < schemas.size(); ++i) {
    if (!per[i].fatal() && !per[i].statically_empty) continue;
    merged.Warning(
        "QRY011", schemas[i]->name() + "/" + query_label,
        std::string(per[i].fatal() ? "unplannable" : "statically empty") +
            " on this schema but satisfiable on equivalent variant " +
            satisfiable_on->name() +
            " — the designer outputs disagree about the same logical query",
        "inspect this variant's occurrence forests / ref edges; "
        "equivalents of one ER source must answer alike");
  }
  return merged;
}

}  // namespace

DiagnosticReport AnalyzeQueryAcrossSchemas(
    const AssociationQuery& q, const std::vector<const MctSchema*>& schemas,
    const QueryAnalyzeOptions& options) {
  std::vector<QueryAnalysis> per;
  per.reserve(schemas.size());
  for (const MctSchema* s : schemas) {
    per.push_back(AnalyzeQuery(q, *s, options));
  }
  return Divergence(q.name, schemas, per, options);
}

DiagnosticReport AnalyzeMcXPathAcrossSchemas(
    const McXPath& path, const std::vector<const MctSchema*>& schemas,
    const QueryAnalyzeOptions& options) {
  std::vector<QueryAnalysis> per;
  per.reserve(schemas.size());
  for (const MctSchema* s : schemas) {
    per.push_back(AnalyzeMcXPath(path, *s, options));
  }
  std::string label = "mc-xpath";
  if (!path.steps.empty()) label += "/" + path.steps.back().tag;
  return Divergence(label, schemas, per, options);
}

}  // namespace mctdb::analysis
