// Schema-aware static analysis of queries (the MC-XPath /
// association-query front half of mctlint). Update ops have their own
// rule set, storage::VerifyUpdateOp, reported as PLN011/PLN012 by
// analysis::VerifyUpdate (plan_verify.h).
//
// The designer schemas carry rich structural claims — which ER types occur
// in which color, how occurrences nest, which associations are realized
// structurally vs by id/idref, NN/EN normal forms — and this pass checks a
// query against those claims BEFORE planning or execution: a step that can
// never match, a branch the schema forest contradicts, a color crossing
// into a color that does not hold the crossed tag, a predicate on an
// attribute the type does not declare. Findings ride the shared
// DiagnosticReport engine; the planner turns the emptiness findings into
// statically-pruned plans (query::QueryPlan::statically_empty) that the
// executor short-circuits to a zero-I/O empty result.
//
// Codes (stable; messages free to improve):
//   * QRY001 unknown element type (tag not in the ER diagram / pattern
//            node out of range) — fatal
//   * QRY002 malformed reference: unknown color name, association path
//            endpoints disagreeing with the pattern, non-adjacent path
//            nodes, broken parent index — fatal
//   * QRY003 unsatisfiable step: the tag has no occurrence in the step's
//            color — statically empty
//   * QRY004 axis step contradicts the schema forest: both tags occur in
//            the color but no parent-child (resp. ancestor-descendant)
//            occurrence pair realizes the step — statically empty
//   * QRY005 always-empty color crossing: the crossed tag has no
//            occurrence in the target color (disjoint color domains) —
//            statically empty
//   * QRY006 unrecoverable association edge: a path step neither realized
//            structurally in any color nor covered by a ref edge (no plan
//            can exist; the planner refuses the query) — fatal
//   * QRY007 always-false predicate: equality test on an attribute the
//            type declares neither as an ER attribute nor as an idref —
//            statically empty
//   * QRY008 redundant predicate: the identical attribute equality is
//            repeated on the same element type within one query —
//            simplification hint
//   * QRY009 redundant distinct: set semantics requested where the schema
//            admits no duplicate placement of the output type —
//            simplification hint
//   * QRY010 statically-empty query: summary finding emitted whenever any
//            QRY003/004/005/007 finding proves the result set empty on
//            this schema; the plan-prune driver
//   * QRY011 cross-schema divergence: the query is statically empty on
//            one designer variant but not on an equivalent one — a
//            designer-bug detector
//
// Soundness contract (DESIGN.md §14): an emptiness finding is only emitted
// from claims that are *checkable against the schema representation
// itself* (occurrence forests, ref edges, declared attributes) — the same
// claims mctlint's schema pass (SCH001–023) cross-checks against the
// designers' NN/EN/AR/DR flags. A query pruned by QRY010 provably returns
// the empty set on every valid instance of the schema.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostics.h"
#include "mct/mct_schema.h"
#include "query/mcxpath.h"
#include "query/query_spec.h"

namespace mctdb::analysis {

struct QueryAnalyzeOptions {
  size_t max_diagnostics = 256;
};

/// The result of analyzing one query against one schema.
struct QueryAnalysis {
  DiagnosticReport report;
  /// Some QRY003/004/005/007 finding proved the result set empty on this
  /// schema (QRY010 was emitted). The planner marks such plans
  /// statically_empty and the executor short-circuits them.
  bool statically_empty = false;
  /// Some simplification hint (QRY008/009) applies; counted by the
  /// service as mctsvc_plans_simplified_total.
  bool simplifiable = false;
  /// The first emptiness finding, "QRYnnn: message" — surfaced as the
  /// plan's prune_reason and in `mctc trace` span labels.
  std::string empty_reason;

  /// Fatal findings (QRY001/002/006): the query is malformed for this
  /// schema and must be rejected with InvalidArgument, never pruned.
  bool fatal() const { return report.has_errors(); }
};

/// True for the codes the QueryService admission gate rejects with
/// InvalidArgument (QRY001/002/006); the emptiness codes are NOT fatal
/// — a statically-empty query is a valid query with a known-empty answer
/// and executes as a zero-I/O empty result.
bool IsFatalQueryCode(std::string_view code);

/// Analyzes an ER-level association query against `schema`: pattern shape
/// (QRY001/002), per-step recoverability (QRY006), predicate claims
/// (QRY007/008), set-semantics redundancy (QRY009), and overall static
/// emptiness (QRY010).
QueryAnalysis AnalyzeQuery(const query::AssociationQuery& q,
                           const mct::MctSchema& schema,
                           const QueryAnalyzeOptions& options = {});

/// Analyzes a parsed MC-XPath expression against `schema`: color and tag
/// resolution (QRY001/002), per-step satisfiability under the color's
/// occurrence forest (QRY003/004), color crossings (QRY005), predicates
/// (QRY007/008), and overall static emptiness (QRY010).
QueryAnalysis AnalyzeMcXPath(const query::McXPath& path,
                             const mct::MctSchema& schema,
                             const QueryAnalyzeOptions& options = {});

/// Cross-schema divergence (QRY011): analyzes the same query against every
/// schema in `schemas` (typically the seven designer outputs for one ER
/// source), merges the per-schema reports with the schema name as location
/// prefix, and flags any schema on which the query is statically empty
/// while a sibling is not. Fatal-on-one-schema-only divergence is flagged
/// the same way (an association recoverable on one variant but not
/// another is the designer bug the paper's AR property rules out).
DiagnosticReport AnalyzeQueryAcrossSchemas(
    const query::AssociationQuery& q,
    const std::vector<const mct::MctSchema*>& schemas,
    const QueryAnalyzeOptions& options = {});
DiagnosticReport AnalyzeMcXPathAcrossSchemas(
    const query::McXPath& path,
    const std::vector<const mct::MctSchema*>& schemas,
    const QueryAnalyzeOptions& options = {});

}  // namespace mctdb::analysis
