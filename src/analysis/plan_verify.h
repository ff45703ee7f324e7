// Plan verifier: static checks over a query::QueryPlan before execution.
//
// A plan that fails these checks would execute incorrectly (wrong arity,
// uncovered path steps) or uselessly (a color predicate no element can
// ever satisfy, an unreachable operator). The planner self-checks its
// output with this pass in debug builds, and the mctsvc QueryService runs
// it at admission so malformed plans are rejected with InvalidArgument
// before they occupy a worker slot.
//
// Codes:
//   * PLN001 plan not bound to a query/schema
//   * PLN002 edge-plan/pattern mismatch (count, range, duplicate)
//   * PLN003 unreachable pattern node / broken parent chain
//   * PLN004 segment interval violates the structural-join precondition
//   * PLN005 segment coverage gap or overlap on the association path
//   * PLN006 join-arity mismatch (operator arity inconsistent with kind)
//   * PLN007 dangling color reference in a segment
//   * PLN008 statically-empty color predicate (tags or chain absent from
//            the segment's color: the operator can never match)
//   * PLN009 value join on an ER edge with no ref edge in the schema
//   * PLN010 statically-empty anchor scan
//   * PLN011 update op rejected (bad target, missing attr, malformed
//            subtree, duplicate logical id) — VerifyUpdate
//   * PLN012 update op unsupported under this schema's placement (no
//            occurrence of the subtree root fits the target's colors) —
//            VerifyUpdate
//   * PLN013 value-join operand mismatch: both operands reference the
//            same posting list (degenerate self-join), or the segment's
//            ref edge does not connect the path endpoints it covers
#pragma once

#include <cstddef>

#include "analysis/diagnostics.h"
#include "query/plan.h"
#include "storage/update_ops.h"

namespace mctdb::analysis {

struct PlanVerifyOptions {
  size_t max_diagnostics = 256;
};

/// Runs every plan check; never aborts, reports all findings.
DiagnosticReport VerifyPlan(const query::QueryPlan& plan,
                            const PlanVerifyOptions& options = {});

/// The write-path analog of VerifyPlan: storage::VerifyUpdateOp, the one
/// rule set for U1-U3 ops, as a PLN012 finding when the schema cannot
/// place the op (NotSupported) and PLN011 otherwise. It runs where a write
/// enters: at admission (mctsvc Session::SubmitUpdate) and at the top of
/// wal::DurableStore::Apply, before the op's WAL append. Defined in
/// update_verify.cc, which mctdb_wal compiles (DurableStore::Apply sits
/// below mctdb_query).
DiagnosticReport VerifyUpdate(const mct::MctSchema& schema,
                              const storage::UpdateOp& op);

}  // namespace mctdb::analysis
