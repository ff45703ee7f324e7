#include "analysis/plan_verify.h"

#include <string>

namespace mctdb::analysis {

DiagnosticReport VerifyUpdate(const mct::MctSchema& schema,
                              const storage::UpdateOp& op) {
  DiagnosticReport report;
  Status s = storage::VerifyUpdateOp(schema, op);
  if (s.ok()) return report;
  std::string loc = std::string("update/") +
                    storage::UpdateKindName(op.kind);
  if (s.IsNotSupported()) {
    report.Error("PLN012", loc, s.message(),
                 "insert under a target type the schema places the subtree "
                 "beneath, or re-run against a schema variant that does");
  } else {
    report.Error("PLN011", loc, s.message(),
                 "fix the op's target/attribute/subtree and resubmit");
  }
  return report;
}

}  // namespace mctdb::analysis
