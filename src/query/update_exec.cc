#include "query/update_exec.h"

#include <chrono>
#include <optional>
#include <utility>

#include "analysis/plan_verify.h"
#include "obs/trace_id.h"

namespace mctdb::query {

Result<UpdateExecResult> UpdateExecutor::Execute(
    const storage::UpdateOp& op) {
  analysis::DiagnosticReport verdict =
      analysis::VerifyUpdate(store_->schema(), op);
  if (verdict.has_errors()) {
    return Status::InvalidArgument("update rejected by verifier:\n" +
                                   verdict.ToText());
  }
  // Direct library/CLI callers get their trace minted HERE, before the
  // stats capture it, so the span tree and the WAL flight events agree;
  // service-submitted ops already run under the worker's admission trace.
  std::optional<obs::ScopedTraceId> trace_scope;
  if (obs::CurrentTraceId() == 0) {
    trace_scope.emplace(obs::MintTraceId());
  }
  auto t0 = std::chrono::steady_clock::now();
  uint64_t appends0 = store_->wal_appends();
  uint64_t fsyncs0 = store_->wal_fsyncs();
  obs::ExecStats stats(std::string(storage::UpdateKindName(op.kind)) + " " +
                       storage::DebugString(op));
  Result<wal::DurableStore::ApplyReceipt> receipt = store_->Apply(op, &stats);
  MCTDB_RETURN_IF_ERROR(receipt.status());
  UpdateExecResult result;
  result.lsn = receipt->lsn;
  result.stats = receipt->stats;
  result.wal_appends = store_->wal_appends() - appends0;
  result.wal_fsyncs = store_->wal_fsyncs() - fsyncs0;
  result.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  result.trace = stats.Finish();
  return result;
}

}  // namespace mctdb::query
