// UpdateExecutor: runs storage::UpdateOps through a wal::DurableStore
// with the same observability contract as the read-path Executor.
//
// Each Execute call drives the durable apply protocol — verification
// (DurableStore::Apply checks the PLN011/012 write-path rules once, before
// the WAL append), WAL append, delta mutation, group commit — under an
// obs::ExecStats span tree whose kWal spans make the log time visible in
// `mctc trace`. The receipt carries the commit LSN: pass it (or
// store->visible_lsn()) to Executor::set_snapshot to read your own write;
// omit it and concurrent queries keep their consistent pre-commit view.
#pragma once

#include <string>

#include "common/result.h"
#include "obs/exec_stats.h"
#include "storage/update_ops.h"
#include "wal/durable_store.h"

namespace mctdb::query {

struct UpdateExecResult {
  /// LSN the op committed at (durable: its fsync — possibly shared with a
  /// batch — has returned).
  Lsn lsn = kNoLsn;
  /// What the apply touched (elements / labels / colors).
  storage::ApplyStats stats;
  /// WAL work of this op alone, from its DurableStore::ApplyReceipt:
  /// appends is 1 (2 after a stalled retry); fsyncs is 1 when the op led
  /// its batch's sync, 0 when another committer's covered its LSN.
  /// Concurrent writers on one store never count each other's work.
  uint64_t wal_appends = 0;
  uint64_t wal_fsyncs = 0;
  double elapsed_seconds = 0.0;
  /// Span tree: root kQuery span labeled with the op, kWal children for
  /// append and group_commit, a kUpdate child for the delta mutation.
  obs::Span trace;
};

class UpdateExecutor {
 public:
  explicit UpdateExecutor(wal::DurableStore* store) : store_(store) {}

  /// Verifies, logs, applies, and commits one op (DurableStore::Apply).
  /// InvalidArgument carries the verifier's diagnostic text when the op
  /// fails static checks; Unavailable means the WAL is degraded (reopen
  /// the store to recover).
  Result<UpdateExecResult> Execute(const storage::UpdateOp& op);

 private:
  wal::DurableStore* store_;
};

}  // namespace mctdb::query
