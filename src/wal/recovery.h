// Crash recovery: replay the WAL's valid prefix onto a freshly loaded
// store and cut the torn tail (DESIGN.md §13).
//
// Invariant this module restores: after RecoverLog returns OK, the store's
// in-memory state equals "checkpoint image + every complete, checksum-valid
// record in LSN order", and the log file on disk ends exactly at that
// prefix — a crash at ANY byte offset of the log lands in the state some
// prefix of committed updates produced (the crash-at-every-offset test in
// tests/wal_recovery_test.cc walks all of them).
//
// Replay is idempotent by construction: ops address (er_node, logical)
// targets, so a record whose effect is already in the checkpoint image
// replays as AlreadyExists/NotFound and is counted as skipped, not failed.
// This covers the checkpoint crash window (store image renamed, log not
// yet reset) with no LSN bookkeeping inside the store file.
//
// Every decoded record passes storage::VerifyUpdateOp before it reaches
// the applier, exactly as every live op does before its append. A
// checksum-valid record that fails it (one the live path would have
// refused) is skipped, never applied.
#pragma once

#include <cstdint>
#include <string>

#include "common/lsn.h"
#include "common/result.h"

namespace mctdb::storage {
class MctStore;
}

namespace mctdb::wal {

struct RecoveryStats {
  uint64_t scanned_records = 0;
  uint64_t replayed_records = 0;  ///< mutated the store
  /// Already in the checkpoint image, failed live, or refused by the
  /// verifier.
  uint64_t skipped_records = 0;
  uint64_t truncated_bytes = 0;   ///< torn tail cut from the file
  bool log_reset = false;         ///< header unreadable -> fresh empty log
  Lsn last_lsn = kNoLsn;          ///< recovery snapshot (visible LSN)
};

/// Scans `wal_path`, replays onto `store` (versioning must be enabled),
/// truncates the torn tail in place, and publishes the recovered visible
/// LSN. A missing log file is OK (fresh store, zero stats). A log whose
/// header names a different schema fingerprint is InvalidArgument.
Result<RecoveryStats> RecoverLog(const std::string& wal_path,
                                 uint64_t fingerprint,
                                 storage::MctStore* store);

}  // namespace mctdb::wal
