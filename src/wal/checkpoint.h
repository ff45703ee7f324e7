// Checkpointing: fold the delta side state into a fresh compact base
// image and trim the log (DESIGN.md §13).
//
// CompactStore rebuilds a store through StoreBuilder from the live store's
// latest-snapshot view: deleted placements vanish, inserted ones become
// base postings, renamed attribute values are written through, and the
// interval labels are reassigned with full label_stride gaps — restoring
// the insert headroom that incremental gap consumption eroded. Element ids
// are remapped in the process, which is exactly why update ops address
// (er_node, logical) and never ElemId.
//
// The durable checkpoint protocol (DurableStore::Checkpoint) is:
//   1. quiesce writers, group-commit the last appended LSN;
//   2. CompactStore -> SaveStore to "<path>.ckpt.tmp", fsynced;
//   3. rename over "<path>", fsync the directory (the durable commit
//      point — the image must be on disk BEFORE the log is trimmed,
//      since Reset's truncation is itself durable);
//   4. LogWriter::Reset with the checkpoint LSN (trims the log).
// A crash between 3 and 4 leaves old log records covering ops already in
// the image; recovery skips them idempotently (see recovery.h).
#pragma once

#include <memory>

#include "common/lsn.h"
#include "common/result.h"
#include "storage/store.h"

namespace mctdb::wal {

/// Rebuilds a compact read-only base store from `src`'s latest state.
/// Deterministic: byte-identical output for identical logical content.
Result<std::unique_ptr<storage::MctStore>> CompactStore(
    const storage::MctStore& src, const storage::StoreOptions& options);

struct CheckpointStats {
  Lsn checkpoint_lsn = kNoLsn;
  uint64_t log_bytes_trimmed = 0;
  size_t elements = 0;  ///< live elements in the compact image
  /// The log's append count when the image was cut, read under the
  /// store's write lock: every record it counts is in the image, and an
  /// append acknowledged after the checkpoint released the lock is not.
  uint64_t wal_appends = 0;
  /// True when the live in-memory store was swapped to the compacted
  /// image (CheckpointMode::kRebaseLive) — the interval-label rebalance.
  bool rebased = false;
};

}  // namespace mctdb::wal
