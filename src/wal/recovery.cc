#include "wal/recovery.h"

#include <unistd.h>

#include <cstdio>

#include "common/failpoint.h"
#include "storage/store.h"
#include "storage/update_ops.h"
#include "wal/log_reader.h"
#include "wal/wal_format.h"

namespace mctdb::wal {

namespace {

/// Truncate `path` to `size` bytes (cutting a torn tail, or resetting to a
/// fresh header when the header itself was unreadable).
Status TruncateFile(const std::string& path, uint64_t size,
                    const std::string& fresh_header) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return Status::IoError("wal: tail truncate failed: " + path);
  }
  if (size == 0 && !fresh_header.empty()) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr ||
        std::fwrite(fresh_header.data(), 1, fresh_header.size(), f) !=
            fresh_header.size()) {
      if (f != nullptr) std::fclose(f);
      return Status::IoError("wal: header rewrite failed: " + path);
    }
    std::fclose(f);
  }
  return Status::OK();
}

}  // namespace

Result<RecoveryStats> RecoverLog(const std::string& wal_path,
                                 uint64_t fingerprint,
                                 storage::MctStore* store) {
  RecoveryStats stats;
  Result<LogScan> scan_or = ScanLog(wal_path, fingerprint);
  if (!scan_or.ok()) {
    if (scan_or.status().IsNotFound()) return stats;  // no log: fresh store
    return scan_or.status();
  }
  const LogScan& scan = scan_or.value();
  if (!scan.header_valid) {
    // The log died before its first fsynced header. The checkpoint
    // protocol renames the store image BEFORE resetting the log, so a
    // log in this state cannot hold updates the store image lacks —
    // reset it to a fresh header and carry on.
    std::string header;
    EncodeWalHeader({fingerprint, kNoLsn}, &header);
    MCTDB_RETURN_IF_ERROR(TruncateFile(wal_path, 0, header));
    stats.log_reset = true;
    stats.truncated_bytes = scan.file_bytes;
    return stats;
  }
  for (const WalRecord& rec : scan.records) {
    ++stats.scanned_records;
    if (rec.lsn <= scan.header.checkpoint_lsn) {
      ++stats.skipped_records;
      continue;
    }
    if (rec.type != RecordType::kUpdateOp) {
      return Status::Corruption("wal: unknown record type during replay");
    }
    MCTDB_ASSIGN_OR_RETURN(storage::UpdateOp op,
                           storage::DecodeUpdateOp(rec.payload));
    if (!storage::VerifyUpdateOp(store->schema(), op).ok()) {
      // The live path verifies every op before its append, so it never
      // logged this one: skip it like an op that failed live, rather than
      // hand it to the applier, which does not check.
      ++stats.skipped_records;
      continue;
    }
    Result<storage::ApplyStats> applied =
        storage::ApplyUpdateOp(store, op, rec.lsn);
    if (applied.ok()) {
      ++stats.replayed_records;
    } else if (applied.status().IsAlreadyExists() ||
               applied.status().IsNotFound()) {
      // Already reflected in the checkpoint image (the checkpoint crash
      // window) — idempotent skip.
      ++stats.skipped_records;
    } else if (applied.status().IsNotSupported() ||
               applied.status().IsResourceExhausted()) {
      // The op failed the same deterministic way it failed live (it was
      // logged before application was attempted); a no-op then, a no-op
      // now.
      ++stats.skipped_records;
    } else {
      return applied.status();
    }
  }
  if (scan.torn()) {
    switch (MCTDB_FAILPOINT("wal.recover.truncate")) {
      case failpoint::Fault::kError:
        return Status::IoError("wal: injected recovery truncate fault");
      default:
        break;
    }
    MCTDB_RETURN_IF_ERROR(TruncateFile(wal_path, scan.valid_bytes, ""));
    stats.truncated_bytes = scan.file_bytes - scan.valid_bytes;
  }
  stats.last_lsn = scan.last_lsn;
  store->PublishVisibleLsn(stats.last_lsn);
  return stats;
}

}  // namespace mctdb::wal
