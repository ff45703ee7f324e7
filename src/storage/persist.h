// Store persistence: serialize an MctStore to a single file and load it
// back. The format is a versioned, section-tagged binary layout:
//
//   header  : magic "MCTDB2\n", schema fingerprint
//   pages   : the pager's 8 KB pages verbatim (posting lists)
//   elements: ElementMeta records
//   attrs   : per-element AttrRecord lists
//   dicts   : attribute-name and value dictionaries
//   labels  : per color, LabelEntry records (each names its elem)
//   parents : per color, (elem, parent) pairs
//             (both written in element order, so equal stores save to
//             equal bytes; any order loads)
//   postings: per (color, tag), page-id lists + counts
//   postidx : versioned per-(color, tag) page summaries (first start, max
//             end) — the persistent interval index behind index-assisted
//             posting seeks; one summary per posting page
//   counters: attribute and content-node counts
//
// The key index (logical id -> elements) is not stored: LoadStore sorts it
// out of the elements section once every section has checked out, as
// StoreBuilder::Finish does for a fresh build.
//
// Bytes move through one kImageIoBufferBytes buffer each way, not one
// stdio call per field, and each loaded page is copied and checksummed
// once (Pager::Append). The buffer is invisible in the file: the image
// bytes, the checks below and the failpoints behave as if every field
// were read and written on its own.
//
// Every section ends with a 64-bit checksum of its bytes, verified on
// load. Version 2 (this PR's hardening) draws a clean error taxonomy:
// the wrong file or schema is InvalidArgument (bad magic, fingerprint or
// color-count mismatch, v1 files), while a damaged right file — truncated
// sections, flipped bits, counts pointing past the data — is DataLoss.
// Load never trusts a count or id it has not bounds-checked — element,
// parent, dictionary and page ids included — so a corrupt file fails
// cleanly instead of over-allocating or indexing out of range (the
// tests/data corpus pins this down under ASAN).
//
// The schema itself is NOT serialized — the caller re-derives it (designs
// are deterministic functions of the ER diagram) and Load verifies the
// fingerprint, refusing to attach data to the wrong schema.
//
// Failpoints: "persist.save" (err -> every write fails; trunc -> the file
// is silently cut at 4 KB) and "persist.load" (err -> injected DataLoss;
// trunc -> the file reads as if cut in half).
#pragma once

#include <memory>
#include <string>

#include "common/result.h"
#include "common/retry.h"
#include "storage/store.h"

namespace mctdb::storage {

/// Size of the buffer SaveStore and LoadStore move image bytes through.
inline constexpr size_t kImageIoBufferBytes = size_t{1} << 20;

/// Stable fingerprint of a schema's shape (colors, occurrences, edges, ref
/// edges) used to pair data files with schemas.
uint64_t SchemaFingerprint(const mct::MctSchema& schema);

/// Writes `store` to `path` (overwrites). With `sync`, the file's bytes
/// are fsynced before close, so a subsequent rename of `path` cannot
/// become durable ahead of the data it names (the checkpoint discipline:
/// sync file, rename, sync directory, only then trim the log).
Status SaveStore(const MctStore& store, const std::string& path,
                 bool sync = false);

/// fsyncs the directory containing `path`, making renames/removals of
/// entries in it durable. The companion to SaveStore(..., sync=true).
Status SyncParentDir(const std::string& path);

/// Reads a store from `path`. `schema` must outlive the result and match
/// the fingerprint recorded at save time.
Result<std::unique_ptr<MctStore>> LoadStore(const mct::MctSchema& schema,
                                            const std::string& path,
                                            const StoreOptions& options = {});

/// LoadStore with bounded retry-with-backoff on transient faults
/// (DataLoss / IoError / Unavailable — e.g. a snapshot mid-copy or an
/// injected "persist.load" fault); permanent errors (wrong schema, bad
/// magic) fail immediately. `retries` (optional) is incremented per extra
/// attempt, for metrics.
Result<std::unique_ptr<MctStore>> LoadStoreWithRetry(
    const mct::MctSchema& schema, const std::string& path,
    const StoreOptions& options = {},
    const RetryPolicy& policy = RetryPolicy::FromEnv(),
    uint64_t* retries = nullptr);

}  // namespace mctdb::storage
