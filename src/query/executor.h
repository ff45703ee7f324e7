// Executor: runs a QueryPlan against an MctStore.
//
// Evaluation is binding-set based (TIMBER-style twig evaluation): the
// anchor tag is scanned in the plan's anchor color, then each pattern edge
// is evaluated segment by segment — stack-tree structural joins for
// structural segments, hash joins on id/idref values for value segments,
// logical-identity re-anchoring for color crossings. Filter branches (below
// pattern nodes off the root-to-output spine) reduce their parent binding
// by joining back up, so every schema returns the same logical result set.
//
// Costs are real: posting scans go through the buffer pool, value joins
// build their hash table from a full scan of the build side, and updates
// rewrite every redundant copy. Every page fetch is charged to THIS
// query's obs::ExecStats at the point of the fetch (see obs/exec_stats.h),
// so the hit/miss counts in ExecResult are exact per query even when many
// executors share one pool — never a diff of pool-global counters.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/exec_stats.h"
#include "query/plan.h"
#include "storage/store.h"

namespace mctdb::query {

struct ExecResult {
  /// Output logical instance ids after duplicate elimination (the
  /// canonical result, equal across schemas of one logical instance).
  std::vector<uint32_t> logicals;
  /// Stored-element matches before elimination (Table 1 reports the
  /// parenthesized duplicate counts for DEEP/UNDR from this).
  size_t raw_count = 0;
  size_t unique_count = 0;
  size_t duplicates() const { return raw_count - unique_count; }

  /// Group-by output (value -> count), when the query groups.
  std::map<std::string, size_t> groups;

  // Updates.
  size_t logicals_updated = 0;
  size_t elements_updated = 0;  ///< includes redundant copies
  size_t icic_color_touches = 0;

  double elapsed_seconds = 0.0;
  /// Exact per-query I/O: pages this query fetched through its cursors,
  /// charged at fetch time. Unaffected by concurrent queries on the pool.
  uint64_t page_misses = 0;
  uint64_t page_hits = 0;
  /// Total structural-join containment pairs produced by this query.
  uint64_t join_pairs = 0;
  /// Index-assisted posting seeks: scans that consulted the per-page
  /// interval summaries and skipped at least one page without fetching it.
  uint64_t index_seeks = 0;

  /// The stage-span trace (root is the kQuery span). Render with
  /// obs::SpanTreeToText / obs::SpanToJson; roll up with
  /// obs::AggregateByStage.
  obs::Span trace;
};

/// How the executor consumes posting lists and feeds structural joins.
/// kBatched is the production path: page-at-a-time spans, SoA block joins,
/// and index-assisted scan bounds. kTuple is the original entry-at-a-time
/// path, kept behind this flag for one release as the equivalence oracle
/// (the grid test drives every query through both and compares bytes).
enum class ExecMode { kBatched, kTuple };

class Executor {
 public:
  /// Runs against the store's own one-shard pool by default; many
  /// executors may share it across threads. The service passes the
  /// store's N-shard pool instead. Either way the page hits and misses in
  /// ExecResult are this query's own, charged at each fetch.
  explicit Executor(storage::MctStore* store,
                    storage::ShardedBufferPool* pool = nullptr)
      : store_(store), pool_(pool != nullptr ? pool : store->buffer_pool()) {}

  /// Pins every read of this executor to the given snapshot LSN. On a
  /// versioned store (wal::DurableStore) callers pass
  /// store->visible_lsn() ONCE per query, so a query that started before
  /// an update keeps its consistent pre-commit view for its whole run —
  /// readers never block behind writers. Default kMaxLsn = latest (and a
  /// no-op on read-only stores).
  void set_snapshot(Lsn snapshot) { snapshot_ = snapshot; }
  Lsn snapshot() const { return snapshot_; }

  /// Selects the scan/join implementation; see ExecMode. Serial results
  /// are byte-identical across modes — only I/O and CPU differ.
  void set_mode(ExecMode mode) { mode_ = mode; }
  ExecMode mode() const { return mode_; }

  /// Returns InvalidArgument (instead of crashing) when the plan is
  /// malformed: no query attached, or a non-root pattern node without an
  /// edge plan. Returns DataLoss when a posting page could not be read
  /// (checksum failure surviving the pool's retries/quarantine) — the
  /// query fails cleanly; the store and service stay up.
  Result<ExecResult> Execute(const QueryPlan& plan);

 private:
  using Binding = std::vector<storage::LabelEntry>;

  /// Scan a tag's posting list in a color, optionally filtering by an
  /// attribute predicate. `bounds` (batched mode only) installs
  /// index-assisted page-skip hints on the base cursor; they are
  /// necessary conditions for joining, so skipped entries can never
  /// appear in a result.
  Binding ScanTag(mct::ColorId color, er::NodeId tag,
                  const AttrPredicate* predicate,
                  const storage::ScanBounds* bounds = nullptr);
  Binding FilterPredicate(Binding in, const AttrPredicate& predicate);
  /// Re-anchor a binding into `color` via shared node identity (the color
  /// crossing primitive).
  Binding CrossTo(const Binding& in, mct::ColorId from_color,
                  mct::ColorId color);

  /// Evaluate one edge: parent binding (labeled in `parent_color`) to child
  /// binding. When `reduce_parent`, also shrink *parent to members with at
  /// least one match (filter-branch semantics).
  Binding EvalEdge(const EdgePlan& edge, const PatternNode& node,
                   Binding* parent, mct::ColorId* parent_color,
                   bool reduce_parent, mct::ColorId* out_color);

  storage::MctStore* store_;
  storage::ShardedBufferPool* pool_;
  Lsn snapshot_ = kMaxLsn;
  ExecMode mode_ = ExecMode::kBatched;
  /// The running query's attribution context; set for the duration of
  /// Execute so the operators (and their posting cursors) charge spans and
  /// page fetches to it.
  obs::ExecStats* stats_ = nullptr;
  /// First storage failure observed by an operator during Execute. The
  /// Binding-returning operators cannot propagate Status through their
  /// signatures, so ScanTag latches the cursor's failure here and Execute
  /// checks it between evaluation steps.
  Status failure_;
};

}  // namespace mctdb::query
