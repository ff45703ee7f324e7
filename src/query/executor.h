// Executor: runs a QueryPlan against an MctStore.
//
// Evaluation is binding-set based (TIMBER-style twig evaluation): the
// anchor tag is scanned in the plan's anchor color, then each pattern edge
// is evaluated segment by segment — stack-tree structural joins for
// structural segments, semi-joins on interned id/idref value ids for value
// segments, logical-identity re-anchoring for color crossings. Filter
// branches (below pattern nodes off the root-to-output spine) reduce their
// parent binding by joining back up, innermost filter first, so every
// schema returns the same logical result set.
//
// Costs are real: posting scans go through the buffer pool a page span at
// a time (skipping pages the posting index rules out), value joins scan
// their whole build side, and updates rewrite every redundant copy. Every
// page fetch is charged to THIS query's obs::ExecStats at the point of the
// fetch (see obs/exec_stats.h), so the hit/miss counts in ExecResult are
// exact per query even when many executors share one pool — never a diff
// of pool-global counters.
#pragma once

#include <map>
#include <span>
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

  /// Returns InvalidArgument (instead of crashing) when the plan is
  /// malformed: no query attached, or a non-root pattern node without an
  /// edge plan. Also InvalidArgument, before any operator runs, for an
  /// update-form query on a versioned store: such a query rewrites the
  /// base in place, so it runs only on read-only stores, and a WAL-backed
  /// store takes its updates as logged UpdateOps. Returns DataLoss when a
  /// posting page could not be read
  /// (checksum failure surviving the pool's retries/quarantine) — the
  /// query fails cleanly; the store and service stay up.
  Result<ExecResult> Execute(const QueryPlan& plan);

 private:
  using Binding = std::vector<storage::LabelEntry>;
  /// A binding and the color it is labeled in.
  struct Stage {
    Binding binding;
    mct::ColorId color = 0;
  };

  /// Scan a tag's posting list in a color a page span at a time,
  /// optionally filtering by an attribute predicate. `bounds` installs
  /// index-assisted page-skip hints on the base cursor; they are necessary
  /// conditions for joining, so skipped entries can never appear in a
  /// result.
  Binding ScanTag(mct::ColorId color, er::NodeId tag,
                  const AttrPredicate* predicate,
                  const storage::ScanBounds* bounds = nullptr);
  /// Fills *ids with the dictionary id of each entry's value for
  /// attribute `name_id` (MctStore::FindAttrName), UINT32_MAX where the
  /// entry has none: one MctStore::AttrValueIds call for the whole span.
  /// The one value compare of the executor: ids are equal iff the
  /// interned strings are.
  void ValueIds(std::span<const storage::LabelEntry> entries,
                uint32_t name_id, std::vector<uint32_t>* ids) const;
  /// The members of `keep` whose `keep_attr` value equals the
  /// `probe_attr` value of some member of `probe`, in `keep` order: one
  /// id/idref value join, run forward or backward.
  Binding ValueSemiJoin(const Binding& keep, std::string_view keep_attr,
                        const Binding& probe, std::string_view probe_attr);
  Binding FilterPredicate(Binding in, const AttrPredicate& predicate);
  /// Re-anchor a binding into `color` via shared node identity (the color
  /// crossing primitive).
  Binding CrossTo(const Binding& in, mct::ColorId from_color,
                  mct::ColorId color);

  /// Evaluate one edge forward: the parent binding (labeled in
  /// `parent.color`) to the child binding, with the child's predicate
  /// applied. When `upper` is given it receives the binding in front of
  /// each segment, for ReduceParent.
  Stage EvalEdge(const EdgePlan& edge, const PatternNode& node,
                 const Stage& parent, std::vector<Stage>* upper);
  /// Filter-branch semantics: shrink *parent to the members whose logical
  /// instance reaches a member of `child` along the edge, walking the
  /// segments backward over the `upper` bindings EvalEdge recorded.
  void ReduceParent(const EdgePlan& edge, const PatternNode& node,
                    const std::vector<Stage>& upper, const Stage& child,
                    Binding* parent);

  storage::MctStore* store_;
  storage::ShardedBufferPool* pool_;
  Lsn snapshot_ = kMaxLsn;
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
