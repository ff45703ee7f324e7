// WorkloadRunner: the one-call evaluation harness. Given a workload, it
// designs the requested schemas, draws one logical instance, materializes a
// store per schema, executes every query everywhere, checks logical result
// equivalence across schemas (the §6 "equivalent content" guarantee), and
// returns per-(schema, query) measurements. bench_table1 and downstream
// users build on this instead of wiring the pipeline by hand.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "design/designer.h"
#include "instance/materialize.h"
#include "query/executor.h"
#include "workload/workload.h"

namespace mctdb::workload {

struct RunnerOptions {
  std::vector<design::Strategy> strategies = design::AllStrategies();
  /// Verify that every read query returns the same logical result set on
  /// every schema; mismatches are reported in RunSummary::problems.
  bool check_equivalence = true;
  /// Repetitions per query; the median time is reported.
  size_t repetitions = 1;
  /// When > 0, each store is wrapped in an ephemeral WAL-backed
  /// wal::DurableStore and ONE deterministic U1-U3 op stream (identical
  /// across schemas; see workload/update_gen.h) is interleaved with the
  /// query grid — roughly update_fraction update ops per figure query,
  /// applied at the same grid positions on every schema so cross-schema
  /// equivalence holds at every point of the run. Measurement rows named
  /// "U1"/"U2"/"U3" report median op latency plus wal_appends/wal_fsyncs,
  /// and after the grid the runner re-checks read-query equivalence on
  /// the updated stores. The workload's update-form queries are skipped:
  /// the op stream is the durable stores' only writer. Update mode forces
  /// the serial grid path.
  double update_fraction = 0.0;
  /// Worker threads for the measurement grid. 1 = the classic serial
  /// loop; > 1 fans the (schema x query) grid out through an
  /// mctsvc::QueryService — one session per schema (so each store's
  /// queries, updates included, keep their serial order and results)
  /// running in parallel across schemas. Equivalence checking and
  /// median-of-repetitions semantics are unchanged.
  size_t num_threads = 1;
  storage::StoreOptions store;
};

struct Measurement {
  std::string schema;
  std::string query;
  query::PlanStats plan;
  double seconds = 0.0;
  size_t unique_results = 0;
  size_t raw_results = 0;
  size_t elements_updated = 0;
  /// Exact per-query I/O of the last repetition (charged at fetch time to
  /// this query, not diffed from pool-global counters).
  uint64_t page_misses = 0;
  uint64_t page_hits = 0;
  /// Structural-join containment pairs of the last repetition.
  uint64_t join_pairs = 0;
  /// WAL work attributed to this row (update rows only): records appended
  /// and fsyncs led. Fsyncs can be < the op count — group commit.
  uint64_t wal_appends = 0;
  uint64_t wal_fsyncs = 0;
  /// Per-stage rollup of the last repetition's span trace (self time per
  /// stage kind; rows sum to the query's elapsed time).
  obs::StageTable stages{};
};

/// True median: the middle element for odd sizes, the mean of the two
/// middle elements for even sizes. Exposed for testing; RunWorkload uses
/// it for the reported per-query time.
double MedianSeconds(std::vector<double> times);

struct RunSummary {
  /// Storage statistics per schema, in strategy order.
  std::vector<std::pair<std::string, storage::StoreStats>> storage;
  /// One row per (schema, figure query), schema-major.
  std::vector<Measurement> measurements;
  /// Equivalence violations and planning failures, empty when healthy.
  std::vector<std::string> problems;
  /// Wall-clock split: design + instance + materialization vs. the
  /// (schema x query) measurement grid (what num_threads parallelizes).
  double setup_seconds = 0.0;
  double grid_seconds = 0.0;

  const Measurement* Find(const std::string& schema,
                          const std::string& query) const;
};

/// Runs `workload` end to end. Fails only on setup errors; per-query
/// problems are collected in the summary.
Result<RunSummary> RunWorkload(const Workload& workload,
                               const RunnerOptions& options = {});

}  // namespace mctdb::workload
