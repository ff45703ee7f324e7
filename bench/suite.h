// The in-process benchmark registry behind `mctc bench`.
//
// Each registered benchmark produces one BenchReport at a chosen scale.
// The measurement core (MeasureTpcwGrid) is the SAME code bench_table1
// runs, so `mctc bench --json` and the standalone binary cannot drift:
// plan with query::PlanQuery, execute on the store-owned one-shard pool
// with query::Executor, report the median of `repetitions` runs and the
// exact per-query I/O of the last repetition.
#pragma once

#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "bench/report.h"

namespace mctdb::bench {

struct SuiteOptions {
  double scale = 1.0;
  /// Repetitions per (schema, query) cell; the median is reported.
  size_t repetitions = 3;
};

struct BenchmarkDef {
  const char* name;
  const char* description;
  BenchReport (*fn)(const SuiteOptions& options);
};

/// All registered benchmarks, in execution order.
const std::vector<BenchmarkDef>& RegisteredBenchmarks();
const BenchmarkDef* FindBenchmark(std::string_view name);

/// Executes every figure query of `setup` on every schema, `reps` times
/// each; one record per (schema, query) cell with the median time, the
/// last repetition's exact I/O and join pairs, and result-count extras
/// (unique/raw for reads, logical/element writes for updates). Planner
/// or executor failures surface as an `error` extra of 1 on the cell.
std::vector<QueryRecord> MeasureTpcwGrid(TpcwSetup& setup, size_t reps);

}  // namespace mctdb::bench
