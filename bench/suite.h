// The benchmark suites behind `mctc bench`, the repository's one
// benchmark front end. Each registered suite produces one BenchReport at
// a chosen scale; together they regenerate the paper's evaluation
// (Table 1, Figs 8-14) and the ablations EXPERIMENTS.md reports. Every
// TPC-W grid runs through workload::RunWorkload; its problems (planning
// failures, cross-schema equivalence violations) become the report's
// `problems`, so they fail the gate.
#pragma once

#include <string_view>
#include <vector>

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

}  // namespace mctdb::bench
