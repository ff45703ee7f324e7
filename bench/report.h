// Machine-readable bench reporting and the regression gate.
//
// Every bench binary (and `mctc bench`) renders its measurements through
// one schema so the perf trajectory is diffable across commits:
//
//   {
//     "bench": "table1", "scale": 1.0, "reps": 3,
//     "records": [
//       {"schema": "EN", "query": "Q1", "median_seconds": 0.00012,
//        "page_hits": 301, "page_misses": 12, "join_pairs": 540,
//        "reps": 3, "extra": {"unique_results": 67}},
//       ...
//     ]
//   }
//
// `extra` carries bench-specific counters (figure plan stats, scaling
// ratios, result counts). Reports are written as BENCH_<name>.json and
// checked against committed baselines in bench/baselines/ by
// CheckAgainstBaseline (see DESIGN.md §11 for the gate policy):
//   * median_seconds regresses when it exceeds baseline*(1+tolerance)
//     AND the absolute growth exceeds min_abs_seconds (absolute floor so
//     microsecond-scale medians don't flap in CI);
//   * page_misses and join_pairs regress on ANY increase over baseline —
//     they are exact in serial runs, so an increase is an algorithmic
//     regression, not noise; a decrease is a note;
//   * every `extra` (result counts, plan stats) must EQUAL its baseline:
//     a drop in a result count is a wrong answer, not an improvement. An
//     extra present on one side only is a regression too — a dropped
//     result count, or the `error` extra a failed query adds;
//   * a record present in the baseline but missing from the current run
//     is a regression (a silently dropped measurement must not pass).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace mctdb::bench {

struct QueryRecord {
  std::string schema;
  std::string query;
  double median_seconds = 0.0;
  uint64_t page_hits = 0;
  uint64_t page_misses = 0;
  uint64_t join_pairs = 0;
  size_t reps = 0;
  /// Bench-specific named counters, emitted under "extra".
  std::vector<std::pair<std::string, double>> extra;

  QueryRecord& Extra(std::string name, double value) {
    extra.emplace_back(std::move(name), value);
    return *this;
  }
};

struct BenchReport {
  std::string bench;
  double scale = 1.0;
  size_t reps = 1;
  std::vector<QueryRecord> records;

  const QueryRecord* Find(const std::string& schema,
                          const std::string& query) const;
  std::string ToJson() const;
};

/// Accumulates records for one bench run and writes BENCH_<name>.json
/// (logs a "bench" JSONL event on write).
class JsonReporter {
 public:
  JsonReporter(std::string bench_name, double scale, size_t reps = 1);

  QueryRecord& Add(std::string schema, std::string query);
  BenchReport& report() { return report_; }
  const BenchReport& report() const { return report_; }

  /// Serializes to `path`; "-" writes to stdout.
  Status WriteTo(const std::string& path) const;

 private:
  BenchReport report_;
};

/// Parses a report previously produced by BenchReport::ToJson (or a
/// combined report's "benches" element).
Result<BenchReport> ParseBenchReport(std::string_view json_text);
/// Reads and parses BENCH_<name>.json from disk.
Result<BenchReport> LoadBenchReport(const std::string& path);

/// One combined document: {"benches":[<report>,...]}.
std::string CombineReports(const std::vector<BenchReport>& reports);

struct CheckOptions {
  /// Relative headroom for median_seconds.
  double tolerance = 0.25;
  /// Absolute floor under which timing growth is ignored (seconds).
  double min_abs_seconds = 0.005;
  /// When false, counter increases and extra value changes are reported
  /// as notes instead of regressions. Extras missing on either side still
  /// fail.
  bool gate_counters = true;
  /// Strict mode (on in CI): a current record with no baseline is a
  /// FAILURE, not a note. Without it, renaming a query or adding a schema
  /// silently un-gates the new records until someone remembers to commit
  /// baselines; strict mode turns that drift into a red build that says
  /// exactly which records to add.
  bool strict_new_records = false;
};

struct CheckResult {
  /// Human-readable regression lines; empty means the gate passes.
  std::vector<std::string> regressions;
  /// Non-fatal observations (new records, improvements).
  std::vector<std::string> notes;
  bool ok() const { return regressions.empty(); }
};

/// Compares `current` against `baseline` under the policy above. A
/// scale/bench-name mismatch is itself a regression (the gate must never
/// silently compare apples to oranges).
CheckResult CheckAgainstBaseline(const BenchReport& current,
                                 const BenchReport& baseline,
                                 const CheckOptions& options);

}  // namespace mctdb::bench
