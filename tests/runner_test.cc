#include "workload/runner.h"

#include <gtest/gtest.h>

#include <string>

#include "er/er_catalog.h"

namespace mctdb::workload {
namespace {

TEST(RunnerTest, TpcwRunsHealthy) {
  Workload w = TpcwWorkload(0.03);
  RunnerOptions options;
  options.repetitions = 2;
  auto summary = RunWorkload(w, options);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_TRUE(summary->problems.empty())
      << summary->problems.front() << " (+" << summary->problems.size() - 1
      << " more)";
  // 7 schemas x 12 figure queries.
  EXPECT_EQ(summary->measurements.size(), 7u * 12u);
  EXPECT_EQ(summary->storage.size(), 7u);
}

TEST(RunnerTest, FindLocatesMeasurement) {
  Workload w = TpcwWorkload(0.06);
  auto summary = RunWorkload(w);
  ASSERT_TRUE(summary.ok());
  const Measurement* m = summary->Find("EN", "Q1");
  ASSERT_NE(m, nullptr);
  EXPECT_GT(m->unique_results, 0u);
  EXPECT_EQ(summary->Find("EN", "Q99"), nullptr);
  EXPECT_EQ(summary->Find("NOPE", "Q1"), nullptr);
}

TEST(RunnerTest, StrategySubsetRespected) {
  Workload w = TpcwWorkload(0.03);
  RunnerOptions options;
  options.strategies = {design::Strategy::kEn, design::Strategy::kDr};
  auto summary = RunWorkload(w, options);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->storage.size(), 2u);
  EXPECT_EQ(summary->storage[0].first, "EN");
  EXPECT_EQ(summary->storage[1].first, "DR");
}

TEST(RunnerTest, XmarkWorkloadHealthyOnCollectionSample) {
  for (auto maker : {er::Er2University, er::Er5Airline}) {
    Workload w = XmarkEmulatedWorkload(maker());
    w.gen.base_count = 12;
    auto summary = RunWorkload(w);
    ASSERT_TRUE(summary.ok());
    EXPECT_TRUE(summary->problems.empty())
        << w.diagram.name() << ": " << summary->problems.front();
  }
}

TEST(RunnerTest, MedianSecondsIsATrueMedian) {
  // Odd count: the middle element.
  EXPECT_DOUBLE_EQ(MedianSeconds({5.0, 1.0, 3.0}), 3.0);
  // Even count: the mean of the two middle elements, NOT the lower one
  // (the seed's reps=2 "median" was just min(), biasing results fast).
  EXPECT_DOUBLE_EQ(MedianSeconds({3.0, 1.0}), 2.0);
  EXPECT_DOUBLE_EQ(MedianSeconds({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(MedianSeconds({7.0}), 7.0);
}

TEST(RunnerTest, MeasurementsCarryStageBreakdown) {
  Workload w = TpcwWorkload(0.03);
  auto summary = RunWorkload(w);
  ASSERT_TRUE(summary.ok());
  const Measurement* m = summary->Find("EN", "Q1");
  ASSERT_NE(m, nullptr);
  EXPECT_GT(m->page_hits + m->page_misses, 0u);
  uint64_t stage_calls = 0;
  for (const obs::StageAgg& row : m->stages) stage_calls += row.calls;
  EXPECT_GT(stage_calls, 0u) << "per-stage rollup must be populated";
  EXPECT_GT(m->stages[size_t(obs::StageKind::kTagScan)].calls, 0u);
}

TEST(RunnerTest, UpdateMeasurementsCountElementWrites) {
  Workload w = TpcwWorkload(0.03);
  auto summary = RunWorkload(w);
  ASSERT_TRUE(summary.ok());
  const Measurement* deep = summary->Find("DEEP", "U1");
  const Measurement* en = summary->Find("EN", "U1");
  ASSERT_NE(deep, nullptr);
  ASSERT_NE(en, nullptr);
  EXPECT_GT(deep->elements_updated, en->elements_updated)
      << "DEEP rewrites copies";
}

/// Expects `b` to equal `a` in everything but times.
void ExpectEqualButTimes(const RunSummary& a, const RunSummary& b) {
  EXPECT_EQ(a.problems, b.problems);
  ASSERT_EQ(a.storage.size(), b.storage.size());
  for (size_t i = 0; i < a.storage.size(); ++i) {
    EXPECT_EQ(a.storage[i].first, b.storage[i].first);
    EXPECT_EQ(a.storage[i].second.num_elements,
              b.storage[i].second.num_elements);
  }
  ASSERT_EQ(a.measurements.size(), b.measurements.size());
  for (size_t i = 0; i < a.measurements.size(); ++i) {
    const Measurement& ma = a.measurements[i];
    const Measurement& mb = b.measurements[i];
    SCOPED_TRACE(ma.schema + "/" + ma.query);
    EXPECT_EQ(ma.schema, mb.schema);
    EXPECT_EQ(ma.query, mb.query);
    EXPECT_EQ(ma.unique_results, mb.unique_results);
    EXPECT_EQ(ma.raw_results, mb.raw_results);
    EXPECT_EQ(ma.elements_updated, mb.elements_updated);
    EXPECT_EQ(ma.page_hits, mb.page_hits);
    EXPECT_EQ(ma.page_misses, mb.page_misses);
    EXPECT_EQ(ma.join_pairs, mb.join_pairs);
    EXPECT_EQ(ma.wal_appends, mb.wal_appends);
    EXPECT_EQ(ma.wal_fsyncs, mb.wal_fsyncs);
    EXPECT_EQ(ma.plan.structural_joins, mb.plan.structural_joins);
    EXPECT_EQ(ma.plan.value_joins, mb.plan.value_joins);
    EXPECT_EQ(ma.plan.color_crossings, mb.plan.color_crossings);
    EXPECT_EQ(ma.plan.dup_ops(), mb.plan.dup_ops());
    for (size_t k = 0; k < obs::kNumStageKinds; ++k) {
      EXPECT_EQ(ma.stages[k].calls, mb.stages[k].calls) << k;
      EXPECT_EQ(ma.stages[k].cardinality_out, mb.stages[k].cardinality_out)
          << k;
    }
  }
}

// Each store's own pool serves one thread, as on one thread, so 2 and 4
// threads report exactly the one-thread run: page hits and misses apart,
// join pairs, result counts and the problem list.
TEST(ParallelRunnerTest, MatchesSerialRunMeasurementForMeasurement) {
  Workload w = TpcwWorkload(0.03);
  RunnerOptions serial;
  serial.repetitions = 2;
  auto a = RunWorkload(w, serial);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_TRUE(a->problems.empty()) << a->problems.front();
  for (size_t threads : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    RunnerOptions parallel = serial;
    parallel.num_threads = threads;
    auto b = RunWorkload(w, parallel);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectEqualButTimes(*a, *b);
  }
}

// The same holds in update mode: every schema applies the op stream at
// the same grid positions on its own thread, and the U1-U3 rows report
// the same WAL appends and element writes.
TEST(ParallelRunnerTest, UpdateModeMatchesSerialRun) {
  Workload w = TpcwWorkload(0.03);
  RunnerOptions serial;
  serial.update_fraction = 1.0;
  auto a = RunWorkload(w, serial);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_TRUE(a->problems.empty()) << a->problems.front();
  // Every schema reports its op rows (the shared stream is all renames on
  // TPC-W), so the comparison below covers WAL appends and element writes.
  size_t update_rows = 0;
  for (const Measurement& m : a->measurements) {
    if (m.wal_appends > 0) ++update_rows;
  }
  EXPECT_GE(update_rows, a->storage.size());
  for (size_t threads : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    RunnerOptions parallel = serial;
    parallel.num_threads = threads;
    auto b = RunWorkload(w, parallel);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectEqualButTimes(*a, *b);
  }
}

}  // namespace
}  // namespace mctdb::workload
