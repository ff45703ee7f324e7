#include "bench/report.h"

#include <gtest/gtest.h>

#include <string>

namespace mctdb::bench {
namespace {

BenchReport SampleReport() {
  BenchReport r;
  r.bench = "table1";
  r.scale = 0.1;
  r.reps = 3;
  QueryRecord q1;
  q1.schema = "EN";
  q1.query = "Q1";
  q1.median_seconds = 0.010;
  q1.page_hits = 100;
  q1.page_misses = 10;
  q1.join_pairs = 500;
  q1.reps = 3;
  q1.Extra("unique_results", 42);
  r.records.push_back(q1);
  QueryRecord q2 = q1;
  q2.schema = "DEEP";
  q2.median_seconds = 0.002;
  r.records.push_back(q2);
  return r;
}

TEST(BenchReportTest, JsonRoundTrips) {
  BenchReport original = SampleReport();
  auto parsed = ParseBenchReport(original.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->bench, "table1");
  EXPECT_DOUBLE_EQ(parsed->scale, 0.1);
  EXPECT_EQ(parsed->reps, 3u);
  ASSERT_EQ(parsed->records.size(), 2u);
  const QueryRecord* rec = parsed->Find("EN", "Q1");
  ASSERT_NE(rec, nullptr);
  EXPECT_DOUBLE_EQ(rec->median_seconds, 0.010);
  EXPECT_EQ(rec->page_hits, 100u);
  EXPECT_EQ(rec->page_misses, 10u);
  EXPECT_EQ(rec->join_pairs, 500u);
  ASSERT_EQ(rec->extra.size(), 1u);
  EXPECT_EQ(rec->extra[0].first, "unique_results");
  EXPECT_DOUBLE_EQ(rec->extra[0].second, 42.0);
}

TEST(BenchReportTest, CombinedDocumentParsesPerBench) {
  BenchReport a = SampleReport();
  BenchReport b = SampleReport();
  b.bench = "figures";
  std::string combined = CombineReports({a, b});
  EXPECT_NE(combined.find("\"benches\""), std::string::npos);
  EXPECT_NE(combined.find("\"figures\""), std::string::npos);
}

TEST(BenchReportTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseBenchReport("not json").ok());
  EXPECT_FALSE(ParseBenchReport("{\"records\":3}").ok());
  EXPECT_FALSE(ParseBenchReport("[]").ok());
}

TEST(BenchGateTest, IdenticalReportPasses) {
  BenchReport r = SampleReport();
  CheckResult verdict = CheckAgainstBaseline(r, r, {});
  EXPECT_TRUE(verdict.ok()) << verdict.regressions.front();
}

TEST(BenchGateTest, TimingRegressionBeyondToleranceAndFloorFails) {
  BenchReport baseline = SampleReport();
  BenchReport current = baseline;
  // 0.010s -> 0.030s: 3x the baseline and +20ms absolute.
  current.records[0].median_seconds = 0.030;
  CheckOptions options;
  options.tolerance = 0.25;
  options.min_abs_seconds = 0.005;
  CheckResult verdict = CheckAgainstBaseline(current, baseline, options);
  ASSERT_FALSE(verdict.ok());
  EXPECT_NE(verdict.regressions[0].find("Q1"), std::string::npos);
}

TEST(BenchGateTest, TinyAbsoluteGrowthIsIgnored) {
  BenchReport baseline = SampleReport();
  BenchReport current = baseline;
  // 0.002s -> 0.004s on DEEP: 2x relative but only +2ms, below the 5ms
  // floor — sub-millisecond medians must not flap the gate.
  current.records[1].median_seconds = 0.004;
  CheckResult verdict = CheckAgainstBaseline(current, baseline, {});
  EXPECT_TRUE(verdict.ok())
      << (verdict.regressions.empty() ? "" : verdict.regressions.front());
}

TEST(BenchGateTest, LargeRelativeGrowthWithinTolerancePasses) {
  BenchReport baseline = SampleReport();
  BenchReport current = baseline;
  current.records[0].median_seconds = 0.012;  // +20% under 25% tolerance
  CheckResult verdict = CheckAgainstBaseline(current, baseline, {});
  EXPECT_TRUE(verdict.ok());
}

TEST(BenchGateTest, DeterministicCounterIncreaseFails) {
  BenchReport baseline = SampleReport();
  BenchReport current = baseline;
  current.records[0].page_misses = 11;  // any increase is algorithmic
  CheckResult verdict = CheckAgainstBaseline(current, baseline, {});
  ASSERT_FALSE(verdict.ok());
  EXPECT_NE(verdict.regressions[0].find("page_misses"), std::string::npos);
}

TEST(BenchGateTest, ExtraCounterIncreaseFails) {
  BenchReport baseline = SampleReport();
  BenchReport current = baseline;
  current.records[0].extra[0].second = 43;
  CheckResult verdict = CheckAgainstBaseline(current, baseline, {});
  ASSERT_FALSE(verdict.ok());
  EXPECT_NE(verdict.regressions[0].find("unique_results"),
            std::string::npos);
}

TEST(BenchGateTest, ExtraDecreaseFails) {
  // Fewer results is a wrong answer, not an improvement.
  BenchReport baseline = SampleReport();
  BenchReport current = baseline;
  current.records[0].extra[0].second = 0;
  CheckOptions options;
  options.strict_new_records = true;
  CheckResult verdict = CheckAgainstBaseline(current, baseline, options);
  ASSERT_FALSE(verdict.ok());
  EXPECT_NE(verdict.regressions[0].find("unique_results"),
            std::string::npos);
}

TEST(BenchGateTest, MissingExtraFails) {
  BenchReport baseline = SampleReport();
  BenchReport current = baseline;
  current.records[1].extra.clear();
  CheckOptions options;
  options.strict_new_records = true;
  CheckResult verdict = CheckAgainstBaseline(current, baseline, options);
  ASSERT_FALSE(verdict.ok());
  EXPECT_NE(verdict.regressions[0].find("DEEP"), std::string::npos);
  EXPECT_NE(verdict.regressions[0].find("unique_results"),
            std::string::npos);
}

TEST(BenchGateTest, ErrorExtraFails) {
  // What a failed query records: an "error" extra, no result extras, and
  // zero I/O and join pairs.
  BenchReport baseline = SampleReport();
  BenchReport current = baseline;
  QueryRecord& failed = current.records[0];
  failed.page_hits = failed.page_misses = failed.join_pairs = 0;
  failed.extra.clear();
  failed.Extra("error", 1);
  CheckOptions options;
  options.strict_new_records = true;
  CheckResult verdict = CheckAgainstBaseline(current, baseline, options);
  ASSERT_FALSE(verdict.ok());
  bool names_error = false;
  for (const std::string& line : verdict.regressions) {
    names_error |= line.find("error") != std::string::npos;
  }
  EXPECT_TRUE(names_error);
}

TEST(BenchGateTest, CounterDecreaseIsANoteNotARegression) {
  BenchReport baseline = SampleReport();
  BenchReport current = baseline;
  current.records[0].join_pairs = 400;
  CheckResult verdict = CheckAgainstBaseline(current, baseline, {});
  EXPECT_TRUE(verdict.ok());
  EXPECT_FALSE(verdict.notes.empty());
}

TEST(BenchGateTest, GateCountersOffDowngradesToNote) {
  BenchReport baseline = SampleReport();
  BenchReport current = baseline;
  current.records[0].page_misses = 99;
  CheckOptions options;
  options.gate_counters = false;
  CheckResult verdict = CheckAgainstBaseline(current, baseline, options);
  EXPECT_TRUE(verdict.ok());
  EXPECT_FALSE(verdict.notes.empty());
}

TEST(BenchGateTest, MissingRecordFails) {
  BenchReport baseline = SampleReport();
  BenchReport current = baseline;
  current.records.pop_back();
  CheckResult verdict = CheckAgainstBaseline(current, baseline, {});
  ASSERT_FALSE(verdict.ok());
  EXPECT_NE(verdict.regressions[0].find("DEEP"), std::string::npos);
}

TEST(BenchGateTest, NewRecordIsANote) {
  BenchReport baseline = SampleReport();
  BenchReport current = baseline;
  QueryRecord extra = current.records[0];
  extra.schema = "UNDR";
  current.records.push_back(extra);
  CheckResult verdict = CheckAgainstBaseline(current, baseline, {});
  EXPECT_TRUE(verdict.ok());
  EXPECT_FALSE(verdict.notes.empty());
}

TEST(BenchGateTest, ScaleMismatchFails) {
  BenchReport baseline = SampleReport();
  BenchReport current = baseline;
  current.scale = 1.0;
  CheckResult verdict = CheckAgainstBaseline(current, baseline, {});
  EXPECT_FALSE(verdict.ok());
}

TEST(BenchGateTest, BenchNameMismatchFails) {
  BenchReport baseline = SampleReport();
  BenchReport current = baseline;
  current.bench = "figures";
  CheckResult verdict = CheckAgainstBaseline(current, baseline, {});
  EXPECT_FALSE(verdict.ok());
}

}  // namespace
}  // namespace mctdb::bench
