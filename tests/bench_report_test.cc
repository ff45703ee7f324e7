#include "bench/report.h"

#include <gtest/gtest.h>

#include <string>

#include "bench/suite.h"

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

TEST(BenchReportTest, RenderTextPrintsOneGridPerValue) {
  BenchReport r;
  r.bench = "t";
  r.scale = 0.1;
  r.reps = 3;
  QueryRecord& en = r.Add("EN", "Q1");
  en.median_seconds = 20e-6;  // shows as 20.0 µs, not 0.0000 s
  en.page_hits = 3;
  en.join_pairs = 5;
  en.Extra("unique_results", 4);
  QueryRecord& deep = r.Add("DEEP", "Q1");
  deep.median_seconds = 0.0015;
  deep.page_hits = 7;
  deep.join_pairs = 9;
  // page_misses is 0 everywhere: no grid. DEEP has no unique_results:
  // a blank cell, and a column with no value is left out.
  EXPECT_EQ(RenderText(r),
            "t: scale 0.1, reps 3, 2 records\n"
            "\n"
            "median_us    EN    DEEP\n"
            "Q1         20.0  1500.0\n"
            "\n"
            "page_hits  EN  DEEP\n"
            "Q1          3     7\n"
            "\n"
            "join_pairs  EN  DEEP\n"
            "Q1           5     9\n"
            "\n"
            "unique_results  EN\n"
            "Q1               4\n");
  r.problems.push_back("Q2 on EN: no plan");
  EXPECT_NE(RenderText(r).find("problem: Q2 on EN: no plan\n"),
            std::string::npos);
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
  // A record whose result extras gave way to a failure marker (as
  // `figures` records `plan_error`): no result extras, zero I/O and join
  // pairs.
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

TEST(BenchGateTest, NonIntegerExtraMatchesItsWrittenBaseline) {
  // A geometric mean has no short decimal form; the report writes it with
  // 9 significant digits, and the gate must accept that written copy.
  BenchReport current = SampleReport();
  current.records[0].Extra("gmean_structural_joins", 1.0 + 2.0 / 3.0);
  auto baseline = ParseBenchReport(current.ToJson());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  CheckResult verdict = CheckAgainstBaseline(current, *baseline, {});
  EXPECT_TRUE(verdict.ok()) << verdict.regressions.front();

  // A change the written form shows still fails, and the line prints both
  // values as the report writes them.
  current.records[0].extra.back().second += 1e-7;
  verdict = CheckAgainstBaseline(current, *baseline, {});
  ASSERT_EQ(verdict.regressions.size(), 1u);
  EXPECT_NE(verdict.regressions[0].find(
                "gmean_structural_joins changed 1.66666667 -> 1.66666677"),
            std::string::npos)
      << verdict.regressions[0];
}

TEST(BenchGateTest, CollectionReportPassesAgainstItsWrittenCopy) {
  const BenchmarkDef* collection = FindBenchmark("collection");
  ASSERT_NE(collection, nullptr);
  const BenchReport current = collection->fn({0.1, 1});
  ASSERT_EQ(current.records.size(), 72u);
  auto baseline = ParseBenchReport(current.ToJson());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  CheckOptions options;
  options.strict_new_records = true;
  CheckResult verdict = CheckAgainstBaseline(current, *baseline, options);
  EXPECT_TRUE(verdict.ok()) << verdict.regressions.size()
                            << " regressions, first: "
                            << verdict.regressions.front();
}

TEST(BenchGateTest, ProblemFailsAndNamesTheCell) {
  BenchReport baseline = SampleReport();
  EXPECT_EQ(baseline.ToJson().find("problems"), std::string::npos)
      << "a healthy report writes no problems key";
  BenchReport current = baseline;
  current.problems.push_back("equivalence violation: Q1 on EN");
  auto parsed = ParseBenchReport(current.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->problems, current.problems);
  CheckResult verdict = CheckAgainstBaseline(*parsed, baseline, {});
  ASSERT_EQ(verdict.regressions.size(), 1u);
  EXPECT_NE(verdict.regressions[0].find("Q1 on EN"), std::string::npos);
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
