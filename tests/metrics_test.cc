#include "service/metrics.h"

#include <gtest/gtest.h>

#include <string>

#include "common/json.h"

namespace mctsvc {
namespace {

/// The value of `family`'s single sample in a RenderJson document.
double OnlyValue(const std::string& json, const std::string& family) {
  auto doc = mctdb::json::Parse(json);
  if (!doc.ok() || doc->Find("families") == nullptr) {
    ADD_FAILURE() << "not a RenderJson document: " << json;
    return -1;
  }
  for (const mctdb::json::Value& f : doc->Find("families")->array()) {
    if (f.StringOr("name", "") != family) continue;
    EXPECT_EQ(f.Find("samples")->array().size(), 1u) << family;
    return f.Find("samples")->array().at(0).NumberOr("value", -1);
  }
  ADD_FAILURE() << family << " missing from " << json;
  return -1;
}

TEST(LatencyHistogramTest, SampleOnBucketBoundaryStaysInThatBucket) {
  // `le` means less-OR-EQUAL: a sample of exactly 1 us belongs to the
  // le=1 bucket, not the next one (the seed put it one bucket too high).
  LatencyHistogram h;
  h.Record(1e-6);  // exactly 1 us == bucket 0's upper bound
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 0u);

  h.Record(2e-6);  // exactly 2 us == bucket 1's upper bound
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 0u);

  h.Record(2.0000001e-6);  // just past the boundary moves up
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.count(), 3u);
}

TEST(LatencyHistogramTest, SubMicrosecondAndZeroLandInBucketZero) {
  LatencyHistogram h;
  h.Record(0.0);
  h.Record(0.5e-6);
  EXPECT_EQ(h.bucket(0), 2u);
}

TEST(LatencyHistogramTest, OverflowSamplesLandInLastBucket) {
  LatencyHistogram h;
  // The last bucket's lower neighbor tops out at 2^22 us (~4.2 s); both a
  // boundary sample and something absurdly slow must stay in range.
  double last_le_us = LatencyHistogram::BucketUpperUs(
      LatencyHistogram::kBuckets - 2);
  h.Record(last_le_us * 1e-6);  // exactly on the second-to-last le
  EXPECT_EQ(h.bucket(LatencyHistogram::kBuckets - 2), 1u);
  h.Record(3600.0);  // one hour
  EXPECT_EQ(h.bucket(LatencyHistogram::kBuckets - 1), 1u);
  EXPECT_EQ(h.count(), 2u);
}

TEST(LatencyHistogramTest, JsonBucketsAreCumulative) {
  LatencyHistogram h;
  h.Record(1e-6);   // le=1
  h.Record(1e-6);   // le=1
  h.Record(4e-6);   // le=4
  std::string json = RenderJson({h.ToFamily("test_latency_seconds", "t")});
  // Cumulative `le` semantics (le in seconds): the le=4us entry counts all
  // three samples, and the empty le=2us bucket repeats the running total.
  for (const char* sample :
       {"{\"suffix\":\"_bucket\",\"labels\":{\"le\":\"1e-06\"},\"value\":2}",
        "{\"suffix\":\"_bucket\",\"labels\":{\"le\":\"2e-06\"},\"value\":2}",
        "{\"suffix\":\"_bucket\",\"labels\":{\"le\":\"4e-06\"},\"value\":3}",
        "{\"suffix\":\"_bucket\",\"labels\":{\"le\":\"+Inf\"},\"value\":3}",
        "{\"suffix\":\"_count\",\"value\":3}"}) {
    EXPECT_NE(json.find(sample), std::string::npos) << sample << " in " << json;
  }
}

TEST(LatencyHistogramTest, PrometheusExpositionIsCumulativeWithInf) {
  LatencyHistogram h;
  h.Record(1e-6);
  h.Record(5000.0);  // overflow bucket
  std::string text = RenderPrometheus(
      {h.ToFamily("test_latency_seconds", "Request latency histogram")});
  EXPECT_NE(text.find("# TYPE test_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("test_latency_seconds_bucket{le=\"1e-06\"} 1"),
            std::string::npos) << text;
  EXPECT_NE(text.find("test_latency_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos) << text;
  EXPECT_NE(text.find("test_latency_seconds_count 2"), std::string::npos);
  EXPECT_NE(text.find("test_latency_seconds_sum"), std::string::npos);
}

TEST(ServiceMetricsTest, ToJsonIncludesAttributionCounters) {
  ServiceMetrics m;
  m.page_hits.store(7);
  m.page_misses.store(3);
  m.slow_queries.store(1);
  std::string json = RenderJson(m.Families());
  EXPECT_EQ(OnlyValue(json, "mctsvc_page_hits_total"), 7);
  EXPECT_EQ(OnlyValue(json, "mctsvc_page_misses_total"), 3);
  EXPECT_EQ(OnlyValue(json, "mctsvc_slow_queries_total"), 1);
}

TEST(ServiceMetricsTest, RenderPrometheusEmitsCounterSeries) {
  ServiceMetrics m;
  m.submitted.store(5);
  m.page_misses.store(9);
  std::string text = RenderPrometheus(m.Families());
  EXPECT_NE(text.find("mctsvc_requests_submitted_total 5"),
            std::string::npos);
  EXPECT_NE(text.find("mctsvc_page_misses_total 9"), std::string::npos);
  EXPECT_NE(text.find("mctsvc_queue_depth 0"), std::string::npos);
  EXPECT_NE(text.find("mctsvc_request_latency_seconds_count 0"),
            std::string::npos);
}

}  // namespace
}  // namespace mctsvc
