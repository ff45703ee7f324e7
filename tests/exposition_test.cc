// Prometheus text-exposition conformance checks for the mctsvc exports:
// every sample is preceded by its family's # HELP and # TYPE lines,
// counters are monotonic across scrapes, histogram `le` buckets are
// cumulative and end with +Inf, and label values are escaped. The whole
// service export is checked too, and /metrics.json must carry exactly the
// samples of /metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/ordered_mutex.h"
#include "design/designer.h"
#include "instance/materialize.h"
#include "service/metrics.h"
#include "service/query_service.h"
#include "wal/durable_store.h"
#include "workload/workload.h"

namespace mctsvc {
namespace {

struct Sample {
  std::string name;    // metric name incl. _bucket/_sum/_count suffix
  std::string labels;  // raw label block without braces, may be empty
  double value = 0.0;
};

struct Exposition {
  std::map<std::string, std::string> types;  // family -> counter|gauge|...
  std::map<std::string, bool> help_seen;
  std::vector<Sample> samples;
  std::vector<std::string> errors;
};

/// Minimal exposition-format reader that records ordering violations: a
/// sample whose family has no preceding # TYPE (or # HELP) is an error.
Exposition ParseExposition(const std::string& text) {
  Exposition out;
  std::istringstream in(text);
  std::string line;
  auto family_of = [&](const std::string& name) -> std::string {
    // Histograms own _bucket/_sum/_count samples; summaries own
    // _sum/_count (mctsvc_lock_wait_seconds is one).
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      size_t len = std::string(suffix).size();
      if (name.size() > len &&
          name.compare(name.size() - len, len, suffix) == 0) {
        std::string base = name.substr(0, name.size() - len);
        auto it = out.types.find(base);
        if (it != out.types.end() &&
            (it->second == "histogram" ||
             (it->second == "summary" &&
              std::string(suffix) != "_bucket"))) {
          return base;
        }
      }
    }
    return name;
  };
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0) {
      std::string rest = line.substr(7);
      out.help_seen[rest.substr(0, rest.find(' '))] = true;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string family, type;
      fields >> family >> type;
      out.types[family] = type;
      continue;
    }
    if (line[0] == '#') {
      out.errors.push_back("unexpected comment: " + line);
      continue;
    }
    size_t brace = line.find('{');
    size_t space = line.rfind(' ');
    if (space == std::string::npos) {
      out.errors.push_back("no value: " + line);
      continue;
    }
    Sample s;
    if (brace != std::string::npos && brace < space) {
      size_t close = line.rfind('}', space);
      if (close == std::string::npos) {
        out.errors.push_back("unterminated labels: " + line);
        continue;
      }
      s.name = line.substr(0, brace);
      s.labels = line.substr(brace + 1, close - brace - 1);
    } else {
      s.name = line.substr(0, space);
    }
    s.value = std::strtod(line.c_str() + space + 1, nullptr);
    std::string family = family_of(s.name);
    if (out.types.find(family) == out.types.end()) {
      out.errors.push_back("sample before # TYPE: " + line);
    }
    if (!out.help_seen[family]) {
      out.errors.push_back("sample before # HELP: " + line);
    }
    out.samples.push_back(std::move(s));
  }
  return out;
}

double SampleValue(const Exposition& e, const std::string& name,
                   const std::string& labels = "") {
  for (const Sample& s : e.samples) {
    if (s.name == name && s.labels == labels) return s.value;
  }
  ADD_FAILURE() << "sample not found: " << name << "{" << labels << "}";
  return -1;
}

TEST(ExpositionTest, EverySampleHasHelpAndTypeBeforeIt) {
  ServiceMetrics m;
  m.submitted.store(3);
  m.latency.Record(1e-5);
  Exposition e = ParseExposition(RenderPrometheus(m.Families()));
  EXPECT_TRUE(e.errors.empty()) << e.errors.front();
  EXPECT_FALSE(e.samples.empty());
}

TEST(ExpositionTest, CounterFamiliesAreTypedCounter) {
  ServiceMetrics m;
  Exposition e = ParseExposition(RenderPrometheus(m.Families()));
  for (const auto& [family, type] : e.types) {
    if (family.size() > 6 &&
        family.compare(family.size() - 6, 6, "_total") == 0) {
      EXPECT_EQ(type, "counter") << family;
    }
  }
  EXPECT_EQ(e.types.at("mctsvc_queue_depth"), "gauge");
  EXPECT_EQ(e.types.at("mctsvc_request_latency_seconds"), "histogram");
}

TEST(ExpositionTest, CountersAreMonotonicAcrossScrapes) {
  ServiceMetrics m;
  m.submitted.store(5);
  m.completed.store(4);
  m.page_misses.store(7);
  Exposition before = ParseExposition(RenderPrometheus(m.Families()));
  m.submitted.fetch_add(2);
  m.completed.fetch_add(3);
  m.page_misses.fetch_add(1);
  m.latency.Record(0.5);
  Exposition after = ParseExposition(RenderPrometheus(m.Families()));
  for (const Sample& s : before.samples) {
    if (s.name.size() > 6 &&
        s.name.compare(s.name.size() - 6, 6, "_total") == 0) {
      EXPECT_GE(SampleValue(after, s.name, s.labels), s.value) << s.name;
    }
  }
}

TEST(ExpositionTest, HistogramBucketsAreCumulativeAndEndWithInf) {
  ServiceMetrics m;
  m.latency.Record(1e-6);
  m.latency.Record(3e-6);
  m.latency.Record(100.0);  // overflow bucket
  Exposition e = ParseExposition(RenderPrometheus(m.Families()));
  std::vector<std::pair<std::string, double>> buckets;
  for (const Sample& s : e.samples) {
    if (s.name == "mctsvc_request_latency_seconds_bucket") {
      buckets.emplace_back(s.labels, s.value);
    }
  }
  ASSERT_FALSE(buckets.empty());
  double prev = 0;
  for (const auto& [labels, value] : buckets) {
    EXPECT_GE(value, prev) << "non-cumulative bucket " << labels;
    prev = value;
  }
  EXPECT_EQ(buckets.back().first, "le=\"+Inf\"");
  EXPECT_DOUBLE_EQ(buckets.back().second, 3.0);
  EXPECT_DOUBLE_EQ(
      SampleValue(e, "mctsvc_request_latency_seconds_count"), 3.0);
}

TEST(ExpositionTest, ObservabilityHistogramsAreConformant) {
  ServiceMetrics m;
  m.wal_fsync_seconds.Record(2e-3);
  m.queue_wait_seconds.Record(1e-4);
  m.queue_wait_seconds.Record(5.0);  // overflow bucket
  Exposition e = ParseExposition(RenderPrometheus(m.Families()));
  EXPECT_TRUE(e.errors.empty()) << e.errors.front();
  for (const char* family :
       {"mctsvc_wal_fsync_seconds", "mctsvc_queue_wait_seconds"}) {
    EXPECT_EQ(e.types.at(family), "histogram") << family;
    EXPECT_TRUE(e.help_seen[family]) << family;
  }
  // Cumulative buckets ending in +Inf for the queue-wait family.
  std::vector<std::pair<std::string, double>> buckets;
  for (const Sample& s : e.samples) {
    if (s.name == "mctsvc_queue_wait_seconds_bucket") {
      buckets.emplace_back(s.labels, s.value);
    }
  }
  ASSERT_FALSE(buckets.empty());
  double prev = 0;
  for (const auto& [labels, value] : buckets) {
    EXPECT_GE(value, prev) << "non-cumulative bucket " << labels;
    prev = value;
  }
  EXPECT_EQ(buckets.back().first, "le=\"+Inf\"");
  EXPECT_DOUBLE_EQ(buckets.back().second, 2.0);
}

TEST(ExpositionTest, LockWaitFamiliesAreConformant) {
  ServiceMetrics m;
  Exposition e = ParseExposition(RenderPrometheus(m.Families()));
  EXPECT_TRUE(e.errors.empty()) << e.errors.front();
  EXPECT_EQ(e.types.at("mctsvc_lock_wait_seconds"), "summary");
  EXPECT_EQ(e.types.at("mctsvc_lock_acquisitions_total"), "counter");
  EXPECT_TRUE(e.help_seen["mctsvc_lock_wait_seconds"]);
  EXPECT_TRUE(e.help_seen["mctsvc_lock_acquisitions_total"]);
  // One (sum, count) pair and one acquisitions sample per lock rank, each
  // labeled with the rank name.
  size_t sums = 0, counts = 0, acquisitions = 0;
  for (const Sample& s : e.samples) {
    if (s.name == "mctsvc_lock_wait_seconds_sum") {
      ++sums;
      EXPECT_EQ(s.labels.rfind("rank=\"", 0), 0u) << s.labels;
    }
    if (s.name == "mctsvc_lock_wait_seconds_count") ++counts;
    if (s.name == "mctsvc_lock_acquisitions_total") ++acquisitions;
  }
  EXPECT_EQ(sums, mctdb::kNumLockRanks);
  EXPECT_EQ(counts, mctdb::kNumLockRanks);
  EXPECT_EQ(acquisitions, mctdb::kNumLockRanks);
}

TEST(ExpositionTest, PromLabelEscapeHandlesSpecials) {
  EXPECT_EQ(PromLabelEscape("plain"), "plain");
  EXPECT_EQ(PromLabelEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(PromLabelEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(PromLabelEscape("a\nb"), "a\\nb");
  EXPECT_EQ(PromLabelEscape("\\\"\n"), "\\\\\\\"\\n");
}

/// A store name holding every character PromLabelEscape rewrites.
constexpr char kWeirdStore[] = "we\"ird\\store\nname";

/// A service as `mctc serve --updates` runs it, minus the background
/// threads: breakers on (the default), a durable store with one manual
/// checkpoint behind it, and a read-only store, both queried.
class ServiceExpositionTest : public testing::Test {
 protected:
  void SetUp() override {
    workload_ = std::make_unique<mctdb::workload::Workload>(
        mctdb::workload::TpcwWorkload(0.05));
    graph_ = std::make_unique<mctdb::er::ErGraph>(workload_->diagram);
    mctdb::design::Designer designer(*graph_);
    durable_schema_ = std::make_unique<mctdb::mct::MctSchema>(
        designer.Design(mctdb::design::Strategy::kEn));
    read_only_schema_ = std::make_unique<mctdb::mct::MctSchema>(
        designer.Design(mctdb::design::Strategy::kDeep));
    mctdb::instance::LogicalInstance logical =
        mctdb::instance::GenerateInstance(*graph_, workload_->gen);
    auto durable = mctdb::wal::DurableStore::Ephemeral(
        mctdb::instance::Materialize(logical, *durable_schema_));
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    durable_ = std::move(*durable);
    read_only_ = mctdb::instance::Materialize(logical, *read_only_schema_);

    service_ = std::make_unique<QueryService>();
    ASSERT_TRUE(service_->AddDurableStore(kWeirdStore, durable_.get()).ok());
    ASSERT_TRUE(service_->AddStore("ro", read_only_.get()).ok());
    for (const char* store : {kWeirdStore, "ro"}) {
      for (const char* query : {"Q1", "Q3"}) {
        auto r = service_->ExecuteQuery(store, *workload_->Find(query));
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      }
    }
    ASSERT_TRUE(service_->Checkpoint(kWeirdStore).ok());
    service_->Drain();
  }

  std::unique_ptr<mctdb::workload::Workload> workload_;
  std::unique_ptr<mctdb::er::ErGraph> graph_;
  std::unique_ptr<mctdb::mct::MctSchema> durable_schema_;
  std::unique_ptr<mctdb::mct::MctSchema> read_only_schema_;
  std::unique_ptr<mctdb::wal::DurableStore> durable_;
  std::unique_ptr<mctdb::storage::MctStore> read_only_;
  std::unique_ptr<QueryService> service_;
};

TEST_F(ServiceExpositionTest, WholeExportIsConformant) {
  const std::string text = service_->MetricsText();
  Exposition e = ParseExposition(text);
  EXPECT_TRUE(e.errors.empty()) << e.errors.front() << "\n" << text;
  // Each family's header appears exactly once, so its samples are
  // contiguous.
  std::map<std::string, int> headers;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("# TYPE ", 0) == 0) ++headers[line];
  }
  for (const auto& [line, n] : headers) EXPECT_EQ(n, 1) << line;
  // The store name is label-escaped in every per-store family.
  const std::string escaped = "store=\"we\\\"ird\\\\store\\nname\"";
  for (const char* series :
       {"mctsvc_pool_hits_total", "mctsvc_pool_misses_total",
        "mctsvc_pool_resident_pages", "mctsvc_pool_checksum_failures_total",
        "mctsvc_pool_retries_total", "mctsvc_pool_quarantined_total",
        "mctsvc_breaker_state", "mctsvc_write_stalls_total",
        "mctsvc_gap_rebalances_total", "mctsvc_store_readonly",
        "mctsvc_pool_capacity_pages"}) {
    EXPECT_NE(text.find(std::string(series) + "{" + escaped + "} "),
              std::string::npos)
        << series << " missing for the escaped store in:\n" << text;
  }
  EXPECT_NE(text.find("mctsvc_checkpoints_triggered_total{" + escaped +
                      ",reason=\"manual\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("mctsvc_pool_shard_hits_total{" + escaped +
                      ",shard=\"0\"} "),
            std::string::npos)
      << text;
  // The read-only store has no maintenance series; both stores have a
  // closed breaker.
  EXPECT_EQ(text.find("mctsvc_store_readonly{store=\"ro\"}"),
            std::string::npos);
  EXPECT_NE(text.find("mctsvc_breaker_state{store=\"ro\"} 0\n"),
            std::string::npos);
  for (const char* family :
       {"mctsvc_pool_capacity_pages", "mctsvc_pool_shard_resident_pages",
        "mctsvc_store_readonly", "mctsvc_breaker_state"}) {
    EXPECT_EQ(e.types.at(family), "gauge") << family;
  }
}

/// One exported sample, from either format.
struct FlatSample {
  std::string family;
  std::string suffix;
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0.0;
  bool operator==(const FlatSample&) const = default;
};

std::ostream& operator<<(std::ostream& os, const FlatSample& s) {
  os << s.family << s.suffix << "{";
  for (const auto& [k, v] : s.labels) os << k << "=" << v << ";";
  return os << "} " << s.value;
}

/// Undoes PromLabelEscape on a `k="v",...` label block.
std::vector<std::pair<std::string, std::string>> ParseLabels(
    const std::string& block) {
  std::vector<std::pair<std::string, std::string>> out;
  size_t i = 0;
  while (i < block.size()) {
    const size_t eq = block.find("=\"", i);
    if (eq == std::string::npos) {
      ADD_FAILURE() << "bad label block: " << block;
      break;
    }
    std::string value;
    size_t j = eq + 2;
    for (; j < block.size() && block[j] != '"'; ++j) {
      if (block[j] == '\\' && j + 1 < block.size()) {
        ++j;
        value += block[j] == 'n' ? '\n' : block[j];
      } else {
        value += block[j];
      }
    }
    out.emplace_back(block.substr(i, eq - i), value);
    i = j + 2;  // past the closing quote and the comma
  }
  return out;
}

TEST_F(ServiceExpositionTest, JsonHoldsExactlyThePrometheusSamples) {
  const std::string text = service_->MetricsText();
  const std::string json = service_->MetricsJson();

  // Families as (name, type, help) and samples, in /metrics order.
  std::vector<std::string> text_families, json_families;
  std::vector<FlatSample> text_samples, json_samples;
  std::map<std::string, std::string> help;
  std::string family;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("# HELP ", 0) == 0) {
      const std::string rest = line.substr(7);
      help[rest.substr(0, rest.find(' '))] = rest.substr(rest.find(' ') + 1);
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string type;
      fields >> family >> type;
      text_families.push_back(family + " " + type + " " + help[family]);
      continue;
    }
    const size_t space = line.rfind(' ');
    const size_t brace = line.find('{');
    const std::string name = line.substr(0, std::min(brace, space));
    ASSERT_EQ(name.rfind(family, 0), 0u) << line;
    FlatSample s;
    s.family = family;
    s.suffix = name.substr(family.size());
    if (brace < space) {
      s.labels = ParseLabels(line.substr(brace + 1, space - brace - 2));
    }
    s.value = std::strtod(line.c_str() + space + 1, nullptr);
    text_samples.push_back(std::move(s));
  }

  auto doc = mctdb::json::Parse(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << "\n" << json;
  ASSERT_NE(doc->Find("families"), nullptr) << json;
  for (const mctdb::json::Value& f : doc->Find("families")->array()) {
    json_families.push_back(f.StringOr("name", "") + " " +
                            f.StringOr("type", "") + " " +
                            f.StringOr("help", ""));
    for (const mctdb::json::Value& v : f.Find("samples")->array()) {
      FlatSample s;
      s.family = f.StringOr("name", "");
      s.suffix = v.StringOr("suffix", "");
      if (const mctdb::json::Value* labels = v.Find("labels")) {
        for (const auto& [key, value] : labels->members()) {
          s.labels.emplace_back(key, value.str());
        }
      }
      s.value = v.NumberOr("value", -1);
      json_samples.push_back(std::move(s));
    }
  }

  EXPECT_EQ(json_families, text_families);
  ASSERT_EQ(json_samples.size(), text_samples.size());
  for (size_t i = 0; i < text_samples.size(); ++i) {
    FlatSample expected = text_samples[i];
    // Each scrape takes ranked locks, so the acquisition counters the
    // JSON scrape reads have grown by that scrape's own acquisitions.
    if (expected.family == "mctsvc_lock_acquisitions_total") {
      EXPECT_GE(json_samples[i].value, expected.value) << expected;
      expected.value = json_samples[i].value;
    }
    EXPECT_EQ(json_samples[i], expected) << "sample " << i;
  }
  // The store name survives both encodings.
  bool weird = false;
  for (const FlatSample& s : json_samples) {
    for (const auto& [key, value] : s.labels) {
      weird |= key == "store" && value == kWeirdStore;
    }
  }
  EXPECT_TRUE(weird);
}

}  // namespace
}  // namespace mctsvc
