#include "service/metrics.h"

#include <cmath>
#include <cstdio>

#include "common/ordered_mutex.h"
#include "obs/trace_export.h"

namespace mctsvc {

std::string PromLabelEscape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

namespace {

/// The one number format both renderers share.
std::string FormatValue(const MetricSample::Value& value) {
  char buf[64];
  if (const uint64_t* count = std::get_if<uint64_t>(&value)) {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(*count));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9f", std::get<double>(value));
  }
  return buf;
}

/// One row per ServiceMetrics counter or gauge, in /metrics order.
struct CounterRow {
  const char* name;
  const char* type;
  const char* help;
  std::atomic<uint64_t> ServiceMetrics::*value;
};

constexpr CounterRow kCounters[] = {
    {"mctsvc_requests_submitted_total", "counter",
     "Requests admitted into the service", &ServiceMetrics::submitted},
    {"mctsvc_requests_completed_total", "counter",
     "Requests finished (including deadline cancellations)",
     &ServiceMetrics::completed},
    {"mctsvc_requests_rejected_total", "counter",
     "Admission-queue overflow rejections", &ServiceMetrics::rejected},
    {"mctsvc_sheds_total", "counter",
     "Requests shed by the load-shedding admission controller",
     &ServiceMetrics::sheds},
    {"mctsvc_breaker_rejections_total", "counter",
     "Requests refused by an open circuit breaker",
     &ServiceMetrics::breaker_rejections},
    {"mctsvc_invalid_plans_total", "counter",
     "Plans rejected by the static verifier at admission",
     &ServiceMetrics::invalid_plans},
    {"mctsvc_deadline_exceeded_total", "counter",
     "Requests cancelled at dequeue after their deadline passed",
     &ServiceMetrics::deadline_exceeded},
    {"mctsvc_requests_failed_total", "counter",
     "Requests whose executor returned a non-OK status",
     &ServiceMetrics::failed},
    {"mctsvc_page_hits_total", "counter",
     "Buffer-pool hits attributed to completed requests",
     &ServiceMetrics::page_hits},
    {"mctsvc_page_misses_total", "counter",
     "Buffer-pool misses attributed to completed requests",
     &ServiceMetrics::page_misses},
    {"mctsvc_slow_queries_total", "counter",
     "Completed requests at or over the slow-query threshold",
     &ServiceMetrics::slow_queries},
    {"mctsvc_queries_pruned_total", "counter",
     "Statically-empty plans short-circuited to a zero-I/O result",
     &ServiceMetrics::queries_pruned},
    {"mctsvc_plans_simplified_total", "counter",
     "Completed plans carrying a QRY008/QRY009 simplification finding",
     &ServiceMetrics::plans_simplified},
    {"mctsvc_plan_cache_hits_total", "counter",
     "SubmitQuery admissions served from the plan cache",
     &ServiceMetrics::plan_cache_hits},
    {"mctsvc_plan_cache_misses_total", "counter",
     "SubmitQuery admissions planned fresh (no cached entry)",
     &ServiceMetrics::plan_cache_misses},
    {"mctsvc_plan_cache_invalidations_total", "counter",
     "Cached plans dropped because an update or checkpoint moved "
     "visibility",
     &ServiceMetrics::plan_cache_invalidations},
    {"mctsvc_index_seeks_total", "counter",
     "Posting scans that skipped pages via the interval index",
     &ServiceMetrics::index_seeks},
    {"mctsvc_updates_submitted_total", "counter",
     "Update ops admitted via SubmitUpdate",
     &ServiceMetrics::updates_submitted},
    {"mctsvc_updates_failed_total", "counter",
     "Update ops whose apply returned a non-OK status",
     &ServiceMetrics::updates_failed},
    {"mctsvc_wal_appends_total", "counter",
     "WAL records appended by completed updates",
     &ServiceMetrics::wal_appends},
    {"mctsvc_recovery_replayed_records", "gauge",
     "WAL redo records replayed at open across registered stores",
     &ServiceMetrics::recovery_replayed_records},
    {"mctsvc_queue_depth", "gauge", "Requests admitted but not yet finished",
     &ServiceMetrics::queue_depth},
};

struct HistogramRow {
  const char* name;
  const char* help;
  LatencyHistogram ServiceMetrics::*value;
};

constexpr HistogramRow kHistograms[] = {
    {"mctsvc_wal_fsync_seconds",
     "Group-commit fsync latency (recorded by each batch's leader)",
     &ServiceMetrics::wal_fsync_seconds},
    {"mctsvc_queue_wait_seconds",
     "Admission-to-dequeue wait per dequeued task",
     &ServiceMetrics::queue_wait_seconds},
    {"mctsvc_request_latency_seconds", "End-to-end request execution latency",
     &ServiceMetrics::latency},
};

}  // namespace

std::string RenderPrometheus(const std::vector<MetricFamily>& families) {
  std::string out;
  for (const MetricFamily& f : families) {
    out += "# HELP " + f.name + " " + f.help + "\n";
    out += "# TYPE " + f.name + " " + f.type + "\n";
    for (const MetricSample& s : f.samples) {
      out += f.name + s.suffix;
      for (size_t i = 0; i < s.labels.size(); ++i) {
        out += i == 0 ? "{" : ",";
        out += s.labels[i].first + "=\"" +
               PromLabelEscape(s.labels[i].second) + "\"";
      }
      if (!s.labels.empty()) out += '}';
      out += " " + FormatValue(s.value) + "\n";
    }
  }
  return out;
}

std::string RenderJson(const std::vector<MetricFamily>& families) {
  using mctdb::obs::JsonEscape;
  std::string out = "{\"families\":[";
  for (size_t fi = 0; fi < families.size(); ++fi) {
    const MetricFamily& f = families[fi];
    if (fi > 0) out += ',';
    out += "{\"name\":\"" + JsonEscape(f.name) + "\",\"type\":\"" +
           JsonEscape(f.type) + "\",\"help\":\"" + JsonEscape(f.help) +
           "\",\"samples\":[";
    for (size_t si = 0; si < f.samples.size(); ++si) {
      const MetricSample& s = f.samples[si];
      out += si == 0 ? "{" : ",{";
      if (!s.suffix.empty()) out += "\"suffix\":\"" + s.suffix + "\",";
      for (size_t i = 0; i < s.labels.size(); ++i) {
        out += i == 0 ? "\"labels\":{" : ",";
        out += "\"" + JsonEscape(s.labels[i].first) + "\":\"" +
               JsonEscape(s.labels[i].second) + "\"";
      }
      if (!s.labels.empty()) out += "},";
      out += "\"value\":" + FormatValue(s.value) + "}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

double LatencyHistogram::BucketUpperUs(size_t i) {
  return std::ldexp(1.0, static_cast<int>(i));
}

void LatencyHistogram::Record(double seconds) {
  if (seconds < 0) seconds = 0;
  double us = seconds * 1e6;
  size_t bucket = 0;
  // Strictly-greater: a sample exactly on a bucket's `le` upper bound
  // stays in that bucket, so the cumulative {le} exports are exact.
  while (bucket + 1 < kBuckets && us > BucketUpperUs(bucket)) ++bucket;
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  total_nanos_.fetch_add(static_cast<uint64_t>(seconds * 1e9),
                         std::memory_order_relaxed);
}

MetricFamily LatencyHistogram::ToFamily(std::string name,
                                        std::string help) const {
  MetricFamily f{std::move(name), "histogram", std::move(help), {}};
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    cumulative += bucket(i);
    if (i + 1 == kBuckets) break;  // the overflow bucket is +Inf below
    char le[32];
    std::snprintf(le, sizeof(le), "%g", BucketUpperUs(i) * 1e-6);
    f.Add({{"le", le}}, cumulative, "_bucket");
  }
  f.Add({{"le", "+Inf"}}, cumulative, "_bucket");
  f.Add({}, total_seconds(), "_sum");
  f.Add({}, count(), "_count");
  return f;
}

void LatencyHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  total_nanos_.store(0, std::memory_order_relaxed);
}

std::vector<MetricFamily> ServiceMetrics::Families() const {
  std::vector<MetricFamily> out;
  for (const CounterRow& row : kCounters) {
    out.push_back({row.name, row.type, row.help, {}});
    out.back().Add({}, (this->*row.value).load(std::memory_order_relaxed));
  }
  for (const HistogramRow& row : kHistograms) {
    out.push_back((this->*row.value).ToFamily(row.name, row.help));
  }
  // Per-rank lock contention. The summary's _count is contended
  // acquisitions and its _sum the seconds spent blocked on them.
  MetricFamily wait{"mctsvc_lock_wait_seconds", "summary",
                    "Time spent blocked on ranked OrderedMutex "
                    "acquisitions, per lock rank",
                    {}};
  MetricFamily acquisitions{"mctsvc_lock_acquisitions_total", "counter",
                            "Ranked OrderedMutex blocking acquisitions, "
                            "per lock rank",
                            {}};
  for (mctdb::LockRank rank : mctdb::kAllLockRanks) {
    const mctdb::LockWaitCounters& c = mctdb::LockWaitFor(rank);
    const MetricSample::Labels labels{{"rank", mctdb::ToString(rank)}};
    wait.Add(labels,
             double(c.wait_nanos.load(std::memory_order_relaxed)) * 1e-9,
             "_sum");
    wait.Add(labels, c.contended.load(std::memory_order_relaxed), "_count");
    acquisitions.Add(labels,
                     c.acquisitions.load(std::memory_order_relaxed));
  }
  out.push_back(std::move(wait));
  out.push_back(std::move(acquisitions));
  return out;
}

}  // namespace mctsvc
