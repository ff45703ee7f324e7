// ServiceMetrics: lock-free counters and latency histograms for the mctsvc
// query service, plus the one family model that both exports render
// (Prometheus text for /metrics, JSON for /metrics.json).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace mctsvc {

/// Escapes a Prometheus label VALUE for use inside `{name="..."}`:
/// backslash, double quote, and newline get backslash-escaped per the
/// text exposition format (store names are caller-chosen strings).
std::string PromLabelEscape(std::string_view value);

/// One sample of a MetricFamily. `suffix` extends the family name for
/// histogram and summary series ("_bucket", "_sum", "_count"); counters
/// and gauges leave it empty. Counts are exact integers; sums of seconds
/// are reals.
struct MetricSample {
  using Labels = std::vector<std::pair<std::string, std::string>>;
  using Value = std::variant<uint64_t, double>;
  std::string suffix;
  Labels labels;
  Value value;
};

/// One metric family: name, Prometheus type ("counter", "gauge",
/// "histogram" or "summary"), help text, and its samples in export order.
/// A family without samples still exports its header.
struct MetricFamily {
  std::string name;
  std::string type;
  std::string help;
  std::vector<MetricSample> samples;

  void Add(MetricSample::Labels labels, MetricSample::Value value,
           std::string suffix = {}) {
    samples.push_back({std::move(suffix), std::move(labels), value});
  }
};

/// Prometheus text exposition: `# HELP` and `# TYPE` per family, then one
/// `<name><suffix>{labels} <value>` line per sample. Label values are
/// escaped with PromLabelEscape; integers print exactly, reals as %.9f.
std::string RenderPrometheus(const std::vector<MetricFamily>& families);
/// The same families and samples as one JSON document:
/// {"families":[{"name","type","help","samples":[{"suffix"?,"labels"?,
/// "value"}]}]}, values printed exactly as RenderPrometheus prints them.
std::string RenderJson(const std::vector<MetricFamily>& families);

/// Power-of-two-microsecond latency buckets: bucket i counts requests with
/// latency in (2^(i-1), 2^i] microseconds (bucket 0 is <= 1 us, the last
/// bucket is the overflow). A sample exactly on a bucket's upper bound
/// belongs to THAT bucket, matching the cumulative `le` (less-or-equal)
/// semantics of the exported family. Recording is a single relaxed atomic
/// add, so worker threads never serialize on the histogram.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 24;  // up to ~8.4 s, then overflow

  void Record(double seconds);

  uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double total_seconds() const {
    return double(total_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Bucket i's `le` upper bound in microseconds (2^i).
  static double BucketUpperUs(size_t i);

  /// The histogram as one "histogram" family: CUMULATIVE `_bucket`
  /// samples labelled `le` in SECONDS (each counts every sample <= le),
  /// ending with le="+Inf", then `_sum` and `_count`.
  MetricFamily ToFamily(std::string name, std::string help) const;
  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> total_nanos_{0};
};

struct ServiceMetrics {
  std::atomic<uint64_t> submitted{0};
  std::atomic<uint64_t> completed{0};
  /// Admission-queue overflow rejections (Status::ResourceExhausted).
  std::atomic<uint64_t> rejected{0};
  /// Plans rejected by the static verifier at admission
  /// (Status::InvalidArgument; never counted as submitted).
  std::atomic<uint64_t> invalid_plans{0};
  /// Requests shed by the load-shedding admission controller
  /// (Status::Unavailable; distinct from hard-limit `rejected`).
  std::atomic<uint64_t> sheds{0};
  /// Requests refused because the store's circuit breaker was open
  /// (Status::Unavailable).
  std::atomic<uint64_t> breaker_rejections{0};
  /// Requests cancelled at dequeue because their deadline had passed.
  std::atomic<uint64_t> deadline_exceeded{0};
  /// Requests whose executor returned a non-OK status.
  std::atomic<uint64_t> failed{0};
  /// Requests admitted but not yet finished (queued or running).
  std::atomic<uint64_t> queue_depth{0};
  /// Per-query-attributed page I/O summed over completed requests (exact:
  /// charged at fetch time by the fetching query's ExecStats, not diffed
  /// from pool-global counters).
  std::atomic<uint64_t> page_hits{0};
  std::atomic<uint64_t> page_misses{0};
  /// Completed requests whose latency reached the slow-query threshold.
  std::atomic<uint64_t> slow_queries{0};
  /// Completed requests whose plan the static analyzer proved empty: the
  /// executor short-circuited them to an empty result with zero page
  /// fetches (analysis::AnalyzeQuery, DESIGN.md §14).
  std::atomic<uint64_t> queries_pruned{0};
  /// Completed requests whose plan carried a simplification finding
  /// (QRY008 redundant predicate / QRY009 redundant distinct).
  std::atomic<uint64_t> plans_simplified{0};
  /// Plan cache (service/plan_cache.h): SubmitQuery admissions served from
  /// a cached plan (verification and planning both skipped).
  std::atomic<uint64_t> plan_cache_hits{0};
  /// SubmitQuery admissions that planned fresh (no entry under the key).
  std::atomic<uint64_t> plan_cache_misses{0};
  /// Cached plans dropped at lookup because visibility moved (an update
  /// committed or a checkpoint bumped the cache generation).
  std::atomic<uint64_t> plan_cache_invalidations{0};
  /// Index-assisted posting seeks attributed to completed requests: scans
  /// that skipped at least one page via the per-page interval summaries.
  std::atomic<uint64_t> index_seeks{0};
  LatencyHistogram latency;
  /// Admission-to-dequeue wait, recorded for every dequeued task (queries
  /// and updates; deadline-cancelled tasks included — their wait is exactly
  /// the number that explains the cancellation).
  LatencyHistogram queue_wait_seconds;

  // Write path (WAL-backed durable stores).
  /// Update ops admitted via SubmitUpdate.
  std::atomic<uint64_t> updates_submitted{0};
  /// Update ops whose apply returned a non-OK status.
  std::atomic<uint64_t> updates_failed{0};
  /// WAL records appended by completed updates.
  std::atomic<uint64_t> wal_appends{0};
  /// WAL redo records replayed by recovery across every durable store
  /// registered with this service (stamped at AddDurableStore).
  std::atomic<uint64_t> recovery_replayed_records{0};
  /// Group-commit fsync latency, recorded by the op that led each sync
  /// (followers piggyback on the leader's fsync and record nothing).
  LatencyHistogram wal_fsync_seconds;

  /// Every counter, gauge and histogram above, then per-rank lock
  /// contention, as `mctsvc_`-prefixed families in /metrics order (no
  /// per-store series; QueryService::Families adds those).
  std::vector<MetricFamily> Families() const;
};

}  // namespace mctsvc
