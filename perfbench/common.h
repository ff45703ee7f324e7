// Shared pieces of the perfbench workloads: arguments, the metric report
// with failure accounting, and the TPC-W store-building pipeline that every
// workload runs (generate -> design x7 -> materialize x7 -> save x7 ->
// load x7, or DurableStore::Open x7 for the durable workload).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "design/designer.h"
#include "er/er_graph.h"
#include "instance/logical.h"
#include "query/executor.h"
#include "query/query_spec.h"
#include "storage/store.h"
#include "wal/durable_store.h"
#include "workload/workload.h"

namespace perfbench {

struct Args {
  std::string workload;
  /// Seeds every client's choice of store and query (the traffic mix).
  uint64_t seed = 4242;
  /// Overrides TpcwWorkload's instance seed. It stays fixed across the
  /// benchmark's runs: the instance draws 30 country names from an
  /// 18-word vocabulary, so another instance answers the figure queries
  /// with results of other sizes, and latencies with it.
  uint64_t instance_seed = 4242;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for temporary store files and the span dump.
  std::string out_dir = ".bench_build/perfbench-out";
};

/// Metrics plus failure accounting for one run. Every operation the
/// benchmark sends is attempted; every non-OK Status is a failure, counted
/// by status code. A correctness mismatch is not a failure but a broken
/// result: the run reports no numbers.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Re-reports metric `name` as `prefix` + name (same value and unit).
  void Alias(const std::string& prefix, const std::string& name);
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(const mctdb::Status& status);
  /// Merges the attempt/failure counts of a per-thread report.
  void Merge(const Report& other);
  void Mismatch(const std::string& what);

  bool correct() const { return mismatches_ == 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// Failure counts, failure fraction, and the per-code rows as metrics.
  void SetFailureMetrics();

  /// Human-readable metric lines followed by the machine-readable result
  /// line (the last line of stdout).
  void Print(const Args& args) const;

 private:
  struct Value {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, uint64_t> failed_by_code_;
  uint64_t mismatches_ = 0;
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);
/// Peak resident set size of this process in MB.
double PeakRssMb();

/// The TPC-W workload at a scale, with the seed applied, and its nine read
/// figure queries.
struct Tpcw {
  Tpcw(double scale, uint64_t seed);
  mctdb::workload::Workload w;
  std::unique_ptr<mctdb::er::ErGraph> graph;
  std::vector<const mctdb::query::AssociationQuery*> reads;
};

/// Where a full build leaves its stores: read-only stores loaded from the
/// images, or durable stores opened on the images (image + empty WAL).
enum class Open { kLoad, kDurable };

/// Per-layer times of one full build (seconds; sums over the seven schemas
/// unless named max).
struct BuildTimes {
  double generate = 0, design = 0, materialize = 0, materialize_max = 0;
  double save = 0, load = 0, total = 0;
  uint64_t image_bytes = 0;
  uint64_t elements = 0;
};

struct Stores {
  std::unique_ptr<mctdb::design::Designer> designer;
  std::unique_ptr<mctdb::instance::LogicalInstance> logical;
  std::vector<mctdb::mct::MctSchema> schemas;
  /// Materialized stores, kept only when the caller asks (build checks).
  std::vector<std::unique_ptr<mctdb::storage::MctStore>> built;
  std::vector<std::unique_ptr<mctdb::storage::MctStore>> loaded;
  std::vector<std::unique_ptr<mctdb::wal::DurableStore>> durable;
  std::vector<std::string> paths;

  /// The store serving reads for schema i.
  mctdb::storage::MctStore* serving(size_t i) const {
    return durable.empty() ? loaded[i].get() : durable[i]->store();
  }
};

/// One full build into `dir`. Each call into a layer runs under a Timer.
mctdb::Status FullBuild(const Tpcw& tpcw, const std::string& dir, Open open,
                        const mctdb::storage::StoreOptions& options,
                        bool keep_built, Stores* out, BuildTimes* times);

/// Runs the read queries serially on `store` through its own buffer pool,
/// at the store's visible snapshot.
mctdb::Result<std::vector<mctdb::query::ExecResult>> RunReads(
    const Tpcw& tpcw, const mctdb::mct::MctSchema& schema,
    mctdb::storage::MctStore* store);

/// Same logical answer: identical ids and groups.
bool SameAnswer(const mctdb::query::ExecResult& a,
                const mctdb::query::ExecResult& b);

/// Checks that the seven schemas give the same answers; the answers of
/// schema 0 are returned as the reference.
std::vector<mctdb::query::ExecResult> CrossSchemaReference(
    const Tpcw& tpcw, const Stores& stores, Report* report,
    const char* phase);

/// Per-stage self time rollup over the traces of many executions.
struct StageTotals {
  double seconds[mctdb::obs::kNumStageKinds] = {};
  uint64_t queries = 0;
  void Add(const mctdb::obs::Span& trace);
  void Merge(const StageTotals& other);
  /// query.stage.<kind>_s as mean self seconds per query.
  void SetMetrics(Report* report) const;
};

/// Counters every read execution returns, summed.
struct ReadCounters {
  uint64_t queries = 0, hits = 0, misses = 0, join_pairs = 0,
           index_seeks = 0, results = 0;
  std::vector<double> exec_seconds;
  void Add(const mctdb::query::ExecResult& r);
  void Merge(const ReadCounters& other);
  void SetMetrics(Report* report) const;
};

/// Median planning time of each (schema, read query) pair, in seconds.
double MedianPlanSeconds(const Tpcw& tpcw, const Stores& stores);

void SetBuildMetrics(const std::vector<BuildTimes>& builds, Report* report);

/// Service-layer numbers; all zero on a workload that runs no service.
struct ServiceStats {
  double queue_wait_p50_us = 0, queue_wait_p99_us = 0;
  double plan_cache_hit_ratio = 0;
  uint64_t sheds = 0, rejected = 0, failed = 0;
  /// Update latency (submit to future) and committed updates per second.
  double update_p50_us = 0, update_p99_us = 0, update_ops_s = 0;
  /// Updates over all committed operations.
  double update_share = 0;
  void SetMetrics(Report* report) const;
};

/// WAL-layer numbers; all zero on a workload that writes no WAL.
struct WalStats {
  double fsync_p50_us = 0, fsync_p99_us = 0;
  uint64_t appends = 0, fsyncs = 0;
  double bytes_per_update = 0;
  uint64_t checkpoints = 0, checkpoints_min_store = 0;
  /// Checkpoints the gap-pressure trigger started (the rest: log size).
  uint64_t gap_checkpoints = 0;
  uint64_t write_stalls = 0, rebases = 0;
  /// Seconds to checkpoint all seven stores, and to reopen them from image
  /// and log (DurableStore::Open), measured after the traffic stopped.
  double checkpoint_s = 0, open_s = 0;
  void SetMetrics(Report* report) const;
};

}  // namespace perfbench
