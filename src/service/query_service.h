// mctsvc::QueryService — an embeddable concurrent query service over one
// or more MctStores.
//
// Architecture:
//   * one way in per request kind: a read enters as a query through
//     Session::SubmitQuery, which plans it through the store's plan cache
//     (a miss plans and verifies once, a hit reuses the verified plan), and
//     a write enters as an UpdateOp through Session::SubmitUpdate;
//   * a fixed-size worker ThreadPool with a bounded admission window: a
//     submission returns Status::ResourceExhausted once max_queued
//     requests are in flight (queued or running), instead of buffering
//     unboundedly;
//   * per-request deadlines: a request whose deadline passes while it
//     waits is cancelled cleanly at dequeue with Status::DeadlineExceeded
//     (it never starts executing);
//   * sessions: a Session's requests execute in submission order, one at a
//     time (a strand), while distinct sessions run in parallel on the
//     worker pool. Read-only queries may run from any number of sessions
//     of the same store concurrently. An update-form query (the U-queries)
//     rewrites a read-only store's base in place, relying on "one session
//     per store" for exclusivity; on a durable store the executor refuses
//     it with InvalidArgument, because its writes are logged UpdateOps
//     submitted through Session::SubmitUpdate;
//   * one N-shard ShardedBufferPool per registered store (ServiceOptions::
//     pool_pages pages, ShardedBufferPool's heuristic shard count), shared
//     by all of that store's sessions; each request gets its own Executor
//     over that pool handle instead of the store's own one-shard pool;
//   * one metrics registry: Families() lists every series once (the
//     ServiceMetrics counters and histograms, lock contention, per-store
//     and per-shard pool, breaker and maintenance state), rendered as
//     Prometheus text for /metrics and as JSON for /metrics.json;
//   * graceful degradation: a load-shedding admission controller (past
//     kShedFraction of max_queued a read is shed with Status::Unavailable
//     and a retry-after hint; an update rides until the hard admission
//     limit) and a per-store circuit breaker that opens after N
//     consecutive hard failures (DataLoss/Internal) and half-opens on a
//     timer. A degraded service says so on /healthz (HTTP 503) while the
//     healthy stores keep serving.
//
// Stores are registered non-owning and must outlive the service. The
// service treats store data as shared read-only state.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/ordered_mutex.h"
#include "obs/exec_stats.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "query/executor.h"
#include "query/plan.h"
#include "query/update_exec.h"
#include "service/circuit_breaker.h"
#include "service/http_endpoint.h"
#include "service/metrics.h"
#include "service/plan_cache.h"
#include "storage/sharded_pool.h"
#include "storage/store.h"
#include "wal/maintenance.h"

namespace mctsvc {

struct ServiceOptions {
  /// Worker threads executing requests (0 counts as 1).
  size_t num_threads = 4;
  /// Admission window: requests in flight (queued or running) across all
  /// sessions. Submissions beyond it are rejected, not buffered; reads are
  /// shed earlier, past QueryService::kShedFraction of it.
  size_t max_queued = 256;
  /// Per-store sharded buffer pool capacity in pages.
  size_t pool_pages = 2048;
  /// Start with the workers parked until Resume(). Lets an embedder stage
  /// a batch deterministically (also how the admission tests drive the
  /// queue to overflow without races).
  bool start_paused = false;
  /// Slow-query threshold in seconds: a completed request whose execution
  /// took at least this long is recorded in the slow-query log (the last
  /// QueryService::kSlowQueryLogCapacity entries) and counted in metrics.
  /// 0 disables the log.
  double slow_query_seconds = 0.0;
  /// Per-store circuit breaker: consecutive hard failures (DataLoss /
  /// Internal) that trip it, and how long it stays open before probing.
  /// A threshold of 0 disables the breakers.
  int breaker_failure_threshold = 5;
  double breaker_open_seconds = 5.0;
  /// Serve /metrics, /metrics.json, /healthz, /slowlog, /statusz and
  /// /flightz over HTTP on 127.0.0.1. -1 disables the endpoint; 0 binds
  /// an ephemeral port (read it back with HttpPort()); > 0 binds that
  /// port. A bind failure is logged and leaves the service running
  /// without the endpoint (observability must never take the data path
  /// down).
  int http_port = -1;
  /// Start one wal::MaintenanceManager per durable store (background
  /// checkpointing, interval-label rebalancing, read-only re-probing;
  /// DESIGN.md §17). Off by default so embedders and tests that pin WAL
  /// counters see no background activity.
  bool maintenance_enabled = false;
  /// Trigger thresholds for the per-store maintenance managers.
  mctdb::wal::MaintenanceOptions maintenance;
};

using QueryFuture = std::future<mctdb::Result<mctdb::query::ExecResult>>;
using UpdateFuture =
    std::future<mctdb::Result<mctdb::query::UpdateExecResult>>;

class QueryService {
 public:
  /// Plans each store's cache holds (least recently used evicted first).
  static constexpr size_t kPlanCacheCapacity = 64;
  /// Entries the slow-query ring keeps; the oldest is dropped once full.
  static constexpr size_t kSlowQueryLogCapacity = 32;
  /// Reads are shed once the in-flight count passes this fraction of
  /// max_queued, keeping the rest of the window for updates and work
  /// already admitted.
  static constexpr double kShedFraction = 0.9;

  explicit QueryService(const ServiceOptions& options = {});
  /// Drains every admitted request, then joins the workers.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Registers a store under `name` (non-owning; the store must outlive
  /// the service) and builds its shared sharded buffer pool.
  mctdb::Status AddStore(const std::string& name,
                         mctdb::storage::MctStore* store);

  /// Registers a WAL-backed durable store (non-owning; must outlive the
  /// service): its in-memory MctStore serves reads like AddStore, and
  /// sessions on it additionally accept SubmitUpdate. Recovery work done
  /// when the store was opened lands in mctsvc_recovery_replayed_records.
  mctdb::Status AddDurableStore(const std::string& name,
                                mctdb::wal::DurableStore* store);

  class Session;
  /// Opens a session on a registered store. The session must not outlive
  /// the service.
  mctdb::Result<std::shared_ptr<Session>> OpenSession(
      const std::string& store);

  /// Checkpoints a durable store (fold deltas into a fresh compact image,
  /// trim the WAL) and bumps its plan-cache generation, even when the
  /// checkpoint fails, so each cached plan re-plans once and generation()
  /// counts attempted checkpoints. InvalidArgument for read-only stores,
  /// NotFound for unknown ones.
  mctdb::Result<mctdb::wal::CheckpointStats> Checkpoint(
      const std::string& store);

  /// The named store's plan cache, or nullptr if unknown. Exposed for
  /// tests and embedders.
  PlanCache* plan_cache(const std::string& store) const;

  /// Releases workers of a start_paused service (idempotent).
  void Resume();
  /// Blocks until no request is queued or running.
  void Drain();

  ServiceMetrics& metrics() { return metrics_; }
  const ServiceMetrics& metrics() const { return metrics_; }
  /// Every exported series, each listed once: ServiceMetrics::Families()
  /// followed by the per-store families (pool, breaker, maintenance, then
  /// pool capacity and per-shard pool series). No per-store family is
  /// listed while no store is registered.
  std::vector<MetricFamily> Families() const;
  /// Families() in Prometheus text exposition format (the /metrics body).
  std::string MetricsText() const;
  /// Families() as JSON (the /metrics.json body): the same samples as
  /// MetricsText, see RenderJson.
  std::string MetricsJson() const;

  /// One slow-query log entry: the per-stage breakdown and span tree of a
  /// request that crossed the slow_query_seconds threshold — or a request
  /// the admission path turned away (outcome "shed"/"rejected"/"breaker"),
  /// so the log still tells the story when the service is saturated and
  /// nothing completes at all.
  struct SlowQueryRecord {
    std::string store;
    std::string query;
    /// Correlation key (obs/trace_id.h); filters `mctc trace --id` and
    /// joins against flight-recorder dumps.
    uint64_t trace_id = 0;
    /// "completed" (crossed the latency threshold), or why admission
    /// turned the request away: "shed", "rejected", "breaker".
    std::string outcome = "completed";
    double seconds = 0.0;
    uint64_t page_hits = 0;
    uint64_t page_misses = 0;
    uint64_t join_pairs = 0;
    mctdb::obs::StageTable stages{};
    /// The request's span tree; a turned-away request's is its bare root
    /// (label and trace id, no work).
    mctdb::obs::Span trace;
  };
  /// Snapshot of the slow-query ring buffer, oldest first.
  std::vector<SlowQueryRecord> SlowQueries() const;
  /// The same snapshot as one JSON document (the /slowlog response):
  /// {"slow_queries":[{"store":...,"query":...,"seconds":...,...,
  /// "trace":<span tree>}]}.
  std::string SlowQueriesJson() const;
  /// The /healthz response: status ("ok"/"degraded"), uptime, store and
  /// worker counts, and per-store breaker states.
  std::string HealthJson() const;
  /// The /statusz response — live introspection in one JSON document:
  /// currently-executing requests (trace id, store, query, elapsed),
  /// queue depth, per-durable-store in-flight WAL batch size, plan-cache
  /// and breaker state, and buffer-pool residency per store. `queue_wait`
  /// and `lock_wait` are the registry's queue-wait histogram and lock
  /// families, rendered by RenderJson.
  std::string StatuszJson() const;
  /// The /flightz response: a live flight-recorder snapshot rendered as
  /// {"events":[...]} (obs::flight::Snapshot; empty when the recorder is
  /// disabled).
  std::string FlightzJson() const;
  /// True while any store's circuit breaker is open or half-open. The
  /// /healthz route answers 503 in this state so load balancers steer
  /// away, but the service keeps answering for its healthy stores.
  bool Degraded() const;
  /// The named store's breaker, or nullptr if unknown / breakers are
  /// disabled. Exposed for tests and embedders; the service itself
  /// records outcomes.
  CircuitBreaker* breaker(const std::string& store) const;

  /// Port of the live HTTP endpoint, or 0 when disabled / bind failed.
  uint16_t HttpPort() const;

  /// Registers an extra HTTP route served before the built-in
  /// observability routes (exact path match, GET or POST) — how `mctc
  /// serve` mounts POST /update. The handler runs on the listener thread;
  /// it may call back into the service (OpenSession/SubmitUpdate lock
  /// nothing across the call). Replaces any previous handler for `path`.
  void AddHttpRoute(const std::string& path, HttpEndpoint::Handler handler);

 private:
  friend class Session;
  /// What a store's pool and pager have counted: the sources of the seven
  /// per-store counter families (pool hits, misses, checksum failures,
  /// retries and quarantined; per-shard hits and misses).
  struct PoolCounts {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t checksum_failures = 0;
    uint64_t retries = 0;
    uint64_t quarantined = 0;
    std::vector<uint64_t> shard_hits;
    std::vector<uint64_t> shard_misses;

    /// Adds `now - base` field by field; all three count the same store,
    /// whose pools all have the same shard count.
    void AddDelta(const PoolCounts& now, const PoolCounts& base);
  };
  /// What every view of a store had counted when it last folded its
  /// counts in (see StoreView). Families() folds the current view in and
  /// exports these.
  struct PoolTotals {
    std::mutex mu;
    PoolCounts counts;  // guarded by mu
  };
  /// The (store, pool) pair requests execute against. A kRebaseLive
  /// checkpoint swaps the durable store's live MctStore; CurrentView then
  /// publishes a fresh view (the new store pinned, a new pool over its
  /// pager) and in-flight requests finish on the view they resolved. A
  /// view pins its store, so the store a rebase replaced is freed when its
  /// view is dropped, after the last in-flight request on it. Store and
  /// pool must always be swapped together: a pool caches pages by id from
  /// ITS pager, so a mixed pair would serve another store's bytes.
  ///
  /// A view adds what it counted since its last fold to its store's
  /// PoolTotals at every Families() call while current, when it is
  /// replaced and, for requests that finished on it after that, when it is
  /// destroyed, so no exported counter goes backwards across a rebase.
  struct StoreView {
    StoreView(std::shared_ptr<mctdb::storage::MctStore> pinned,
              const ServiceOptions& options, PoolTotals* pool_totals);
    ~StoreView() { FoldCounts(); }
    StoreView(const StoreView&) = delete;
    StoreView& operator=(const StoreView&) = delete;

    /// Adds what the pool and the pager counted since the previous fold
    /// to `totals`.
    void FoldCounts() const;

    /// Owning for a durable store; non-owning for a read-only one.
    std::shared_ptr<mctdb::storage::MctStore> store;
    std::unique_ptr<mctdb::storage::ShardedBufferPool> pool;
    PoolTotals* totals;  // owned by the StoreEntry, which outlives its views
    mutable PoolCounts folded;  // already added to totals; see FoldCounts
  };
  struct StoreEntry {
    /// Declared before `view` so it is destroyed after it.
    std::unique_ptr<PoolTotals> totals;
    std::shared_ptr<const StoreView> view;  // current pair; swapped on rebase
    mctdb::wal::DurableStore* durable = nullptr;  // null for read-only
    std::unique_ptr<CircuitBreaker> breaker;  // null when disabled
    std::unique_ptr<PlanCache> plan_cache;
    /// Checkpoints run through QueryService::Checkpoint (reason "manual"
    /// in mctsvc_checkpoints_triggered_total). Guarded by mu_.
    uint64_t manual_checkpoints = 0;
    /// Declared last so it is destroyed (thread joined) before the state
    /// its callback touches.
    std::unique_ptr<mctdb::wal::MaintenanceManager> maintenance;
  };

  /// Registers `store` under `name`: its view, plan cache and breaker.
  /// `durable` is null for a read-only store.
  mctdb::Status Register(const std::string& name,
                         std::shared_ptr<mctdb::storage::MctStore> store,
                         mctdb::wal::DurableStore* durable);
  /// The store's current view, or null if unknown. Workers resolve this
  /// per request instead of caching raw pointers across rebases. The one
  /// routine that publishes views: when a durable store's live store is
  /// no longer the one its view pins (a kRebaseLive checkpoint ran), it
  /// publishes a fresh view and drops the replaced one after releasing
  /// mu_.
  std::shared_ptr<const StoreView> CurrentView(const std::string& store);
  /// MaintenanceManager completion callback (runs on the maintenance
  /// thread): publishes a fresh view after a live rebase (so the replaced
  /// view is usually dropped here, not on a worker), bumps the plan cache
  /// generation — even on failure, mirroring Checkpoint() — and records
  /// the generation-bump flight event under the cycle's trace id.
  void OnMaintenanceCheckpoint(
      const std::string& store,
      const mctdb::wal::MaintenanceManager::Event& event);
  void RunNext(const std::shared_ptr<Session>& session);
  void FinishOne();
  /// Records per-query I/O counters and, past the threshold, appends the
  /// request to the slow-query ring.
  void RecordCompletion(const Session& session,
                        const mctdb::query::ExecResult& result);
  /// Appends an admission-refused request (shed / hard-limit reject /
  /// open breaker) to the slow-query ring — saturation is exactly when
  /// the log must not go quiet. No-op when the log is disabled.
  void RecordRejection(const std::string& store, const char* outcome,
                       uint64_t trace_id, const std::string& query_label);

  /// One currently-executing request, keyed by TraceId in inflight_.
  struct InFlightEntry {
    std::string store;
    std::string query;
    std::chrono::steady_clock::time_point start;
  };
  void BeginInFlight(uint64_t trace_id, const std::string& store,
                     std::string query_label);
  void EndInFlight(uint64_t trace_id);

  // Lock ranks (see common/ordered_mutex.h): registry < strand < drain <
  // pool shard. The rank checker aborts on any acquisition that inverts
  // this order.
  ServiceOptions options_;
  ServiceMetrics metrics_;
  mutable mctdb::OrderedMutex mu_{
      mctdb::LockRank::kServiceRegistry};  // guards stores_, http_routes_
  std::map<std::string, StoreEntry> stores_;
  std::map<std::string, HttpEndpoint::Handler> http_routes_;
  std::atomic<uint64_t> pending_{0};
  mctdb::OrderedMutex drain_mu_{mctdb::LockRank::kServiceDrain};
  std::condition_variable_any drained_cv_;
  mutable mctdb::OrderedMutex slow_mu_{mctdb::LockRank::kSlowQueryLog};
  std::deque<SlowQueryRecord> slow_log_;  // bounded ring, oldest first
  mutable mctdb::OrderedMutex inflight_mu_{
      mctdb::LockRank::kInFlightTable};
  std::map<uint64_t, InFlightEntry> inflight_;  // trace id -> running task
  std::unique_ptr<mctdb::ThreadPool> pool_;
  std::chrono::steady_clock::time_point start_time_;
  std::unique_ptr<HttpEndpoint> http_;  // created last, destroyed first
};

/// A strand of requests over one store: FIFO order, no intra-session
/// concurrency, inter-session parallelism. Obtain via OpenSession.
class QueryService::Session
    : public std::enable_shared_from_this<QueryService::Session> {
 public:
  /// Submits a read. The store's plan cache supplies the plan: a hit
  /// reuses a plan verified when it was built, a miss (or an entry from
  /// before the last checkpoint) plans the query against the store's
  /// schema, verifies the plan and caches it. A query that cannot be
  /// planned or fails verification is refused with InvalidArgument before
  /// admission. The query need not outlive the call: the cached entry owns
  /// a copy. `timeout_seconds` > 0 sets a deadline. Past kShedFraction of
  /// max_queued the read is refused with Status::Unavailable (retry-after
  /// hint in the message); an open circuit breaker on this store refuses
  /// the same way. An update-form query on a durable store is admitted
  /// and resolves to InvalidArgument without touching the store.
  mctdb::Result<QueryFuture> SubmitQuery(
      const mctdb::query::AssociationQuery& query,
      double timeout_seconds = 0.0);

  /// Submits one update op on this session's strand. Requires the store
  /// to be registered via AddDurableStore (InvalidArgument otherwise).
  /// Updates are never load-shed: an update the caller is about to fsync
  /// rides until the hard admission limit. The op must stay alive until
  /// the future resolves.
  mctdb::Result<UpdateFuture> SubmitUpdate(
      const mctdb::storage::UpdateOp& op, double timeout_seconds = 0.0);

  const std::string& store_name() const { return store_name_; }

 private:
  friend class QueryService;
  struct Task {
    /// The verified plan a read executes, pinned so cache eviction can
    /// never dangle a queued task; null for update tasks.
    std::shared_ptr<const CachedPlan> plan;
    /// Set instead of `plan` for update tasks (resolves update_promise).
    const mctdb::storage::UpdateOp* op = nullptr;
    /// Correlation key minted at submission; the worker executes under
    /// ScopedTraceId(trace_id) so every downstream event carries it.
    uint64_t trace_id = 0;
    /// Admission time, for the queue-wait histogram at dequeue.
    std::chrono::steady_clock::time_point enqueue_time;
    /// Human-readable label for /statusz ("Q3", "insert_subtree").
    std::string query_label;
    std::chrono::steady_clock::time_point deadline;
    bool has_deadline = false;
    std::promise<mctdb::Result<mctdb::query::ExecResult>> promise;
    std::promise<mctdb::Result<mctdb::query::UpdateExecResult>>
        update_promise;
  };

  Session(QueryService* service, std::string store_name,
          const mctdb::mct::MctSchema* schema,
          mctdb::wal::DurableStore* durable, CircuitBreaker* breaker,
          PlanCache* plan_cache)
      : service_(service), store_name_(std::move(store_name)),
        schema_(schema), durable_(durable), breaker_(breaker),
        plan_cache_(plan_cache) {}

  /// The cached plan for `query`, or a freshly planned and verified one
  /// (then cached). Ticks one plan-cache outcome under `trace_id`.
  mctdb::Result<std::shared_ptr<const CachedPlan>> CachedOrNewPlan(
      const mctdb::query::AssociationQuery& query, uint64_t trace_id);
  /// The one admission path for queries and updates: breaker, hard limit,
  /// shedding (reads only), counters, deadline, then the strand enqueue.
  /// `task` carries the plan or op, its trace id and label; a refusal is
  /// logged in the slow-query ring and returned.
  mctdb::Status Admit(Task task, double timeout_seconds);

  // The session deliberately does NOT cache the store or pool pointers: a
  // rebase swaps both, so every request resolves the current StoreView
  // through the service at dequeue instead. The remaining raw pointers
  // (schema, durable store, breaker, plan cache) are stable for the
  // service's lifetime: every store a rebase swaps in is built on the
  // same schema.
  QueryService* service_;
  std::string store_name_;
  const mctdb::mct::MctSchema* schema_;
  mctdb::wal::DurableStore* durable_;  // null for read-only stores
  CircuitBreaker* breaker_;            // owned by the service; may be null
  PlanCache* plan_cache_;              // owned by the service

  mctdb::OrderedMutex mu_{mctdb::LockRank::kSessionStrand};
  std::deque<Task> tasks_;
  bool scheduled_ = false;
};

}  // namespace mctsvc
