// mctsvc::QueryService — an embeddable concurrent query service over one
// or more MctStores.
//
// Architecture:
//   * a fixed-size worker ThreadPool with a bounded admission window:
//     Submit returns Status::ResourceExhausted once max_queued requests
//     are in flight (queued or running), instead of buffering unboundedly;
//   * per-request deadlines: a request whose deadline passes while it
//     waits is cancelled cleanly at dequeue with Status::DeadlineExceeded
//     (it never starts executing);
//   * sessions: a Session's requests execute in submission order, one at a
//     time (a strand), while distinct sessions run in parallel on the
//     worker pool. Read-only queries may run from any number of sessions
//     of the same store concurrently. Update-form plans (the U-queries)
//     rewrite a read-only store's base in place, so they are only legal
//     through a session, relying on "one session per store" for
//     exclusivity; on a durable store the executor refuses them with
//     InvalidArgument, because its writes are logged UpdateOps submitted
//     through Session::SubmitUpdate;
//   * one N-shard ShardedBufferPool per registered store (sized by
//     ServiceOptions::pool_pages/pool_shards), shared by all of that
//     store's sessions; each request gets its own Executor over that pool
//     handle instead of the store's own one-shard pool;
//   * one metrics registry: Families() lists every series once (the
//     ServiceMetrics counters and histograms, lock contention, per-store
//     and per-shard pool, breaker and maintenance state), rendered as
//     Prometheus text for /metrics and as JSON for /metrics.json;
//   * graceful degradation: a load-shedding admission controller (past
//     the low watermark new-session/low-priority work is shed with
//     Status::Unavailable and a retry-after hint, past the high watermark
//     normal-priority too — high-priority rides until the hard admission
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

/// Request priority for the load-shedding admission controller. Under
/// pressure the service sheds from the bottom up: kLow first (one-shot
/// Execute calls — "new sessions" — submit at kLow), then kNormal; kHigh
/// is only refused at the hard admission limit.
enum class Priority { kLow = 0, kNormal = 1, kHigh = 2 };

struct ServiceOptions {
  /// Worker threads executing requests.
  size_t num_threads = 4;
  /// Admission window: requests in flight (queued or running) across all
  /// sessions. Submissions beyond it are rejected, not buffered.
  size_t max_queued = 256;
  /// Per-store sharded buffer pool: capacity in pages and shard count
  /// (0 = heuristic, see ShardedBufferPool).
  size_t pool_pages = 2048;
  size_t pool_shards = 0;
  /// Default per-request deadline in seconds; 0 = none.
  double default_timeout_seconds = 0.0;
  /// Start with the workers parked until Resume(). Lets an embedder stage
  /// a batch deterministically (also how the admission tests drive the
  /// queue to overflow without races).
  bool start_paused = false;
  /// Run the static plan verifier (analysis::VerifyPlan) at admission.
  /// Malformed plans are rejected with Status::InvalidArgument before they
  /// consume an admission slot or a worker.
  bool verify_plans = true;
  /// Per-store plan cache capacity (entries) for SubmitQuery. A hit skips
  /// planning AND admission-time verification (the cached entry was
  /// verified when it was built). 0 disables the cache — every SubmitQuery
  /// plans fresh.
  size_t plan_cache_capacity = 64;
  /// Slow-query threshold in seconds: a completed request whose execution
  /// took at least this long is recorded in the slow-query log (and
  /// counted in metrics). 0 disables the log.
  double slow_query_seconds = 0.0;
  /// Ring-buffer capacity of the slow-query log; the oldest entry is
  /// dropped once full.
  size_t slow_query_log_capacity = 32;
  /// Load-shedding watermarks as fractions of max_queued. Once the
  /// in-flight count crosses shed_low_fraction * max_queued, kLow
  /// submissions are shed with Status::Unavailable; past
  /// shed_normal_fraction, kNormal too. Shedding keeps headroom for
  /// high-priority and already-started work instead of letting the hard
  /// limit reject indiscriminately.
  double shed_low_fraction = 0.75;
  double shed_normal_fraction = 0.9;
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

  /// One-shot convenience: submits on an ephemeral session and waits.
  /// Rejects update-form plans: on a read-only store they need an
  /// explicit session so the caller owns the serialization domain, and a
  /// durable store takes updates only through SubmitUpdate. One-shots are
  /// the service's
  /// "new session" class and submit at Priority::kLow, so under overload
  /// they are shed before established sessions' work.
  mctdb::Result<mctdb::query::ExecResult> Execute(
      const std::string& store, const mctdb::query::QueryPlan& plan,
      double timeout_seconds = 0.0);

  /// One-shot by QUERY (not plan): plans through the store's plan cache —
  /// or serves a cached, still-fresh plan without re-planning — then
  /// executes and waits. Same shed class and update rejection as Execute.
  mctdb::Result<mctdb::query::ExecResult> ExecuteQuery(
      const std::string& store, const mctdb::query::AssociationQuery& query,
      double timeout_seconds = 0.0);

  /// Checkpoints a durable store (fold deltas into a fresh compact image,
  /// trim the WAL) and bumps its plan-cache generation: a checkpoint may
  /// relabel intervals, so every cached plan built before it stops
  /// hitting. InvalidArgument for read-only or unknown stores.
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
  /// The (store, pool) pair requests execute against. A kRebaseLive
  /// maintenance checkpoint swaps the durable store's live MctStore; the
  /// service then publishes a fresh view (new pool over the new store's
  /// pager) and in-flight requests finish on the view they resolved —
  /// the old store stays alive in DurableStore's retired list, the old
  /// pool stays alive through this shared_ptr. Store and pool must always
  /// be swapped together: a pool caches pages by id from ITS pager, so a
  /// mixed pair would serve another store's bytes.
  struct StoreView {
    mctdb::storage::MctStore* store = nullptr;
    std::shared_ptr<mctdb::storage::ShardedBufferPool> pool;
  };
  struct StoreEntry {
    std::shared_ptr<const StoreView> view;  // current pair; swapped on rebase
    mctdb::wal::DurableStore* durable = nullptr;  // null for read-only
    std::unique_ptr<CircuitBreaker> breaker;  // null when disabled
    std::unique_ptr<PlanCache> plan_cache;
    /// storage::SchemaFingerprint of the store's schema, part of every
    /// plan-cache key.
    uint64_t fingerprint = 0;
    /// Checkpoints run through QueryService::Checkpoint (reason "manual"
    /// in mctsvc_checkpoints_triggered_total). Guarded by mu_.
    uint64_t manual_checkpoints = 0;
    /// Declared last so it is destroyed (thread joined) before the state
    /// its callback touches.
    std::unique_ptr<mctdb::wal::MaintenanceManager> maintenance;
  };

  /// The store's current view, or null if unknown. Sessions resolve this
  /// per request instead of caching raw pointers across rebases.
  std::shared_ptr<const StoreView> CurrentView(const std::string& store) const;
  /// MaintenanceManager completion callback (runs on the maintenance
  /// thread): publishes a fresh view after a live rebase, bumps the plan
  /// cache generation — even on failure, mirroring Checkpoint() — and
  /// records the generation-bump flight event under the cycle's trace id.
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
  /// Submits `plan` for execution. The plan (and whatever it references)
  /// must stay alive until the returned future resolves. `timeout_seconds`
  /// <= 0 falls back to the service default. Under overload, requests
  /// below the current shedding watermark are refused with
  /// Status::Unavailable (retry-after hint in the message); an open
  /// circuit breaker on this store refuses the same way. An update-form
  /// plan on a durable store is admitted and resolves to InvalidArgument
  /// without touching the store.
  mctdb::Result<QueryFuture> Submit(
      const mctdb::query::QueryPlan& plan, double timeout_seconds = 0.0,
      Priority priority = Priority::kNormal);

  /// Submits a QUERY, planning through the store's plan cache. A fresh
  /// entry keyed by (store fingerprint, schema, canonical query text) that
  /// was built at the store's CURRENT visible LSN under the CURRENT cache
  /// generation is reused as-is — no planning, no re-verification (the
  /// entry was verified when built). Anything else re-plans against
  /// current state and installs the new entry. The strict LSN guard makes
  /// a stale cached result impossible by construction: any committed
  /// update advances the visible LSN and invalidates on next lookup.
  /// Unlike Submit, the query need not outlive the call — the cached
  /// entry owns a copy.
  mctdb::Result<QueryFuture> SubmitQuery(
      const mctdb::query::AssociationQuery& query,
      double timeout_seconds = 0.0, Priority priority = Priority::kNormal);

  /// Submits one update op on this session's strand. Requires the store
  /// to be registered via AddDurableStore (InvalidArgument otherwise).
  /// Updates are admitted at Priority::kHigh: an update the caller is
  /// about to fsync is the last thing to shed under load, so it rides
  /// until the hard admission limit like other high-priority work. The op
  /// must stay alive until the future resolves.
  mctdb::Result<UpdateFuture> SubmitUpdate(
      const mctdb::storage::UpdateOp& op, double timeout_seconds = 0.0);

  const std::string& store_name() const { return store_name_; }
  /// The store's CURRENT sharded pool (owned by the service). The pointer
  /// is stable until the next maintenance rebase publishes a fresh pool.
  mctdb::storage::ShardedBufferPool* pool() const {
    return service_->CurrentView(store_name_)->pool.get();
  }

 private:
  friend class QueryService;
  struct Task {
    const mctdb::query::QueryPlan* plan = nullptr;
    /// Set instead of `plan` for update tasks (resolves update_promise).
    const mctdb::storage::UpdateOp* op = nullptr;
    /// For SubmitQuery tasks: pins the cached (query, plan) pair `plan`
    /// points into, so cache eviction can never dangle a queued task.
    std::shared_ptr<const CachedPlan> holder;
    /// Correlation key minted at admission; the worker executes under
    /// ScopedTraceId(trace_id) so every downstream event carries it.
    uint64_t trace_id = 0;
    /// Admission time, for the queue-wait histogram at dequeue.
    std::chrono::steady_clock::time_point enqueue_time;
    /// Human-readable label for /statusz ("query Q3", "insert_subtree").
    std::string query_label;
    std::chrono::steady_clock::time_point deadline;
    bool has_deadline = false;
    std::promise<mctdb::Result<mctdb::query::ExecResult>> promise;
    std::promise<mctdb::Result<mctdb::query::UpdateExecResult>>
        update_promise;
  };

  Session(QueryService* service, std::string store_name,
          mctdb::wal::DurableStore* durable, CircuitBreaker* breaker,
          PlanCache* plan_cache, uint64_t fingerprint)
      : service_(service), store_name_(std::move(store_name)),
        durable_(durable), breaker_(breaker), plan_cache_(plan_cache),
        fingerprint_(fingerprint) {}

  /// Shared tail of Submit and SubmitQuery: verification gates (skipped
  /// for verified cached plans), then Admit. `holder` (may be null) rides
  /// on the task.
  mctdb::Result<QueryFuture> SubmitPlanned(
      const mctdb::query::QueryPlan& plan,
      std::shared_ptr<const CachedPlan> holder, double timeout_seconds,
      Priority priority, bool pre_verified, uint64_t trace_id);
  /// The one admission path for queries and updates: breaker, hard limit,
  /// shedding (never for kHigh), counters, deadline, then the strand
  /// enqueue. `task` carries the plan or op, its trace id and label; a
  /// refusal is logged in the slow-query ring and returned.
  mctdb::Status Admit(Task task, double timeout_seconds, Priority priority);

  // The session deliberately does NOT cache the store or pool pointers: a
  // maintenance rebase swaps both, so every request resolves the current
  // StoreView through the service instead. The remaining raw pointers
  // (durable store, breaker, plan cache) are stable for the service's
  // lifetime.
  QueryService* service_;
  std::string store_name_;
  mctdb::wal::DurableStore* durable_;  // null for read-only stores
  CircuitBreaker* breaker_;            // owned by the service; may be null
  PlanCache* plan_cache_;              // owned by the service
  uint64_t fingerprint_ = 0;

  mctdb::OrderedMutex mu_{mctdb::LockRank::kSessionStrand};
  std::deque<Task> tasks_;
  bool scheduled_ = false;
};

}  // namespace mctsvc
