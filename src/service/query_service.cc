#include "service/query_service.h"

#include <utility>

#include "analysis/plan_verify.h"
#include "analysis/query_analyze.h"
#include "common/failpoint.h"
#include "query/planner.h"
#include "storage/persist.h"
#include "common/log.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "obs/flight_recorder.h"
#include "obs/trace_export.h"
#include "obs/trace_id.h"

namespace mctsvc {

using mctdb::Result;
using mctdb::Status;
using mctdb::query::ExecResult;
using mctdb::query::QueryPlan;
namespace flight = mctdb::obs::flight;

QueryService::QueryService(const ServiceOptions& options)
    : options_(options), start_time_(std::chrono::steady_clock::now()) {
  mctdb::ThreadPool::Options popts;
  popts.num_threads = options_.num_threads == 0 ? 1 : options_.num_threads;
  popts.start_paused = options_.start_paused;
  pool_ = std::make_unique<mctdb::ThreadPool>(popts);
  if (options_.http_port >= 0) {
    HttpEndpoint::Options hopts;
    hopts.port = static_cast<uint16_t>(options_.http_port);
    http_ = std::make_unique<HttpEndpoint>(
        hopts, [this](const HttpRequest& request) {
          HttpResponse response;
          // Extension routes first (exact path, any method): this is how
          // POST /update reaches the admission pipeline in `mctc serve`.
          HttpEndpoint::Handler route;
          {
            std::lock_guard<mctdb::OrderedMutex> lock(mu_);
            auto it = http_routes_.find(request.path);
            if (it != http_routes_.end()) route = it->second;
          }
          if (route) return route(request);
          if (request.method != "GET") {
            response.status = 405;
            response.body =
                "POST is only accepted on registered control routes\n";
            return response;
          }
          const std::string& path = request.path;
          if (path == "/metrics") {
            response.content_type = "text/plain; version=0.0.4";
            response.body = MetricsText();
          } else if (path == "/metrics.json") {
            response.content_type = "application/json";
            response.body = MetricsJson() + "\n";
          } else if (path == "/healthz") {
            response.content_type = "application/json";
            response.body = HealthJson() + "\n";
            // 503 while degraded: load balancers and probes steer away
            // without parsing the body.
            if (Degraded()) response.status = 503;
          } else if (path == "/slowlog") {
            response.content_type = "application/json";
            response.body = SlowQueriesJson() + "\n";
          } else if (path == "/statusz") {
            response.content_type = "application/json";
            response.body = StatuszJson() + "\n";
          } else if (path == "/flightz") {
            response.content_type = "application/json";
            response.body = FlightzJson() + "\n";
          } else {
            response.status = 404;
            response.body =
                "not found; routes: /metrics /metrics.json /healthz "
                "/slowlog /statusz /flightz\n";
          }
          return response;
        });
    mctdb::Status started = http_->Start();
    if (!started.ok()) {
      // Keep serving queries without the endpoint: observability must
      // never take the data path down.
      MCTDB_LOG(kError, "mctsvc", "http endpoint failed to start",
                {{"error", started.ToString()},
                 {"port", int64_t(options_.http_port)}});
      http_.reset();
    }
  }
}

QueryService::~QueryService() {
  http_.reset();  // joins the listener before any state it scrapes dies
  Resume();
  Drain();
  // Stop maintenance threads before anything they touch (plan caches,
  // views, metrics) starts dying. Collected under the lock but stopped
  // outside it: a callback in flight needs mu_, and Stop() joins.
  std::vector<mctdb::wal::MaintenanceManager*> managers;
  {
    std::lock_guard<mctdb::OrderedMutex> lock(mu_);
    for (auto& [name, entry] : stores_) {
      if (entry.maintenance != nullptr) {
        managers.push_back(entry.maintenance.get());
      }
    }
  }
  for (mctdb::wal::MaintenanceManager* m : managers) m->Stop();
  pool_.reset();  // joins workers before the store registry goes away
}

Status QueryService::AddStore(const std::string& name,
                              mctdb::storage::MctStore* store) {
  if (store == nullptr) {
    return Status::InvalidArgument("AddStore: null store");
  }
  std::lock_guard<mctdb::OrderedMutex> lock(mu_);
  auto [it, inserted] = stores_.emplace(name, StoreEntry{});
  if (!inserted) {
    return Status::AlreadyExists("store '" + name + "' already registered");
  }
  auto view = std::make_shared<StoreView>();
  view->store = store;
  view->pool = std::make_shared<mctdb::storage::ShardedBufferPool>(
      store->pager(), options_.pool_pages, options_.pool_shards);
  it->second.view = std::move(view);
  it->second.plan_cache =
      std::make_unique<PlanCache>(options_.plan_cache_capacity);
  it->second.fingerprint =
      mctdb::storage::SchemaFingerprint(store->schema());
  if (options_.breaker_failure_threshold > 0) {
    CircuitBreaker::Options bopts;
    bopts.failure_threshold = options_.breaker_failure_threshold;
    bopts.open_seconds = options_.breaker_open_seconds;
    it->second.breaker = std::make_unique<CircuitBreaker>(name, bopts);
  }
  MCTDB_LOG(kInfo, "mctsvc", "store registered",
            {{"store", name},
             {"pool_pages", uint64_t(options_.pool_pages)},
             {"shards", uint64_t(it->second.view->pool->num_shards())}});
  return Status::OK();
}

Status QueryService::AddDurableStore(const std::string& name,
                                     mctdb::wal::DurableStore* store) {
  if (store == nullptr) {
    return Status::InvalidArgument("AddDurableStore: null store");
  }
  MCTDB_RETURN_IF_ERROR(AddStore(name, store->store()));
  {
    std::lock_guard<mctdb::OrderedMutex> lock(mu_);
    StoreEntry& entry = stores_[name];
    entry.durable = store;
    if (options_.maintenance_enabled) {
      entry.maintenance = std::make_unique<mctdb::wal::MaintenanceManager>(
          store, options_.maintenance,
          [this, name](const mctdb::wal::MaintenanceManager::Event& event) {
            OnMaintenanceCheckpoint(name, event);
          });
      entry.maintenance->Start();
    }
  }
  metrics_.recovery_replayed_records.fetch_add(
      store->recovery().replayed_records, std::memory_order_relaxed);
  if (store->recovery().replayed_records > 0 ||
      store->recovery().truncated_bytes > 0) {
    MCTDB_LOG(kInfo, "mctsvc", "durable store recovered",
              {{"store", name},
               {"replayed", store->recovery().replayed_records},
               {"truncated_bytes", store->recovery().truncated_bytes}});
  }
  return Status::OK();
}

Result<std::shared_ptr<QueryService::Session>> QueryService::OpenSession(
    const std::string& store) {
  std::lock_guard<mctdb::OrderedMutex> lock(mu_);
  auto it = stores_.find(store);
  if (it == stores_.end()) {
    return Status::NotFound("store '" + store + "' is not registered");
  }
  return std::shared_ptr<Session>(
      new Session(this, store, it->second.durable, it->second.breaker.get(),
                  it->second.plan_cache.get(), it->second.fingerprint));
}

std::shared_ptr<const QueryService::StoreView> QueryService::CurrentView(
    const std::string& store) const {
  std::lock_guard<mctdb::OrderedMutex> lock(mu_);
  auto it = stores_.find(store);
  return it == stores_.end() ? nullptr : it->second.view;
}

void QueryService::OnMaintenanceCheckpoint(
    const std::string& store,
    const mctdb::wal::MaintenanceManager::Event& event) {
  PlanCache* cache = nullptr;
  {
    std::lock_guard<mctdb::OrderedMutex> lock(mu_);
    auto it = stores_.find(store);
    if (it == stores_.end()) return;
    StoreEntry& entry = it->second;
    cache = entry.plan_cache.get();
    if (event.status.ok() && event.stats.rebased &&
        entry.durable != nullptr &&
        entry.durable->store() != entry.view->store) {
      // The live store was swapped under us: publish a fresh (store,
      // pool) pair. In-flight requests keep the old view alive through
      // their shared_ptr and finish against the retired store.
      auto fresh = std::make_shared<StoreView>();
      fresh->store = entry.durable->store();
      fresh->pool = std::make_shared<mctdb::storage::ShardedBufferPool>(
          fresh->store->pager(), options_.pool_pages, options_.pool_shards);
      entry.view = std::move(fresh);
    }
  }
  // Bump even on failure — same reasoning as Checkpoint(): a half-finished
  // checkpoint may have moved state, and a spurious re-plan is cheap next
  // to a plan compiled against intervals that no longer exist. The trace
  // id is the maintenance cycle's (minted by the manager's loop), so the
  // bump correlates with the trigger and the WAL events of the checkpoint.
  cache->BumpGeneration();
  flight::Record(flight::Subsystem::kPlanCache,
                 flight::Site::kGenerationBump,
                 mctdb::obs::CurrentTraceId(), cache->generation());
  if (event.status.ok()) {
    MCTDB_LOG(kInfo, "mctsvc", "maintenance checkpoint",
              {{"store", store},
               {"reason", mctdb::wal::ToString(event.reason)},
               {"checkpoint_lsn", uint64_t(event.stats.checkpoint_lsn)},
               {"rebased", uint64_t(event.stats.rebased)}});
  } else {
    MCTDB_LOG(kWarn, "mctsvc", "maintenance checkpoint failed",
              {{"store", store},
               {"reason", mctdb::wal::ToString(event.reason)},
               {"error", event.status.ToString()}});
  }
}

Result<ExecResult> QueryService::Execute(const std::string& store,
                                         const QueryPlan& plan,
                                         double timeout_seconds) {
  if (plan.query != nullptr && plan.query->is_update()) {
    return Status::InvalidArgument(
        "update plans rewrite a read-only store in place and need an "
        "explicit session (one per store); durable stores take updates "
        "through Session::SubmitUpdate");
  }
  MCTDB_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                         OpenSession(store));
  // One-shots are the "new session" shed class: under overload they go
  // first, preserving capacity for established sessions.
  MCTDB_ASSIGN_OR_RETURN(
      QueryFuture future,
      session->Submit(plan, timeout_seconds, Priority::kLow));
  return future.get();
}

Result<ExecResult> QueryService::ExecuteQuery(
    const std::string& store, const mctdb::query::AssociationQuery& query,
    double timeout_seconds) {
  if (query.is_update()) {
    return Status::InvalidArgument(
        "update queries rewrite a read-only store in place and need an "
        "explicit session (one per store); durable stores take updates "
        "through Session::SubmitUpdate");
  }
  MCTDB_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                         OpenSession(store));
  MCTDB_ASSIGN_OR_RETURN(
      QueryFuture future,
      session->SubmitQuery(query, timeout_seconds, Priority::kLow));
  return future.get();
}

Result<mctdb::wal::CheckpointStats> QueryService::Checkpoint(
    const std::string& store) {
  mctdb::wal::DurableStore* durable = nullptr;
  PlanCache* cache = nullptr;
  {
    std::lock_guard<mctdb::OrderedMutex> lock(mu_);
    auto it = stores_.find(store);
    if (it == stores_.end()) {
      return Status::NotFound("store '" + store + "' is not registered");
    }
    if (it->second.durable == nullptr) {
      return Status::InvalidArgument(
          "store '" + store + "' is read-only; nothing to checkpoint");
    }
    durable = it->second.durable;
    cache = it->second.plan_cache.get();
    ++it->second.manual_checkpoints;
  }
  // The checkpoint runs under its own trace id so its WAL and checkpoint
  // events — and this generation bump — correlate as one timeline.
  const uint64_t trace_id = mctdb::obs::MintTraceId();
  mctdb::obs::ScopedTraceId trace_scope(trace_id);
  Result<mctdb::wal::CheckpointStats> stats = durable->Checkpoint();
  // Bump even on failure: a half-finished checkpoint may still have moved
  // in-memory state, and a spurious re-plan is cheap next to a plan
  // compiled against intervals that no longer exist.
  cache->BumpGeneration();
  flight::Record(flight::Subsystem::kPlanCache,
                 flight::Site::kGenerationBump, trace_id,
                 cache->generation());
  if (stats.ok()) {
    MCTDB_LOG(kInfo, "mctsvc", "store checkpointed",
              {{"store", store},
               {"checkpoint_lsn", uint64_t(stats->checkpoint_lsn)},
               {"log_bytes_trimmed", stats->log_bytes_trimmed}});
  }
  return stats;
}

PlanCache* QueryService::plan_cache(const std::string& store) const {
  std::lock_guard<mctdb::OrderedMutex> lock(mu_);
  auto it = stores_.find(store);
  return it == stores_.end() ? nullptr : it->second.plan_cache.get();
}

void QueryService::Resume() { pool_->Resume(); }

void QueryService::Drain() {
  std::unique_lock<mctdb::OrderedMutex> lock(drain_mu_);
  drained_cv_.wait(lock, [&] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

void QueryService::FinishOne() {
  uint64_t left = pending_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  metrics_.queue_depth.store(left, std::memory_order_relaxed);
  if (left == 0) {
    std::lock_guard<mctdb::OrderedMutex> lock(drain_mu_);
    drained_cv_.notify_all();
  }
}

void QueryService::RunNext(const std::shared_ptr<Session>& session) {
  Session::Task task;
  {
    std::lock_guard<mctdb::OrderedMutex> lock(session->mu_);
    MCTDB_CHECK(!session->tasks_.empty());
    task = std::move(session->tasks_.front());
    session->tasks_.pop_front();
  }
  const double queue_wait =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    task.enqueue_time)
          .count();
  metrics_.queue_wait_seconds.Record(queue_wait);
  // Everything this task does downstream — spans, WAL appends, fsyncs,
  // flight events — inherits its admission-minted trace id.
  mctdb::obs::ScopedTraceId trace_scope(task.trace_id);

  if (task.has_deadline &&
      std::chrono::steady_clock::now() > task.deadline) {
    // A deadline lapse says nothing about the store's health: it is not a
    // shed and must never feed the circuit breaker.
    metrics_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
    metrics_.completed.fetch_add(1, std::memory_order_relaxed);
    flight::Record(flight::Subsystem::kService, flight::Site::kDeadline,
                   task.trace_id,
                   static_cast<uint64_t>(queue_wait * 1e6));
    Status lapsed =
        Status::DeadlineExceeded("request deadline passed while queued");
    if (task.op != nullptr) {
      task.update_promise.set_value(lapsed);
    } else {
      task.promise.set_value(lapsed);
    }
  } else if (task.op != nullptr) {
    BeginInFlight(task.trace_id, session->store_name_, task.query_label);
    mctdb::query::UpdateExecutor exec(session->durable_);
    Result<mctdb::query::UpdateExecResult> result = exec.Execute(*task.op);
    EndInFlight(task.trace_id);
    metrics_.completed.fetch_add(1, std::memory_order_relaxed);
    if (result.ok()) {
      metrics_.latency.Record(result->elapsed_seconds);
      metrics_.wal_appends.fetch_add(result->wal_appends,
                                     std::memory_order_relaxed);
      if (result->wal_fsyncs > 0) {
        // This op led its batch's fsync; its group_commit span timed the
        // sync (followers piggyback and record nothing).
        for (const mctdb::obs::Span& child : result->trace.children) {
          if (child.kind == mctdb::obs::StageKind::kWal &&
              child.label == "group_commit") {
            metrics_.wal_fsync_seconds.Record(child.elapsed_seconds);
          }
        }
      }
      if (session->breaker_ != nullptr) session->breaker_->RecordSuccess();
    } else {
      metrics_.failed.fetch_add(1, std::memory_order_relaxed);
      metrics_.updates_failed.fetch_add(1, std::memory_order_relaxed);
      if (session->breaker_ != nullptr) {
        if (result.status().IsUnavailable() &&
            session->durable_ != nullptr && session->durable_->read_only()) {
          // Out-of-space read-only mode is graceful degradation, not a
          // store fault: reads still serve and writes resume once the
          // disk drains. An open breaker here would refuse the reads too.
          session->breaker_->RecordSuccess();
        } else if (result.status().IsDataLoss() ||
                   result.status().IsInternal() ||
                   result.status().IsUnavailable()) {
          // A degraded WAL is a hard store fault: trip the breaker so the
          // write path stops hammering a log that needs a reopen.
          session->breaker_->RecordFailure();
        } else {
          session->breaker_->RecordSuccess();
        }
      }
    }
    task.update_promise.set_value(std::move(result));
  } else {
    BeginInFlight(task.trace_id, session->store_name_, task.query_label);
    Result<ExecResult> result = [&]() -> Result<ExecResult> {
      switch (MCTDB_FAILPOINT("service.exec")) {
        case mctdb::failpoint::Fault::kError:
          return Status::Internal("injected service.exec fault");
        case mctdb::failpoint::Fault::kTruncate:
          return Status::DataLoss("injected service.exec data loss");
        case mctdb::failpoint::Fault::kEnospc:
        case mctdb::failpoint::Fault::kEio:
          // Disk faults inside execution surface as I/O errors; the
          // breaker treats them like any executor failure.
          return Status::IoError("injected service.exec disk fault");
        case mctdb::failpoint::Fault::kNone:
          break;
      }
      // Resolve the CURRENT (store, pool) pair; holding the shared view
      // keeps the pool alive even if a maintenance rebase publishes a new
      // one mid-query, and the matching store stays alive in the durable
      // store's retired list.
      std::shared_ptr<const StoreView> view =
          CurrentView(session->store_name_);
      mctdb::query::Executor exec(view->store, view->pool.get());
      // Pin the query to the committed state as of now: updates that land
      // mid-query stay invisible, so the result is a consistent snapshot
      // (and on read-only stores this is a no-op).
      exec.set_snapshot(view->store->visible_lsn());
      return exec.Execute(*task.plan);
    }();
    EndInFlight(task.trace_id);
    metrics_.completed.fetch_add(1, std::memory_order_relaxed);
    if (result.ok()) {
      metrics_.latency.Record(result->elapsed_seconds);
      if (task.plan->statically_empty) {
        metrics_.queries_pruned.fetch_add(1, std::memory_order_relaxed);
      }
      for (const std::string& code : task.plan->analysis_codes) {
        if (code == "QRY008" || code == "QRY009") {
          metrics_.plans_simplified.fetch_add(1, std::memory_order_relaxed);
          break;
        }
      }
      RecordCompletion(*session, *result);
      if (session->breaker_ != nullptr) session->breaker_->RecordSuccess();
    } else {
      metrics_.failed.fetch_add(1, std::memory_order_relaxed);
      // Only hard failures count against the breaker: corrupt pages and
      // internal faults. A caller mistake (InvalidArgument etc.) still
      // proves the store path works, so it records as success — which
      // also keeps a half-open probe from wedging on a soft error.
      if (session->breaker_ != nullptr) {
        if (result.status().IsDataLoss() || result.status().IsInternal()) {
          session->breaker_->RecordFailure();
        } else {
          session->breaker_->RecordSuccess();
        }
      }
    }
    task.promise.set_value(std::move(result));
  }

  bool more;
  {
    std::lock_guard<mctdb::OrderedMutex> lock(session->mu_);
    more = !session->tasks_.empty();
    if (!more) session->scheduled_ = false;
  }
  if (more) {
    std::shared_ptr<Session> next = session;
    bool ok = pool_->Submit(
        [this, next = std::move(next)] { RunNext(next); });
    MCTDB_CHECK_MSG(ok, "worker pool rejected a strand continuation");
  }
  FinishOne();
}

void QueryService::RecordCompletion(const Session& session,
                                    const ExecResult& result) {
  metrics_.page_hits.fetch_add(result.page_hits,
                               std::memory_order_relaxed);
  metrics_.page_misses.fetch_add(result.page_misses,
                                 std::memory_order_relaxed);
  metrics_.index_seeks.fetch_add(result.index_seeks,
                                 std::memory_order_relaxed);
  if (options_.slow_query_seconds <= 0 ||
      result.elapsed_seconds < options_.slow_query_seconds ||
      options_.slow_query_log_capacity == 0) {
    return;
  }
  metrics_.slow_queries.fetch_add(1, std::memory_order_relaxed);
  MCTDB_LOG(kWarn, "mctsvc", "slow query",
            {{"store", session.store_name_},
             {"query", result.trace.label},
             {"seconds", result.elapsed_seconds},
             {"page_hits", result.page_hits},
             {"page_misses", result.page_misses},
             {"join_pairs", result.join_pairs}});
  SlowQueryRecord record;
  record.store = session.store_name_;
  record.query = result.trace.label;
  record.trace_id = result.trace.trace_id;
  record.seconds = result.elapsed_seconds;
  record.page_hits = result.page_hits;
  record.page_misses = result.page_misses;
  record.join_pairs = result.join_pairs;
  record.stages = mctdb::obs::AggregateByStage(result.trace);
  record.trace = result.trace;
  std::lock_guard<mctdb::OrderedMutex> lock(slow_mu_);
  slow_log_.push_back(std::move(record));
  while (slow_log_.size() > options_.slow_query_log_capacity) {
    slow_log_.pop_front();
  }
}

void QueryService::RecordRejection(const std::string& store,
                                   const char* outcome, uint64_t trace_id,
                                   const std::string& query_label) {
  // Shed and rejected requests never reach RecordCompletion, so this is
  // their only way into the slow-query log. Saturation is exactly when the
  // log matters most; a log that goes quiet under overload would hide the
  // requests the operator is debugging. Threshold does not apply — the
  // request consumed ~zero execution time by design.
  if (options_.slow_query_log_capacity == 0 ||
      options_.slow_query_seconds <= 0) {
    return;
  }
  SlowQueryRecord record;
  record.store = store;
  record.query = query_label;
  record.trace_id = trace_id;
  record.outcome = outcome;
  record.trace.label = query_label;
  record.trace.trace_id = trace_id;
  std::lock_guard<mctdb::OrderedMutex> lock(slow_mu_);
  slow_log_.push_back(std::move(record));
  while (slow_log_.size() > options_.slow_query_log_capacity) {
    slow_log_.pop_front();
  }
}

void QueryService::BeginInFlight(uint64_t trace_id,
                                 const std::string& store,
                                 std::string query_label) {
  std::lock_guard<mctdb::OrderedMutex> lock(inflight_mu_);
  inflight_[trace_id] = InFlightEntry{store, std::move(query_label),
                                      std::chrono::steady_clock::now()};
}

void QueryService::EndInFlight(uint64_t trace_id) {
  std::lock_guard<mctdb::OrderedMutex> lock(inflight_mu_);
  inflight_.erase(trace_id);
}

std::vector<QueryService::SlowQueryRecord> QueryService::SlowQueries()
    const {
  std::lock_guard<mctdb::OrderedMutex> lock(slow_mu_);
  return {slow_log_.begin(), slow_log_.end()};
}

std::string QueryService::SlowQueriesJson() const {
  std::string out = "{\"slow_queries\":[";
  bool first = true;
  for (const SlowQueryRecord& r : SlowQueries()) {
    if (!first) out += ',';
    first = false;
    out += "{\"store\":\"" + mctdb::obs::JsonEscape(r.store) + "\"";
    out += ",\"query\":\"" + mctdb::obs::JsonEscape(r.query) + "\"";
    out += ",\"outcome\":\"" + mctdb::obs::JsonEscape(r.outcome) + "\"";
    char buf[160];
    std::snprintf(buf, sizeof(buf), ",\"trace_id\":%llu",
                  static_cast<unsigned long long>(r.trace_id));
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  ",\"seconds\":%.6f,\"page_hits\":%llu,"
                  "\"page_misses\":%llu,\"join_pairs\":%llu,\"stages\":[",
                  r.seconds, static_cast<unsigned long long>(r.page_hits),
                  static_cast<unsigned long long>(r.page_misses),
                  static_cast<unsigned long long>(r.join_pairs));
    out += buf;
    bool first_stage = true;
    for (size_t k = 0; k < mctdb::obs::kNumStageKinds; ++k) {
      const mctdb::obs::StageAgg& row = r.stages[k];
      if (row.calls == 0) continue;
      if (!first_stage) out += ',';
      first_stage = false;
      std::snprintf(
          buf, sizeof(buf),
          "{\"stage\":\"%s\",\"seconds\":%.6f,\"calls\":%llu}",
          mctdb::obs::ToString(static_cast<mctdb::obs::StageKind>(k)),
          row.seconds, static_cast<unsigned long long>(row.calls));
      out += buf;
    }
    out += "],\"trace\":" + mctdb::obs::SpanToJson(r.trace) + "}";
  }
  out += "]}";
  return out;
}

bool QueryService::Degraded() const {
  std::lock_guard<mctdb::OrderedMutex> lock(mu_);
  for (const auto& [name, entry] : stores_) {
    if (entry.breaker != nullptr &&
        entry.breaker->state() != CircuitBreaker::State::kClosed) {
      return true;
    }
    // A read-only store (WAL out of disk space) still serves reads, but
    // the service as a whole is degraded: probes should steer writes away.
    if (entry.durable != nullptr && entry.durable->read_only()) {
      return true;
    }
  }
  return false;
}

CircuitBreaker* QueryService::breaker(const std::string& store) const {
  std::lock_guard<mctdb::OrderedMutex> lock(mu_);
  auto it = stores_.find(store);
  return it == stores_.end() ? nullptr : it->second.breaker.get();
}

std::string QueryService::HealthJson() const {
  double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time_)
          .count();
  size_t num_stores;
  bool degraded = false;
  std::string breakers = "[";
  std::string readonly = "[";
  {
    std::lock_guard<mctdb::OrderedMutex> lock(mu_);
    num_stores = stores_.size();
    bool first = true;
    bool first_ro = true;
    for (const auto& [name, entry] : stores_) {
      if (entry.durable != nullptr && entry.durable->read_only()) {
        // Writes are paused (out of disk space) while reads keep serving
        // at the pinned visible LSN; the maintenance re-probe lifts this
        // once the disk drains.
        degraded = true;
        if (!first_ro) readonly += ',';
        first_ro = false;
        readonly += '"' + mctdb::obs::JsonEscape(name) + '"';
      }
      if (entry.breaker == nullptr) continue;
      CircuitBreaker::State s = entry.breaker->state();
      if (s != CircuitBreaker::State::kClosed) degraded = true;
      if (!first) breakers += ',';
      first = false;
      breakers += "{\"store\":\"" + mctdb::obs::JsonEscape(name) +
                  "\",\"state\":\"" + CircuitBreaker::StateName(s) + "\"";
      if (s == CircuitBreaker::State::kOpen) {
        breakers += mctdb::StringPrintf(
            ",\"retry_after_seconds\":%.1f",
            entry.breaker->RetryAfterSeconds());
      }
      breakers += '}';
    }
  }
  breakers += ']';
  readonly += ']';
  return mctdb::StringPrintf(
      "{\"status\":\"%s\",\"uptime_seconds\":%.3f,\"stores\":%zu,"
      "\"workers\":%zu,\"queue_depth\":%llu,\"breakers\":%s,"
      "\"readonly_stores\":%s}",
      degraded ? "degraded" : "ok", uptime, num_stores,
      options_.num_threads == 0 ? size_t{1} : options_.num_threads,
      static_cast<unsigned long long>(
          metrics_.queue_depth.load(std::memory_order_relaxed)),
      breakers.c_str(), readonly.c_str());
}

uint16_t QueryService::HttpPort() const {
  return (http_ != nullptr && http_->running()) ? http_->port() : 0;
}

void QueryService::AddHttpRoute(const std::string& path,
                                HttpEndpoint::Handler handler) {
  std::lock_guard<mctdb::OrderedMutex> lock(mu_);
  http_routes_[path] = std::move(handler);
}

std::string QueryService::StatuszJson() const {
  const auto now = std::chrono::steady_clock::now();
  double uptime =
      std::chrono::duration<double>(now - start_time_).count();
  std::string out = mctdb::StringPrintf(
      "{\"uptime_seconds\":%.3f,\"workers\":%zu,\"queue_depth\":%llu",
      uptime, options_.num_threads == 0 ? size_t{1} : options_.num_threads,
      static_cast<unsigned long long>(
          metrics_.queue_depth.load(std::memory_order_relaxed)));
  // Currently-executing requests, one row per busy worker.
  out += ",\"running\":[";
  {
    std::lock_guard<mctdb::OrderedMutex> lock(inflight_mu_);
    bool first = true;
    for (const auto& [id, entry] : inflight_) {
      if (!first) out += ',';
      first = false;
      out += mctdb::StringPrintf(
          "{\"trace_id\":%llu,\"store\":\"%s\",\"query\":\"%s\","
          "\"elapsed_seconds\":%.6f}",
          static_cast<unsigned long long>(id),
          mctdb::obs::JsonEscape(entry.store).c_str(),
          mctdb::obs::JsonEscape(entry.query).c_str(),
          std::chrono::duration<double>(now - entry.start).count());
    }
  }
  // queue_wait and lock_wait are the registry's own families.
  std::vector<MetricFamily> queue_wait, lock_wait;
  for (MetricFamily& f : metrics_.Families()) {
    if (f.name == "mctsvc_queue_wait_seconds") {
      queue_wait.push_back(std::move(f));
    } else if (f.name.rfind("mctsvc_lock_", 0) == 0) {
      lock_wait.push_back(std::move(f));
    }
  }
  out += "],\"queue_wait\":" + RenderJson(queue_wait);
  out += ",\"lock_wait\":" + RenderJson(lock_wait);
  out += ",\"stores\":[";
  {
    std::lock_guard<mctdb::OrderedMutex> lock(mu_);
    bool first = true;
    for (const auto& [name, entry] : stores_) {
      if (!first) out += ',';
      first = false;
      out += "{\"name\":\"" + mctdb::obs::JsonEscape(name) + "\"";
      if (entry.breaker != nullptr) {
        out += std::string(",\"breaker\":\"") +
               CircuitBreaker::StateName(entry.breaker->state()) + "\"";
      }
      out += mctdb::StringPrintf(
          ",\"plan_cache\":{\"size\":%zu,\"generation\":%llu}",
          entry.plan_cache->size(),
          static_cast<unsigned long long>(entry.plan_cache->generation()));
      out += mctdb::StringPrintf(
          ",\"pool\":{\"capacity_pages\":%zu,\"resident\":%zu}",
          entry.view->pool->capacity(), entry.view->pool->resident());
      if (entry.durable != nullptr) {
        // The in-flight WAL batch: records appended but not yet made
        // durable by a group-commit leader.
        out += mctdb::StringPrintf(
            ",\"wal\":{\"pending_records\":%llu,\"pending_bytes\":%llu,"
            "\"durable_lsn\":%llu,\"degraded\":%s,\"read_only\":%s}",
            static_cast<unsigned long long>(
                entry.durable->log().pending_records()),
            static_cast<unsigned long long>(
                entry.durable->log().pending_bytes()),
            static_cast<unsigned long long>(entry.durable->log().durable_lsn()),
            entry.durable->degraded() ? "true" : "false",
            entry.durable->read_only() ? "true" : "false");
        // Self-maintenance state: why checkpoints fired, how often writers
        // stalled for a rebalance, and the gap-pressure low-water mark.
        const uint32_t low_water = entry.durable->min_free_gap_low_water();
        out += mctdb::StringPrintf(
            ",\"maintenance\":{\"manual_checkpoints\":%llu,"
            "\"write_stalls\":%llu,\"saturation_events\":%llu,"
            "\"rebases\":%llu,\"min_free_gap_low_water\":%llu",
            static_cast<unsigned long long>(entry.manual_checkpoints),
            static_cast<unsigned long long>(entry.durable->write_stalls()),
            static_cast<unsigned long long>(
                entry.durable->saturation_events()),
            static_cast<unsigned long long>(entry.durable->rebases()),
            static_cast<unsigned long long>(low_water));
        if (entry.maintenance != nullptr) {
          const mctdb::wal::MaintenanceManager& mm = *entry.maintenance;
          out += mctdb::StringPrintf(
              ",\"running\":%s,\"reprobes\":%llu,\"by_reason\":{",
              mm.running() ? "true" : "false",
              static_cast<unsigned long long>(mm.reprobes()));
          for (size_t r = 0; r < mctdb::wal::kNumCheckpointReasons; ++r) {
            const auto reason = static_cast<mctdb::wal::CheckpointReason>(r);
            if (reason == mctdb::wal::CheckpointReason::kManual) continue;
            out += mctdb::StringPrintf(
                "%s\"%s\":%llu", r > 1 ? "," : "",
                mctdb::wal::ToString(reason),
                static_cast<unsigned long long>(mm.checkpoints(reason)));
          }
          out += '}';
          const std::string err = mm.last_error();
          if (!err.empty()) {
            out += ",\"last_error\":\"" + mctdb::obs::JsonEscape(err) + "\"";
          }
        }
        out += '}';
      }
      out += '}';
    }
  }
  out += "]}";
  return out;
}

std::string QueryService::FlightzJson() const {
  // A live, lossy snapshot of the flight-recorder rings; {"events":[]}
  // when the recorder is disabled.
  return flight::RenderJson(flight::Snapshot());
}

Result<QueryFuture> QueryService::Session::Submit(const QueryPlan& plan,
                                                  double timeout_seconds,
                                                  Priority priority) {
  return SubmitPlanned(plan, nullptr, timeout_seconds, priority,
                       /*pre_verified=*/false, mctdb::obs::MintTraceId());
}

Result<QueryFuture> QueryService::Session::SubmitQuery(
    const mctdb::query::AssociationQuery& query, double timeout_seconds,
    Priority priority) {
  QueryService* svc = service_;
  // Minted before the cache lookup so the hit/miss/invalidation events —
  // the first thing that happens to this request — already carry the id
  // `mctc trace --id` will filter on.
  const uint64_t trace_id = mctdb::obs::MintTraceId();
  // Resolve the current view: after a maintenance rebase the visible LSN
  // must come from the LIVE store, not a retired one whose LSN froze.
  std::shared_ptr<const StoreView> view = svc->CurrentView(store_name_);
  const mctdb::mct::MctSchema& schema = view->store->schema();
  const std::string key = PlanCache::Key(
      fingerprint_, schema.name(), mctdb::query::CanonicalQueryText(query));
  // The freshness pivot: a cached plan only hits while the store's visible
  // LSN still equals the LSN it was built at (and the generation matches).
  // RunNext pins the executor to visible_lsn() again at dequeue; since
  // LSNs only advance, a hit guarantees the plan is no newer than the
  // snapshot the query will run under.
  const mctdb::Lsn visible = view->store->visible_lsn();
  LookupOutcome outcome = LookupOutcome::kMiss;
  std::shared_ptr<const CachedPlan> cached =
      plan_cache_->Lookup(key, visible, &outcome);
  if (outcome == LookupOutcome::kHit) {
    svc->metrics_.plan_cache_hits.fetch_add(1, std::memory_order_relaxed);
    flight::Record(flight::Subsystem::kPlanCache,
                   flight::Site::kPlanCacheHit, trace_id, visible);
    // Verified when built; admission skips straight to the gates below.
    // The plan reference must be taken BEFORE the call: argument
    // evaluation order is unspecified, and `std::move(cached)` may
    // construct the holder parameter (nulling `cached`) before
    // `cached->plan` is read.
    const QueryPlan& hit_plan = cached->plan;
    return SubmitPlanned(hit_plan, std::move(cached), timeout_seconds,
                         priority, /*pre_verified=*/true, trace_id);
  }
  if (outcome == LookupOutcome::kInvalidated) {
    svc->metrics_.plan_cache_invalidations.fetch_add(
        1, std::memory_order_relaxed);
    flight::Record(flight::Subsystem::kPlanCache,
                   flight::Site::kPlanCacheInvalidated, trace_id, visible);
  } else {
    svc->metrics_.plan_cache_misses.fetch_add(1, std::memory_order_relaxed);
    flight::Record(flight::Subsystem::kPlanCache,
                   flight::Site::kPlanCacheMiss, trace_id, visible);
  }
  // Plan fresh against current state. The entry owns the query copy and
  // the plan compiled FROM that copy, so the pointer chain inside
  // QueryPlan stays valid for exactly as long as the entry lives.
  auto entry = std::make_shared<CachedPlan>();
  entry->query = query;
  MCTDB_ASSIGN_OR_RETURN(
      entry->plan, mctdb::query::PlanQuery(entry->query, schema));
  entry->built_lsn = visible;
  entry->generation = plan_cache_->generation();
  std::shared_ptr<const CachedPlan> frozen = std::move(entry);
  Result<QueryFuture> admitted = SubmitPlanned(
      frozen->plan, frozen, timeout_seconds, priority,
      /*pre_verified=*/false, trace_id);
  if (admitted.ok()) {
    // Only admitted (hence verified) plans enter the cache; a rejected
    // plan would otherwise hit later and skip the very gate it failed.
    plan_cache_->Insert(key, std::move(frozen));
  }
  return admitted;
}

Result<QueryFuture> QueryService::Session::SubmitPlanned(
    const QueryPlan& plan, std::shared_ptr<const CachedPlan> holder,
    double timeout_seconds, Priority priority, bool pre_verified,
    uint64_t trace_id) {
  QueryService* svc = service_;
  // Admission gate: statically verify the plan before it consumes an
  // admission slot or a worker, so a malformed plan can never crash (or
  // wedge) a worker thread.
  if (svc->options_.verify_plans && !pre_verified) {
    mctdb::analysis::DiagnosticReport report =
        mctdb::analysis::VerifyPlan(plan);
    if (report.has_errors()) {
      svc->metrics_.invalid_plans.fetch_add(1, std::memory_order_relaxed);
      return Status::InvalidArgument("plan verification failed:\n" +
                                     report.ToText());
    }
    // Second gate, query-level: a plan whose query the static analyzer
    // rejects outright (unknown types, malformed references, unrecoverable
    // associations — QRY001/002/006) never reaches a worker. Emptiness
    // findings pass through: a statically-empty query is valid and runs as
    // a zero-I/O short-circuit.
    if (plan.query != nullptr && plan.schema != nullptr) {
      mctdb::analysis::QueryAnalysis verdict =
          mctdb::analysis::AnalyzeQuery(*plan.query, *plan.schema);
      if (verdict.fatal()) {
        svc->metrics_.invalid_plans.fetch_add(1, std::memory_order_relaxed);
        return Status::InvalidArgument(
            "query rejected by static analysis:\n" +
            verdict.report.ToText());
      }
    }
  }
  Task task;
  task.plan = &plan;
  task.holder = std::move(holder);
  task.trace_id = trace_id;
  task.query_label =
      plan.query != nullptr ? plan.query->name : std::string("<plan>");
  QueryFuture future = task.promise.get_future();
  MCTDB_RETURN_IF_ERROR(Admit(std::move(task), timeout_seconds, priority));
  return future;
}

Result<UpdateFuture> QueryService::Session::SubmitUpdate(
    const mctdb::storage::UpdateOp& op, double timeout_seconds) {
  QueryService* svc = service_;
  if (durable_ == nullptr) {
    return Status::InvalidArgument(
        "store '" + store_name_ +
        "' is not WAL-backed; register it with AddDurableStore to accept "
        "updates");
  }
  if (svc->options_.verify_plans) {
    mctdb::analysis::DiagnosticReport report = mctdb::analysis::VerifyUpdate(
        durable_->store()->schema(), op);
    if (report.has_errors()) {
      svc->metrics_.invalid_plans.fetch_add(1, std::memory_order_relaxed);
      return Status::InvalidArgument("update verification failed:\n" +
                                     report.ToText());
    }
  }
  Task task;
  task.op = &op;
  task.trace_id = mctdb::obs::MintTraceId();
  task.query_label = mctdb::storage::UpdateKindName(op.kind);
  UpdateFuture future = task.update_promise.get_future();
  // Updates are Priority::kHigh by design: they are never load-shed, only
  // refused at the hard admission limit.
  MCTDB_RETURN_IF_ERROR(
      Admit(std::move(task), timeout_seconds, Priority::kHigh));
  return future;
}

Status QueryService::Session::Admit(Task task, double timeout_seconds,
                                    Priority priority) {
  QueryService* svc = service_;
  const uint64_t trace_id = task.trace_id;
  // An open breaker refuses before the request consumes an admission
  // slot: the store is known-broken, queueing the work only delays the
  // same failure and starves healthy stores of workers.
  if (breaker_ != nullptr && !breaker_->Allow()) {
    svc->metrics_.breaker_rejections.fetch_add(1,
                                               std::memory_order_relaxed);
    flight::Record(flight::Subsystem::kService,
                   flight::Site::kBreakerReject, trace_id, 0);
    svc->RecordRejection(store_name_, "breaker", trace_id, task.query_label);
    return Status::Unavailable(mctdb::StringPrintf(
        "store '%s' circuit breaker is %s; retry after %.1fs",
        store_name_.c_str(),
        CircuitBreaker::StateName(breaker_->state()),
        breaker_->RetryAfterSeconds()));
  }
  uint64_t in_flight =
      svc->pending_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (in_flight > svc->options_.max_queued) {
    svc->FinishOne();
    svc->metrics_.rejected.fetch_add(1, std::memory_order_relaxed);
    flight::Record(flight::Subsystem::kService, flight::Site::kReject,
                   trace_id, in_flight);
    svc->RecordRejection(store_name_, "rejected", trace_id,
                         task.query_label);
    // Debug level: overload rejections are high-frequency by nature and
    // already counted in mctsvc_requests_rejected_total.
    MCTDB_LOG(kDebug, "mctsvc", "admission rejected",
              {{"store", store_name_},
               {"in_flight", in_flight},
               {"max_queued", uint64_t(svc->options_.max_queued)}});
    return Status::ResourceExhausted(mctdb::StringPrintf(
        "admission queue full (max_queued=%zu)", svc->options_.max_queued));
  }
  // Load shedding: past the watermark for this request's priority, shed
  // it now — cheaper for everyone than queueing work that will crowd out
  // higher-priority requests. The hint assumes the backlog drains at the
  // observed mean latency across the worker pool.
  double watermark_fraction =
      priority == Priority::kLow      ? svc->options_.shed_low_fraction
      : priority == Priority::kNormal ? svc->options_.shed_normal_fraction
                                      : 1.0;
  if (priority != Priority::kHigh &&
      double(in_flight) >
          watermark_fraction * double(svc->options_.max_queued)) {
    svc->FinishOne();
    svc->metrics_.sheds.fetch_add(1, std::memory_order_relaxed);
    flight::Record(flight::Subsystem::kService, flight::Site::kShed,
                   trace_id, in_flight);
    svc->RecordRejection(store_name_, "shed", trace_id, task.query_label);
    uint64_t done = svc->metrics_.latency.count();
    double mean = done > 0
                      ? svc->metrics_.latency.total_seconds() / double(done)
                      : 0.001;
    size_t workers = svc->options_.num_threads == 0
                         ? size_t{1}
                         : svc->options_.num_threads;
    double hint = mean * double(in_flight) / double(workers);
    if (hint < 0.01) hint = 0.01;
    if (hint > 5.0) hint = 5.0;
    MCTDB_LOG(kDebug, "mctsvc", "request shed",
              {{"store", store_name_},
               {"in_flight", in_flight},
               {"priority", int64_t(priority)},
               {"retry_after_seconds", hint}});
    return Status::Unavailable(mctdb::StringPrintf(
        "overloaded (%llu in flight, shedding at %.0f%% of %zu); "
        "retry after %.2fs",
        static_cast<unsigned long long>(in_flight),
        watermark_fraction * 100.0, svc->options_.max_queued, hint));
  }
  svc->metrics_.submitted.fetch_add(1, std::memory_order_relaxed);
  if (task.op != nullptr) {
    svc->metrics_.updates_submitted.fetch_add(1, std::memory_order_relaxed);
  }
  svc->metrics_.queue_depth.store(in_flight, std::memory_order_relaxed);
  flight::Record(flight::Subsystem::kService, flight::Site::kAdmit,
                 trace_id, in_flight);

  double timeout = timeout_seconds > 0 ? timeout_seconds
                                       : svc->options_.default_timeout_seconds;
  task.enqueue_time = std::chrono::steady_clock::now();
  if (timeout > 0) {
    task.has_deadline = true;
    task.deadline = task.enqueue_time +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(timeout));
  }

  bool need_schedule;
  {
    std::lock_guard<mctdb::OrderedMutex> lock(mu_);
    tasks_.push_back(std::move(task));
    need_schedule = !scheduled_;
    if (need_schedule) scheduled_ = true;
  }
  if (need_schedule) {
    bool ok = svc->pool_->Submit(
        [svc, self = shared_from_this()] { svc->RunNext(self); });
    MCTDB_CHECK_MSG(ok, "submit on a shut-down service");
  }
  return Status::OK();
}

std::vector<MetricFamily> QueryService::Families() const {
  std::vector<MetricFamily> out = metrics_.Families();
  std::lock_guard<mctdb::OrderedMutex> lock(mu_);
  if (stores_.empty()) return out;
  // Per-store families, labelled {store="..."}: declared in /metrics
  // order, filled by one pass over the stores, then appended.
  MetricFamily hits{"mctsvc_pool_hits_total", "counter",
                    "Sharded buffer pool hits per store", {}};
  MetricFamily misses{"mctsvc_pool_misses_total", "counter",
                      "Sharded buffer pool misses per store", {}};
  MetricFamily resident{"mctsvc_pool_resident_pages", "gauge",
                        "Pages resident in the sharded pool per store", {}};
  MetricFamily checksum_failures{
      "mctsvc_pool_checksum_failures_total", "counter",
      "Page checksum verification failures per store", {}};
  MetricFamily retries{"mctsvc_pool_retries_total", "counter",
                       "Page-read retry attempts per store", {}};
  MetricFamily quarantined{
      "mctsvc_pool_quarantined_total", "counter",
      "Pool frames quarantined after failed loads per store", {}};
  MetricFamily breaker_state{
      "mctsvc_breaker_state", "gauge",
      "Circuit breaker state per store (0=closed, 1=half-open, 2=open)", {}};
  // Self-maintenance (DESIGN.md §17), durable stores only.
  MetricFamily checkpoints{"mctsvc_checkpoints_triggered_total", "counter",
                           "Checkpoints by trigger reason per store", {}};
  MetricFamily write_stalls{
      "mctsvc_write_stalls_total", "counter",
      "Writers paused behind an urgent rebalancing checkpoint per store",
      {}};
  MetricFamily rebalances{
      "mctsvc_gap_rebalances_total", "counter",
      "Live store rebases (interval-label rebalances) per store", {}};
  MetricFamily readonly{"mctsvc_store_readonly", "gauge",
                        "Store is read-only: WAL out of disk space, writes "
                        "paused, reads still serving (0/1)",
                        {}};
  MetricFamily capacity{"mctsvc_pool_capacity_pages", "gauge",
                        "Sharded buffer pool capacity in pages per store",
                        {}};
  MetricFamily shard_hits{"mctsvc_pool_shard_hits_total", "counter",
                          "Sharded buffer pool hits per store and shard",
                          {}};
  MetricFamily shard_misses{"mctsvc_pool_shard_misses_total", "counter",
                            "Sharded buffer pool misses per store and shard",
                            {}};
  MetricFamily shard_resident{"mctsvc_pool_shard_resident_pages", "gauge",
                              "Pages resident per store and shard", {}};
  for (const auto& [name, entry] : stores_) {
    const MetricSample::Labels store{{"store", name}};
    const mctdb::storage::ShardedBufferPool& pool = *entry.view->pool;
    const mctdb::storage::Pager& pager = *entry.view->store->pager();
    hits.Add(store, pool.hits());
    misses.Add(store, pool.misses());
    resident.Add(store, uint64_t{pool.resident()});
    checksum_failures.Add(store, pager.checksum_failures());
    retries.Add(store, pager.retries());
    quarantined.Add(store, pool.quarantined());
    if (entry.breaker != nullptr) {
      const CircuitBreaker::State s = entry.breaker->state();
      const uint64_t value = s == CircuitBreaker::State::kClosed     ? 0
                             : s == CircuitBreaker::State::kHalfOpen ? 1
                                                                     : 2;
      breaker_state.Add(store, value);
    }
    capacity.Add(store, uint64_t{pool.capacity()});
    const std::vector<mctdb::storage::ShardedBufferPool::ShardStats> shards =
        pool.PerShard();
    for (size_t i = 0; i < shards.size(); ++i) {
      MetricSample::Labels shard = store;
      shard.emplace_back("shard", std::to_string(i));
      shard_hits.Add(shard, shards[i].hits);
      shard_misses.Add(shard, shards[i].misses);
      shard_resident.Add(shard, uint64_t{shards[i].resident});
    }
    if (entry.durable == nullptr) continue;
    // Reason "manual" counts QueryService::Checkpoint calls; the other
    // reasons come from the store's background MaintenanceManager.
    checkpoints.Add({{"store", name}, {"reason", "manual"}},
                    entry.manual_checkpoints);
    if (entry.maintenance != nullptr) {
      for (size_t r = 0; r < mctdb::wal::kNumCheckpointReasons; ++r) {
        const auto reason = static_cast<mctdb::wal::CheckpointReason>(r);
        if (reason == mctdb::wal::CheckpointReason::kManual) continue;
        checkpoints.Add({{"store", name},
                         {"reason", mctdb::wal::ToString(reason)}},
                        entry.maintenance->checkpoints(reason));
      }
    }
    write_stalls.Add(store, entry.durable->write_stalls());
    rebalances.Add(store, entry.durable->rebases());
    readonly.Add(store, uint64_t{entry.durable->read_only()});
  }
  for (MetricFamily* f :
       {&hits, &misses, &resident, &checksum_failures, &retries,
        &quarantined, &breaker_state, &checkpoints, &write_stalls,
        &rebalances, &readonly, &capacity, &shard_hits, &shard_misses,
        &shard_resident}) {
    out.push_back(std::move(*f));
  }
  return out;
}

std::string QueryService::MetricsText() const {
  return RenderPrometheus(Families());
}

std::string QueryService::MetricsJson() const {
  return RenderJson(Families());
}

}  // namespace mctsvc
