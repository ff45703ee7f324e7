#include "service/query_service.h"

#include <utility>

#include "analysis/plan_verify.h"
#include "common/failpoint.h"
#include "query/planner.h"
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
  if (options_.num_threads == 0) options_.num_threads = 1;
  mctdb::ThreadPool::Options popts;
  popts.num_threads = options_.num_threads;
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

QueryService::StoreView::StoreView(
    std::shared_ptr<mctdb::storage::MctStore> pinned,
    const ServiceOptions& options, PoolTotals* pool_totals)
    : store(std::move(pinned)),
      pool(std::make_unique<mctdb::storage::ShardedBufferPool>(
          store->pager(), options.pool_pages, /*num_shards=*/0)),
      totals(pool_totals) {
  folded.shard_hits.resize(pool->num_shards());
  folded.shard_misses.resize(pool->num_shards());
}

void QueryService::PoolCounts::AddDelta(const PoolCounts& now,
                                        const PoolCounts& base) {
  hits += now.hits - base.hits;
  misses += now.misses - base.misses;
  checksum_failures += now.checksum_failures - base.checksum_failures;
  retries += now.retries - base.retries;
  quarantined += now.quarantined - base.quarantined;
  for (size_t i = 0; i < shard_hits.size(); ++i) {
    shard_hits[i] += now.shard_hits[i] - base.shard_hits[i];
    shard_misses[i] += now.shard_misses[i] - base.shard_misses[i];
  }
}

void QueryService::StoreView::FoldCounts() const {
  PoolCounts now;
  now.hits = pool->hits();
  now.misses = pool->misses();
  now.checksum_failures = store->pager()->checksum_failures();
  now.retries = store->pager()->retries();
  now.quarantined = pool->quarantined();
  for (const auto& shard : pool->PerShard()) {
    now.shard_hits.push_back(shard.hits);
    now.shard_misses.push_back(shard.misses);
  }
  std::lock_guard<std::mutex> lock(totals->mu);
  totals->counts.AddDelta(now, folded);
  folded = std::move(now);
}

Status QueryService::AddStore(const std::string& name,
                              mctdb::storage::MctStore* store) {
  if (store == nullptr) {
    return Status::InvalidArgument("AddStore: null store");
  }
  // Non-owning (aliasing an empty owner): the caller keeps the store
  // alive for the service's lifetime.
  return Register(name, std::shared_ptr<mctdb::storage::MctStore>(
                            std::shared_ptr<mctdb::storage::MctStore>(), store),
                  nullptr);
}

Status QueryService::AddDurableStore(const std::string& name,
                                     mctdb::wal::DurableStore* store) {
  if (store == nullptr) {
    return Status::InvalidArgument("AddDurableStore: null store");
  }
  MCTDB_RETURN_IF_ERROR(Register(name, store->PinStore(), store));
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

Status QueryService::Register(const std::string& name,
                              std::shared_ptr<mctdb::storage::MctStore> store,
                              mctdb::wal::DurableStore* durable) {
  std::lock_guard<mctdb::OrderedMutex> lock(mu_);
  auto [it, inserted] = stores_.emplace(name, StoreEntry{});
  if (!inserted) {
    return Status::AlreadyExists("store '" + name + "' already registered");
  }
  StoreEntry& entry = it->second;
  entry.totals = std::make_unique<PoolTotals>();
  entry.view =
      std::make_shared<StoreView>(std::move(store), options_, entry.totals.get());
  entry.totals->counts = entry.view->folded;  // zeros, one per shard
  entry.durable = durable;
  entry.plan_cache = std::make_unique<PlanCache>(kPlanCacheCapacity);
  if (options_.breaker_failure_threshold > 0) {
    CircuitBreaker::Options bopts;
    bopts.failure_threshold = options_.breaker_failure_threshold;
    bopts.open_seconds = options_.breaker_open_seconds;
    entry.breaker = std::make_unique<CircuitBreaker>(name, bopts);
  }
  if (durable != nullptr && options_.maintenance_enabled) {
    entry.maintenance = std::make_unique<mctdb::wal::MaintenanceManager>(
        durable, options_.maintenance,
        [this, name](const mctdb::wal::MaintenanceManager::Event& event) {
          OnMaintenanceCheckpoint(name, event);
        });
    entry.maintenance->Start();
  }
  MCTDB_LOG(kInfo, "mctsvc", "store registered",
            {{"store", name},
             {"pool_pages", uint64_t(options_.pool_pages)},
             {"shards", uint64_t(entry.view->pool->num_shards())}});
  return Status::OK();
}

Result<std::shared_ptr<QueryService::Session>> QueryService::OpenSession(
    const std::string& store) {
  std::lock_guard<mctdb::OrderedMutex> lock(mu_);
  auto it = stores_.find(store);
  if (it == stores_.end()) {
    return Status::NotFound("store '" + store + "' is not registered");
  }
  const StoreEntry& entry = it->second;
  return std::shared_ptr<Session>(
      new Session(this, store, &entry.view->store->schema(), entry.durable,
                  entry.breaker.get(), entry.plan_cache.get()));
}

std::shared_ptr<const QueryService::StoreView> QueryService::CurrentView(
    const std::string& store) {
  // Declared before the lock so it is released after mu_: dropping the
  // last reference frees the old pool and store.
  std::shared_ptr<const StoreView> replaced;
  std::lock_guard<mctdb::OrderedMutex> lock(mu_);
  auto it = stores_.find(store);
  if (it == stores_.end()) return nullptr;
  StoreEntry& entry = it->second;
  // Comparing addresses is sound: the view pins its store, so that
  // address cannot be reused while the view exists.
  if (entry.durable != nullptr &&
      entry.durable->store() != entry.view->store.get()) {
    // A kRebaseLive checkpoint swapped the live store: publish a fresh
    // (store, pool) pair. In-flight requests keep the old view alive
    // through their shared_ptr and finish against the old store.
    auto fresh = std::make_shared<StoreView>(entry.durable->PinStore(),
                                             options_, entry.totals.get());
    entry.view->FoldCounts();
    replaced = std::exchange(entry.view, std::move(fresh));
  }
  return entry.view;
}

void QueryService::OnMaintenanceCheckpoint(
    const std::string& store,
    const mctdb::wal::MaintenanceManager::Event& event) {
  PlanCache* cache = plan_cache(store);
  if (cache == nullptr) return;
  // Publish the rebased store's view now, not at the next request, so the
  // replaced view is usually dropped (and its store freed) on this thread.
  CurrentView(store);
  // Bump even on failure, like Checkpoint(): the generation counts
  // attempted checkpoints. The trace id is the maintenance cycle's (minted
  // by the manager's loop), so the bump correlates with the trigger and
  // the WAL events of the checkpoint.
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
  // Bump even on failure: the generation counts attempted checkpoints, and
  // the one re-plan per cached query it costs is negligible.
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
    // The request's (store, pool) pair. Released at the end of this block,
    // after the promise is set: if a rebase replaced the view meanwhile,
    // this may be its last reference, and no client should wait on the
    // free.
    std::shared_ptr<const StoreView> view;
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
      // Resolve the CURRENT (store, pool) pair; holding the view keeps
      // both alive even if a rebase publishes a new one mid-query.
      view = CurrentView(session->store_name_);
      mctdb::query::Executor exec(view->store.get(), view->pool.get());
      // Pin the query to the committed state as of now: updates that land
      // mid-query stay invisible, so the result is a consistent snapshot
      // (and on read-only stores this is a no-op).
      exec.set_snapshot(view->store->visible_lsn());
      return exec.Execute(task.plan->plan);
    }();
    EndInFlight(task.trace_id);
    metrics_.completed.fetch_add(1, std::memory_order_relaxed);
    if (result.ok()) {
      metrics_.latency.Record(result->elapsed_seconds);
      if (task.plan->plan.statically_empty) {
        metrics_.queries_pruned.fetch_add(1, std::memory_order_relaxed);
      }
      for (const std::string& code : task.plan->plan.analysis_codes) {
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
      result.elapsed_seconds < options_.slow_query_seconds) {
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
  while (slow_log_.size() > kSlowQueryLogCapacity) {
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
  if (options_.slow_query_seconds <= 0) return;
  SlowQueryRecord record;
  record.store = store;
  record.query = query_label;
  record.trace_id = trace_id;
  record.outcome = outcome;
  record.trace.label = query_label;
  record.trace.trace_id = trace_id;
  std::lock_guard<mctdb::OrderedMutex> lock(slow_mu_);
  slow_log_.push_back(std::move(record));
  while (slow_log_.size() > kSlowQueryLogCapacity) {
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
      degraded ? "degraded" : "ok", uptime, num_stores, options_.num_threads,
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
      uptime, options_.num_threads,
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

Result<QueryFuture> QueryService::Session::SubmitQuery(
    const mctdb::query::AssociationQuery& query, double timeout_seconds) {
  // Minted before the cache lookup so the hit/miss/invalidation events —
  // the first thing that happens to this request — already carry the id
  // `mctc trace --id` will filter on.
  const uint64_t trace_id = mctdb::obs::MintTraceId();
  MCTDB_ASSIGN_OR_RETURN(std::shared_ptr<const CachedPlan> plan,
                         CachedOrNewPlan(query, trace_id));
  Task task;
  task.plan = std::move(plan);
  task.trace_id = trace_id;
  task.query_label = query.name;
  QueryFuture future = task.promise.get_future();
  MCTDB_RETURN_IF_ERROR(Admit(std::move(task), timeout_seconds));
  return future;
}

Result<std::shared_ptr<const CachedPlan>>
QueryService::Session::CachedOrNewPlan(
    const mctdb::query::AssociationQuery& query, uint64_t trace_id) {
  ServiceMetrics& metrics = service_->metrics_;
  const std::string text = mctdb::query::CanonicalQueryText(query);
  LookupOutcome outcome = LookupOutcome::kMiss;
  std::shared_ptr<const CachedPlan> cached =
      plan_cache_->Lookup(text, &outcome);
  const uint64_t generation = plan_cache_->generation();
  switch (outcome) {
    case LookupOutcome::kHit:
      metrics.plan_cache_hits.fetch_add(1, std::memory_order_relaxed);
      flight::Record(flight::Subsystem::kPlanCache,
                     flight::Site::kPlanCacheHit, trace_id, generation);
      return cached;  // verified when it was built
    case LookupOutcome::kInvalidated:
      metrics.plan_cache_invalidations.fetch_add(1,
                                                 std::memory_order_relaxed);
      flight::Record(flight::Subsystem::kPlanCache,
                     flight::Site::kPlanCacheInvalidated, trace_id,
                     generation);
      break;
    case LookupOutcome::kMiss:
      metrics.plan_cache_misses.fetch_add(1, std::memory_order_relaxed);
      flight::Record(flight::Subsystem::kPlanCache,
                     flight::Site::kPlanCacheMiss, trace_id, generation);
      break;
  }
  // The entry owns the query copy and the plan compiled FROM that copy, so
  // the pointer chain inside QueryPlan stays valid for exactly as long as
  // the entry lives.
  auto entry = std::make_shared<CachedPlan>();
  entry->query = query;
  entry->generation = generation;
  // PlanQuery opens with the static analyzer's fatal gate on the caller's
  // query (unknown types, malformed references, unrecoverable
  // associations: QRY001/002/006); emptiness findings pass, since a
  // statically empty query is valid and runs as a zero-I/O short-circuit.
  // The verifier then checks the plan itself, so a malformed plan can
  // never crash or wedge a worker. Only a verified plan is cached.
  Result<QueryPlan> plan = mctdb::query::PlanQuery(entry->query, *schema_);
  if (!plan.ok()) {
    metrics.invalid_plans.fetch_add(1, std::memory_order_relaxed);
    return plan.status();
  }
  mctdb::analysis::DiagnosticReport report =
      mctdb::analysis::VerifyPlan(*plan);
  if (report.has_errors()) {
    metrics.invalid_plans.fetch_add(1, std::memory_order_relaxed);
    return Status::InvalidArgument("plan verification failed:\n" +
                                   report.ToText());
  }
  entry->plan = std::move(*plan);
  plan_cache_->Insert(text, entry);
  return std::shared_ptr<const CachedPlan>(std::move(entry));
}

Result<UpdateFuture> QueryService::Session::SubmitUpdate(
    const mctdb::storage::UpdateOp& op, double timeout_seconds) {
  if (durable_ == nullptr) {
    return Status::InvalidArgument(
        "store '" + store_name_ +
        "' is not WAL-backed; register it with AddDurableStore to accept "
        "updates");
  }
  mctdb::analysis::DiagnosticReport report =
      mctdb::analysis::VerifyUpdate(*schema_, op);
  if (report.has_errors()) {
    service_->metrics_.invalid_plans.fetch_add(1, std::memory_order_relaxed);
    return Status::InvalidArgument("update verification failed:\n" +
                                   report.ToText());
  }
  Task task;
  task.op = &op;
  task.trace_id = mctdb::obs::MintTraceId();
  task.query_label = mctdb::storage::UpdateKindName(op.kind);
  UpdateFuture future = task.update_promise.get_future();
  MCTDB_RETURN_IF_ERROR(Admit(std::move(task), timeout_seconds));
  return future;
}

Status QueryService::Session::Admit(Task task, double timeout_seconds) {
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
  // Load shedding: past the watermark a read is shed now — cheaper for
  // everyone than queueing work that will crowd out updates and requests
  // already admitted. Updates ride until the hard limit. The hint assumes
  // the backlog drains at the observed mean latency across the worker
  // pool.
  if (task.op == nullptr &&
      double(in_flight) > kShedFraction * double(svc->options_.max_queued)) {
    svc->FinishOne();
    svc->metrics_.sheds.fetch_add(1, std::memory_order_relaxed);
    flight::Record(flight::Subsystem::kService, flight::Site::kShed,
                   trace_id, in_flight);
    svc->RecordRejection(store_name_, "shed", trace_id, task.query_label);
    uint64_t done = svc->metrics_.latency.count();
    double mean = done > 0
                      ? svc->metrics_.latency.total_seconds() / double(done)
                      : 0.001;
    double hint =
        mean * double(in_flight) / double(svc->options_.num_threads);
    if (hint < 0.01) hint = 0.01;
    if (hint > 5.0) hint = 5.0;
    MCTDB_LOG(kDebug, "mctsvc", "request shed",
              {{"store", store_name_},
               {"in_flight", in_flight},
               {"retry_after_seconds", hint}});
    return Status::Unavailable(mctdb::StringPrintf(
        "overloaded (%llu in flight, shedding reads at %.0f%% of %zu); "
        "retry after %.2fs",
        static_cast<unsigned long long>(in_flight), kShedFraction * 100.0,
        svc->options_.max_queued, hint));
  }
  svc->metrics_.submitted.fetch_add(1, std::memory_order_relaxed);
  if (task.op != nullptr) {
    svc->metrics_.updates_submitted.fetch_add(1, std::memory_order_relaxed);
  }
  svc->metrics_.queue_depth.store(in_flight, std::memory_order_relaxed);
  flight::Record(flight::Subsystem::kService, flight::Site::kAdmit,
                 trace_id, in_flight);

  task.enqueue_time = std::chrono::steady_clock::now();
  if (timeout_seconds > 0) {
    task.has_deadline = true;
    task.deadline = task.enqueue_time +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(timeout_seconds));
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
    // Every view's counts, the current view's folded in just now.
    entry.view->FoldCounts();
    PoolCounts c;
    {
      std::lock_guard<std::mutex> totals_lock(entry.totals->mu);
      c = entry.totals->counts;
    }
    hits.Add(store, c.hits);
    misses.Add(store, c.misses);
    resident.Add(store, uint64_t{pool.resident()});
    checksum_failures.Add(store, c.checksum_failures);
    retries.Add(store, c.retries);
    quarantined.Add(store, c.quarantined);
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
      shard_hits.Add(shard, c.shard_hits[i]);
      shard_misses.Add(shard, c.shard_misses[i]);
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
