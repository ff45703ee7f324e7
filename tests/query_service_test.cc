#include "service/query_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/json.h"
#include "design/designer.h"
#include "instance/materialize.h"
#include "query/planner.h"
#include "wal/durable_store.h"
#include "workload/runner.h"
#include "workload/update_gen.h"
#include "workload/workload.h"

namespace mctsvc {
namespace {

using mctdb::query::ExecResult;
using mctdb::query::PlanQuery;
using mctdb::query::QueryPlan;

/// One small TPC-W store (EN schema) plus ready-made plans, shared across
/// all service tests in this file.
class QueryServiceTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    w_ = new mctdb::workload::Workload(mctdb::workload::TpcwWorkload(0.05));
    graph_ = new mctdb::er::ErGraph(w_->diagram);
    mctdb::design::Designer designer(*graph_);
    schema_ = new mctdb::mct::MctSchema(
        designer.Design(mctdb::design::Strategy::kEn));
    logical_ = new mctdb::instance::LogicalInstance(
        mctdb::instance::GenerateInstance(*graph_, w_->gen));
    store_ = mctdb::instance::Materialize(*logical_, *schema_).release();
  }
  static void TearDownTestSuite() {
    delete store_;
    store_ = nullptr;
    delete logical_;
    delete schema_;
    delete graph_;
    delete w_;
  }

  static QueryPlan Plan(const char* name) {
    const mctdb::query::AssociationQuery* q = w_->Find(name);
    EXPECT_NE(q, nullptr) << name;
    auto plan = PlanQuery(*q, *schema_);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return *plan;
  }

  static mctdb::workload::Workload* w_;
  static mctdb::er::ErGraph* graph_;
  static mctdb::mct::MctSchema* schema_;
  static mctdb::instance::LogicalInstance* logical_;
  static mctdb::storage::MctStore* store_;
};

mctdb::workload::Workload* QueryServiceTest::w_ = nullptr;
mctdb::er::ErGraph* QueryServiceTest::graph_ = nullptr;
mctdb::mct::MctSchema* QueryServiceTest::schema_ = nullptr;
mctdb::instance::LogicalInstance* QueryServiceTest::logical_ = nullptr;
mctdb::storage::MctStore* QueryServiceTest::store_ = nullptr;

TEST_F(QueryServiceTest, SessionResultMatchesDirectExecutor) {
  QueryPlan plan = Plan("Q1");
  ExecResult direct;
  {
    mctdb::query::Executor exec(store_);
    auto r = exec.Execute(plan);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    direct = *r;
  }

  QueryService service;
  ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
  auto session = service.OpenSession("tpcw");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto future = (*session)->Submit(plan);
  ASSERT_TRUE(future.ok()) << future.status().ToString();
  auto result = future->get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->logicals, direct.logicals);
  EXPECT_EQ(result->unique_count, direct.unique_count);
  EXPECT_EQ(result->raw_count, direct.raw_count);
  EXPECT_EQ(service.metrics().completed.load(), 1u);
}

TEST_F(QueryServiceTest, RegistryErrors) {
  QueryService service;
  EXPECT_TRUE(service.AddStore("tpcw", store_).ok());
  EXPECT_TRUE(service.AddStore("tpcw", store_).IsAlreadyExists());
  EXPECT_TRUE(service.AddStore("null", nullptr).IsInvalidArgument());
  EXPECT_TRUE(service.OpenSession("nope").status().IsNotFound());
}

TEST_F(QueryServiceTest, AdmissionOverflowReturnsResourceExhausted) {
  QueryPlan plan = Plan("Q1");
  ServiceOptions options;
  options.num_threads = 1;
  options.max_queued = 2;
  options.start_paused = true;  // park workers: staging is deterministic
  QueryService service(options);
  ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
  auto session = service.OpenSession("tpcw");
  ASSERT_TRUE(session.ok());

  // kHigh bypasses the shedding watermarks (max_queued=2 puts them below
  // the hard limit), so this test exercises the hard limit in isolation.
  auto f1 = (*session)->Submit(plan, 0.0, Priority::kHigh);
  auto f2 = (*session)->Submit(plan, 0.0, Priority::kHigh);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  auto f3 = (*session)->Submit(plan, 0.0, Priority::kHigh);
  ASSERT_FALSE(f3.ok());
  EXPECT_TRUE(f3.status().IsResourceExhausted()) << f3.status().ToString();
  EXPECT_EQ(service.metrics().rejected.load(), 1u);
  EXPECT_EQ(service.metrics().queue_depth.load(), 2u);

  service.Resume();
  EXPECT_TRUE(f1->get().ok());
  EXPECT_TRUE(f2->get().ok());
  service.Drain();
  EXPECT_EQ(service.metrics().completed.load(), 2u);
  EXPECT_EQ(service.metrics().queue_depth.load(), 0u);
  // The window freed up: the next submission is admitted again.
  auto f4 = (*session)->Submit(plan);
  ASSERT_TRUE(f4.ok());
  EXPECT_TRUE(f4->get().ok());
}

TEST_F(QueryServiceTest, ExpiredDeadlineCancelsCleanly) {
  QueryPlan plan = Plan("Q1");
  ServiceOptions options;
  options.num_threads = 1;
  options.start_paused = true;
  QueryService service(options);
  ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
  auto session = service.OpenSession("tpcw");
  ASSERT_TRUE(session.ok());

  // Stage a request whose deadline expires while the workers are parked.
  auto doomed = (*session)->Submit(plan, 1e-3);
  ASSERT_TRUE(doomed.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.Resume();
  auto result = doomed->get();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  service.Drain();
  EXPECT_EQ(service.metrics().deadline_exceeded.load(), 1u);
  // The cancelled request must not wedge the session strand.
  auto after = (*session)->Submit(plan);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->get().ok());
}

TEST_F(QueryServiceTest, MalformedPlanRejectedBeforeAdmission) {
  // The static verifier gates admission: a corrupted plan must come back
  // InvalidArgument without consuming an admission slot, a worker, or a
  // submitted-count tick.
  QueryPlan plan = Plan("Q1");
  ASSERT_FALSE(plan.edges.empty());
  plan.edges[0].segments.clear();  // the association path is now uncovered

  ServiceOptions options;
  options.start_paused = true;  // parked workers: execution can't race us
  QueryService service(options);
  ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
  auto session = service.OpenSession("tpcw");
  ASSERT_TRUE(session.ok());

  auto rejected = (*session)->Submit(plan);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument())
      << rejected.status().ToString();
  EXPECT_NE(rejected.status().message().find("PLN"), std::string::npos)
      << "rejection carries the diagnostics: "
      << rejected.status().message();
  EXPECT_EQ(service.metrics().invalid_plans.load(), 1u);
  EXPECT_EQ(service.metrics().submitted.load(), 0u);
  EXPECT_EQ(service.metrics().completed.load(), 0u);
  EXPECT_EQ(service.metrics().queue_depth.load(), 0u);

  // The unbound plan is caught too.
  QueryPlan unbound;
  auto also_rejected = (*session)->Submit(unbound);
  ASSERT_FALSE(also_rejected.ok());
  EXPECT_TRUE(also_rejected.status().IsInvalidArgument());
  EXPECT_EQ(service.metrics().invalid_plans.load(), 2u);

  // A healthy plan still goes through on the same session afterwards.
  service.Resume();
  QueryPlan good = Plan("Q1");
  auto admitted = (*session)->Submit(good);
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  EXPECT_TRUE(admitted->get().ok());
  EXPECT_EQ(service.metrics().submitted.load(), 1u);
}

TEST_F(QueryServiceTest, VerificationCanBeDisabled) {
  ServiceOptions options;
  options.verify_plans = false;
  QueryService service(options);
  ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
  auto session = service.OpenSession("tpcw");
  ASSERT_TRUE(session.ok());
  QueryPlan plan = Plan("Q1");
  auto f = (*session)->Submit(plan);
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(f->get().ok());
  EXPECT_EQ(service.metrics().invalid_plans.load(), 0u);
}

TEST_F(QueryServiceTest, OneShotExecuteAndUpdateRejection) {
  QueryPlan read = Plan("Q1");
  QueryPlan update = Plan("U1");
  ASSERT_TRUE(update.query->is_update());

  QueryService service;
  ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
  auto ok = service.Execute("tpcw", read);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_GT(ok->unique_count, 0u);

  auto rejected = service.Execute("tpcw", update);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument())
      << rejected.status().ToString();
}

// An update-form query on a WAL-backed store would rewrite the base in
// place: no WAL record, no LSN, and readers pinned at an older snapshot
// would see the new value. The executor refuses it before any operator
// runs, so the log, the snapshot and every copy stay as they were.
TEST_F(QueryServiceTest, UpdateQueryOnDurableStoreIsRefusedUntouched) {
  mctdb::design::Designer designer(*graph_);
  const mctdb::mct::MctSchema deep =
      designer.Design(mctdb::design::Strategy::kDeep);
  auto durable = mctdb::wal::DurableStore::Ephemeral(
      mctdb::instance::Materialize(*logical_, deep));
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  mctdb::storage::MctStore* store = (*durable)->store();
  auto plan = PlanQuery(*w_->Find("U3"), deep);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(plan->query->is_update());

  const mctdb::er::NodeId address = *w_->diagram.FindNode("address");
  const mctdb::Lsn s0 = (*durable)->snapshot();
  const uint64_t wal_bytes = (*durable)->wal_bytes();
  auto zips = [&] {
    std::vector<std::string> out;
    for (mctdb::storage::ElemId e = 0; e < store->num_elements(); ++e) {
      if (store->element(e).er_node != address) continue;
      const std::string* zip = store->AttrValue(e, "zip", s0);
      out.push_back(zip == nullptr ? "<none>" : *zip);
    }
    return out;
  };
  const std::vector<std::string> before = zips();
  ASSERT_FALSE(before.empty());

  QueryService service;
  ASSERT_TRUE(service.AddDurableStore("deep", durable->get()).ok());
  auto session = service.OpenSession("deep");
  ASSERT_TRUE(session.ok());
  auto future = (*session)->Submit(*plan);
  ASSERT_TRUE(future.ok()) << future.status().ToString();
  auto result = future->get();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
  service.Drain();

  EXPECT_EQ((*durable)->wal_bytes(), wal_bytes);
  EXPECT_EQ((*durable)->snapshot(), s0);
  EXPECT_EQ(zips(), before);
  EXPECT_EQ(store->update_page_writes(), 0u);
}

TEST_F(QueryServiceTest, ConcurrentSessionsAgreeOnReadResults) {
  QueryPlan plan = Plan("Q3");
  mctdb::query::Executor exec(store_);
  auto reference = exec.Execute(plan);
  ASSERT_TRUE(reference.ok());

  ServiceOptions options;
  options.num_threads = 4;
  QueryService service(options);
  ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
  constexpr size_t kSessions = 6;
  constexpr size_t kRequests = 5;
  std::vector<std::shared_ptr<QueryService::Session>> sessions;
  std::vector<QueryFuture> futures;
  for (size_t s = 0; s < kSessions; ++s) {
    auto session = service.OpenSession("tpcw");
    ASSERT_TRUE(session.ok());
    sessions.push_back(*session);
  }
  for (size_t i = 0; i < kRequests; ++i) {
    for (auto& session : sessions) {
      auto f = session->Submit(plan);
      ASSERT_TRUE(f.ok()) << f.status().ToString();
      futures.push_back(std::move(*f));
    }
  }
  for (auto& f : futures) {
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->logicals, reference->logicals);
  }
  service.Drain();
  EXPECT_EQ(service.metrics().completed.load(), kSessions * kRequests);
  EXPECT_EQ(service.metrics().latency.count(), kSessions * kRequests);
}

TEST_F(QueryServiceTest, ConcurrentSessionsChargePagesToTheirOwnQuery) {
  // The tentpole bug: the executor used to diff pool-GLOBAL counters, so
  // two sessions on the same store billed each other's I/O. With
  // executor-owned stats, a query's fetch count is a property of its plan
  // and data alone — concurrency must not change it.
  QueryPlan plan = Plan("Q3");

  // Solo baseline on a private service: the query's exact fetch count.
  uint64_t solo_fetches = 0;
  {
    QueryService solo;
    ASSERT_TRUE(solo.AddStore("tpcw", store_).ok());
    auto r = solo.Execute("tpcw", plan);
    ASSERT_TRUE(r.ok());
    solo_fetches = r->page_hits + r->page_misses;
    ASSERT_GT(solo_fetches, 0u);
  }

  ServiceOptions options;
  options.num_threads = 4;
  QueryService service(options);
  ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
  constexpr size_t kSessions = 6;
  constexpr size_t kRequests = 4;
  std::vector<std::shared_ptr<QueryService::Session>> sessions;
  std::vector<QueryFuture> futures;
  for (size_t s = 0; s < kSessions; ++s) {
    auto session = service.OpenSession("tpcw");
    ASSERT_TRUE(session.ok());
    sessions.push_back(*session);
  }
  for (size_t i = 0; i < kRequests; ++i) {
    for (auto& session : sessions) {
      auto f = session->Submit(plan);
      ASSERT_TRUE(f.ok());
      futures.push_back(std::move(*f));
    }
  }
  uint64_t sum_hits = 0;
  uint64_t sum_misses = 0;
  for (auto& f : futures) {
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // Each racing query reports exactly its own fetches — not a diff of
    // whatever the other 23 requests did to the shared pool meanwhile.
    EXPECT_EQ(r->page_hits + r->page_misses, solo_fetches);
    sum_hits += r->page_hits;
    sum_misses += r->page_misses;
  }
  service.Drain();
  // Conservation: every pool fetch is charged to exactly one query, so
  // the per-query counts sum to the shared pool's global counters.
  auto* pool = sessions[0]->pool();
  EXPECT_EQ(sum_hits, pool->hits());
  EXPECT_EQ(sum_misses, pool->misses());
  EXPECT_EQ(service.metrics().page_hits.load(), sum_hits);
  EXPECT_EQ(service.metrics().page_misses.load(), sum_misses);
}

TEST_F(QueryServiceTest, SlowQueryLogRecordsStageBreakdown) {
  ServiceOptions options;
  options.slow_query_seconds = 1e-12;  // everything is "slow"
  options.slow_query_log_capacity = 2;
  QueryService service(options);
  ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
  QueryPlan plan = Plan("Q1");
  auto r = service.Execute("tpcw", plan);
  ASSERT_TRUE(r.ok());

  auto slow = service.SlowQueries();
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0].store, "tpcw");
  EXPECT_EQ(slow[0].query, "Q1");
  EXPECT_GT(slow[0].seconds, 0.0);
  EXPECT_EQ(slow[0].page_hits, r->page_hits);
  EXPECT_EQ(slow[0].page_misses, r->page_misses);
  EXPECT_EQ(slow[0].join_pairs, r->join_pairs);
  EXPECT_GT(slow[0].stages[size_t(mctdb::obs::StageKind::kTagScan)].calls,
            0u);
  EXPECT_EQ(service.metrics().slow_queries.load(), 1u);
  // The record carries the request's span tree, and /slowlog renders it.
  EXPECT_EQ(slow[0].trace.trace_id, r->trace.trace_id);
  EXPECT_EQ(slow[0].trace.children.size(), r->trace.children.size());
  auto slowlog = mctdb::json::Parse(service.SlowQueriesJson());
  ASSERT_TRUE(slowlog.ok()) << slowlog.status().ToString();
  const mctdb::json::Value& record =
      slowlog->Find("slow_queries")->array().at(0);
  ASSERT_NE(record.Find("trace"), nullptr);
  EXPECT_EQ(record.Find("trace")->NumberOr("trace_id", 0),
            double(r->trace.trace_id));
  EXPECT_EQ(record.NumberOr("trace_id", 0), double(r->trace.trace_id));

  // The ring is bounded: a third entry evicts the oldest.
  QueryPlan q3 = Plan("Q3");
  ASSERT_TRUE(service.Execute("tpcw", q3).ok());
  ASSERT_TRUE(service.Execute("tpcw", plan).ok());
  slow = service.SlowQueries();
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].query, "Q3");
  EXPECT_EQ(slow[1].query, "Q1");
  EXPECT_EQ(service.metrics().slow_queries.load(), 3u);
}

TEST_F(QueryServiceTest, SlowQueryLogDisabledByDefault) {
  QueryService service;
  ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
  QueryPlan plan = Plan("Q1");
  ASSERT_TRUE(service.Execute("tpcw", plan).ok());
  EXPECT_TRUE(service.SlowQueries().empty());
  EXPECT_EQ(service.metrics().slow_queries.load(), 0u);
  // Attribution counters still accumulate even with the log off.
  EXPECT_GT(service.metrics().page_hits.load() +
                service.metrics().page_misses.load(),
            0u);
}

TEST_F(QueryServiceTest, MetricsTextExportsPrometheusSeries) {
  QueryPlan plan = Plan("Q1");
  QueryService service;
  ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
  ASSERT_TRUE(service.Execute("tpcw", plan).ok());
  // Execute() resolves before the worker leaves RunNext; the queue-depth
  // decrement races with us unless we drain first.
  service.Drain();
  std::string text = service.MetricsText();
  for (const char* series :
       {"mctsvc_requests_submitted_total 1",
        "mctsvc_requests_completed_total 1", "mctsvc_queue_depth 0",
        "# TYPE mctsvc_request_latency_seconds histogram",
        "mctsvc_request_latency_seconds_bucket{le=\"+Inf\"} 1",
        "mctsvc_request_latency_seconds_count 1",
        "mctsvc_pool_hits_total{store=\"tpcw\"}",
        "mctsvc_pool_misses_total{store=\"tpcw\"}",
        "mctsvc_pool_resident_pages{store=\"tpcw\"}"}) {
    EXPECT_NE(text.find(series), std::string::npos)
        << series << " missing from:\n" << text;
  }
}

TEST_F(QueryServiceTest, MetricsJsonExportsServiceAndPoolStats) {
  QueryPlan plan = Plan("Q1");
  QueryService service;
  ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
  ASSERT_TRUE(service.Execute("tpcw", plan).ok());
  std::string json = service.MetricsJson();
  ASSERT_TRUE(mctdb::json::Parse(json).ok()) << json;
  for (const char* key :
       {"\"mctsvc_requests_submitted_total\"",
        "\"mctsvc_requests_completed_total\"",
        "\"mctsvc_requests_rejected_total\"",
        "\"mctsvc_deadline_exceeded_total\"",
        "\"mctsvc_request_latency_seconds\"", "\"store\":\"tpcw\"",
        "\"mctsvc_pool_hits_total\"", "\"mctsvc_pool_misses_total\"",
        "\"mctsvc_pool_capacity_pages\"", "\"mctsvc_pool_shard_hits_total\"",
        "\"mctsvc_pool_shard_misses_total\"",
        "{\"store\":\"tpcw\",\"shard\":\"0\"}"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

TEST_F(QueryServiceTest, LowPriorityIsShedBeforeNormal) {
  QueryPlan plan = Plan("Q1");
  ServiceOptions options;
  options.num_threads = 1;
  options.max_queued = 10;          // watermarks: kLow at 7.5, kNormal at 9
  options.start_paused = true;      // park workers: staging is deterministic
  QueryService service(options);
  ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
  auto session = service.OpenSession("tpcw");
  ASSERT_TRUE(session.ok());

  std::vector<QueryFuture> admitted;
  for (int i = 0; i < 8; ++i) {
    auto f = (*session)->Submit(plan, 0.0, Priority::kHigh);
    ASSERT_TRUE(f.ok()) << i;
    admitted.push_back(std::move(*f));
  }
  // 9 in flight would cross the kLow watermark (7.5) but not kNormal (9).
  auto low = (*session)->Submit(plan, 0.0, Priority::kLow);
  ASSERT_FALSE(low.ok());
  EXPECT_TRUE(low.status().IsUnavailable()) << low.status().ToString();
  EXPECT_NE(low.status().message().find("retry after"), std::string::npos)
      << low.status().ToString();
  auto normal = (*session)->Submit(plan, 0.0, Priority::kNormal);
  ASSERT_TRUE(normal.ok()) << normal.status().ToString();
  admitted.push_back(std::move(*normal));
  // 10 in flight crosses the kNormal watermark; kHigh still fits under
  // the hard limit.
  auto normal2 = (*session)->Submit(plan, 0.0, Priority::kNormal);
  ASSERT_FALSE(normal2.ok());
  EXPECT_TRUE(normal2.status().IsUnavailable());
  auto high = (*session)->Submit(plan, 0.0, Priority::kHigh);
  ASSERT_TRUE(high.ok()) << high.status().ToString();
  admitted.push_back(std::move(*high));

  EXPECT_EQ(service.metrics().sheds.load(), 2u);
  EXPECT_EQ(service.metrics().rejected.load(), 0u);

  service.Resume();
  for (auto& f : admitted) EXPECT_TRUE(f.get().ok());
  service.Drain();
  // A shed is advisory backpressure, not a failure of the service path.
  EXPECT_EQ(service.metrics().failed.load(), 0u);
}

TEST_F(QueryServiceTest, BreakerOpensAfterConsecutiveHardFailures) {
  QueryPlan plan = Plan("Q1");
  ServiceOptions options;
  options.num_threads = 1;
  options.breaker_failure_threshold = 3;
  options.breaker_open_seconds = 60.0;  // stays open for the whole test
  QueryService service(options);
  ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
  auto session = service.OpenSession("tpcw");
  ASSERT_TRUE(session.ok());

  {
    mctdb::failpoint::FailpointGuard guard("service.exec", "err");
    for (int i = 0; i < 3; ++i) {
      auto f = (*session)->Submit(plan);
      ASSERT_TRUE(f.ok()) << i;
      auto result = f->get();
      ASSERT_FALSE(result.ok()) << i;
      EXPECT_TRUE(result.status().IsInternal()) << result.status().ToString();
    }
  }

  CircuitBreaker* breaker = service.breaker("tpcw");
  ASSERT_NE(breaker, nullptr);
  EXPECT_EQ(breaker->state(), CircuitBreaker::State::kOpen);
  EXPECT_TRUE(service.Degraded());

  // An open breaker refuses before the admission queue is touched.
  auto refused = (*session)->Submit(plan);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsUnavailable()) << refused.status().ToString();
  EXPECT_NE(refused.status().message().find("circuit breaker"),
            std::string::npos)
      << refused.status().ToString();
  EXPECT_EQ(service.metrics().breaker_rejections.load(), 1u);
  EXPECT_EQ(service.metrics().rejected.load(), 0u);

  std::string health = service.HealthJson();
  EXPECT_NE(health.find("\"status\":\"degraded\""), std::string::npos)
      << health;
  EXPECT_NE(health.find("\"state\":\"open\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"retry_after_seconds\""), std::string::npos)
      << health;

  std::string text = service.MetricsText();
  EXPECT_NE(text.find("mctsvc_breaker_state{store=\"tpcw\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("mctsvc_breaker_rejections_total 1"),
            std::string::npos)
      << text;
}

TEST_F(QueryServiceTest, BreakerHalfOpenProbeRecoversTheStore) {
  QueryPlan plan = Plan("Q1");
  ServiceOptions options;
  options.num_threads = 1;
  options.breaker_failure_threshold = 2;
  options.breaker_open_seconds = 0.05;
  QueryService service(options);
  ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
  auto session = service.OpenSession("tpcw");
  ASSERT_TRUE(session.ok());

  {
    mctdb::failpoint::FailpointGuard guard("service.exec", "err");
    for (int i = 0; i < 2; ++i) {
      auto f = (*session)->Submit(plan);
      ASSERT_TRUE(f.ok());
      EXPECT_FALSE(f->get().ok());
    }
  }
  CircuitBreaker* breaker = service.breaker("tpcw");
  ASSERT_NE(breaker, nullptr);
  ASSERT_EQ(breaker->state(), CircuitBreaker::State::kOpen);

  // After the open window the next submission rides through as the
  // half-open probe; the fault is gone, so its success closes the breaker.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  auto probe = (*session)->Submit(plan);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_TRUE(probe->get().ok());
  EXPECT_EQ(breaker->state(), CircuitBreaker::State::kClosed);
  EXPECT_FALSE(service.Degraded());
  EXPECT_NE(service.HealthJson().find("\"status\":\"ok\""),
            std::string::npos);
}

TEST_F(QueryServiceTest, PastDeadlineAtDequeueIsNeitherShedNorBreakerFood) {
  // A request whose deadline lapses while queued says nothing about load
  // (not a shed) or store health (must not trip the breaker) — it only
  // counts as DeadlineExceeded.
  QueryPlan plan = Plan("Q1");
  ServiceOptions options;
  options.num_threads = 1;
  options.start_paused = true;
  options.breaker_failure_threshold = 2;  // 3 lapses would trip it if counted
  QueryService service(options);
  ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
  auto session = service.OpenSession("tpcw");
  ASSERT_TRUE(session.ok());

  std::vector<QueryFuture> doomed;
  for (int i = 0; i < 3; ++i) {
    auto f = (*session)->Submit(plan, 1e-3);
    ASSERT_TRUE(f.ok()) << i;
    doomed.push_back(std::move(*f));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.Resume();
  for (auto& f : doomed) {
    auto result = f.get();
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsDeadlineExceeded())
        << result.status().ToString();
  }
  service.Drain();

  EXPECT_EQ(service.metrics().deadline_exceeded.load(), 3u);
  EXPECT_EQ(service.metrics().sheds.load(), 0u);
  CircuitBreaker* breaker = service.breaker("tpcw");
  ASSERT_NE(breaker, nullptr);
  EXPECT_EQ(breaker->state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker->consecutive_failures(), 0);
  // The store still serves fine afterwards.
  auto after = (*session)->Submit(plan);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->get().ok());
}

TEST_F(QueryServiceTest, UpdateAdmissionRefusesAtHardLimitAndOpenBreaker) {
  auto durable = mctdb::wal::DurableStore::Ephemeral(
      mctdb::instance::Materialize(*logical_, *schema_));
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  std::vector<mctdb::mct::MctSchema> schemas{*schema_};
  mctdb::workload::UpdateGenOptions gen;
  gen.num_ops = 8;
  auto ops = mctdb::workload::GenerateUpdateOps(schemas, *logical_, gen);
  ASSERT_GE(ops.size(), 4u);

  ServiceOptions options;
  options.num_threads = 1;
  options.max_queued = 2;
  options.start_paused = true;  // the admitted updates stay queued
  options.breaker_failure_threshold = 1;
  options.slow_query_seconds = 1000.0;  // log admission refusals
  QueryService service(options);
  ASSERT_TRUE(service.AddDurableStore("tpcw", durable->get()).ok());
  auto session = service.OpenSession("tpcw");
  ASSERT_TRUE(session.ok());

  auto u1 = (*session)->SubmitUpdate(ops[0]);
  ASSERT_TRUE(u1.ok()) << u1.status().ToString();
  auto u2 = (*session)->SubmitUpdate(ops[1]);
  ASSERT_TRUE(u2.ok()) << u2.status().ToString();
  // Updates ride at kHigh: past every shedding watermark, only the hard
  // limit refuses them.
  auto u3 = (*session)->SubmitUpdate(ops[2]);
  ASSERT_FALSE(u3.ok());
  EXPECT_TRUE(u3.status().IsResourceExhausted()) << u3.status().ToString();
  const ServiceMetrics& m = service.metrics();
  EXPECT_EQ(m.rejected.load(), 1u);
  EXPECT_EQ(m.sheds.load(), 0u);
  EXPECT_EQ(m.updates_submitted.load(), 2u);
  auto log = service.SlowQueries();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].outcome, "rejected");

  // An open breaker refuses before the admission queue is touched.
  CircuitBreaker* breaker = service.breaker("tpcw");
  ASSERT_NE(breaker, nullptr);
  breaker->RecordFailure();
  ASSERT_EQ(breaker->state(), CircuitBreaker::State::kOpen);
  auto u4 = (*session)->SubmitUpdate(ops[3]);
  ASSERT_FALSE(u4.ok());
  EXPECT_TRUE(u4.status().IsUnavailable()) << u4.status().ToString();
  EXPECT_EQ(m.breaker_rejections.load(), 1u);
  EXPECT_EQ(m.rejected.load(), 1u);
  EXPECT_EQ(m.updates_submitted.load(), 2u);
  log = service.SlowQueries();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1].outcome, "breaker");

  // The breaker gates admission only: the two queued updates still run.
  service.Resume();
  EXPECT_TRUE(u1->get().ok());
  EXPECT_TRUE(u2->get().ok());
  service.Drain();
}

TEST_F(QueryServiceTest, MetricsTextExportsHardeningSeries) {
  QueryPlan plan = Plan("Q1");
  QueryService service;  // default options: breaker enabled (threshold 5)
  ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
  ASSERT_TRUE(service.Execute("tpcw", plan).ok());
  service.Drain();
  std::string text = service.MetricsText();
  for (const char* series :
       {"mctsvc_sheds_total 0", "mctsvc_breaker_rejections_total 0",
        "mctsvc_breaker_state{store=\"tpcw\"} 0",
        "mctsvc_pool_checksum_failures_total{store=\"tpcw\"} 0",
        "mctsvc_pool_retries_total{store=\"tpcw\"} 0",
        "mctsvc_pool_quarantined_total{store=\"tpcw\"} 0"}) {
    EXPECT_NE(text.find(series), std::string::npos)
        << series << " missing from:\n" << text;
  }
  std::string json = service.MetricsJson();
  for (const char* key :
       {"\"mctsvc_sheds_total\"", "\"mctsvc_breaker_rejections_total\"",
        "\"mctsvc_breaker_state\"", "\"mctsvc_pool_checksum_failures_total\"",
        "\"mctsvc_pool_retries_total\"", "\"mctsvc_pool_quarantined_total\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
  // Breaker state is the same 0/1/2 gauge in both exports.
  const size_t breaker = json.find("\"name\":\"mctsvc_breaker_state\"");
  ASSERT_NE(breaker, std::string::npos) << json;
  EXPECT_EQ(json.find("\"samples\":[{\"labels\":{\"store\":\"tpcw\"},"
                      "\"value\":0}]",
                      breaker),
            json.find("\"samples\":", breaker))
      << json;
}

TEST_F(QueryServiceTest, StaticallyEmptyQueryIsPrunedToZeroIo) {
  // A statically-empty query (predicate on an undeclared attribute) is
  // valid — it executes through the service as a zero-I/O empty result
  // and ticks mctsvc_queries_pruned_total, never InvalidArgument.
  mctdb::query::QueryBuilder b("Ebogus", w_->diagram);
  int r = b.Root("country");
  b.Where(r, "population", "big");
  mctdb::query::AssociationQuery q = b.Build();
  auto plan = PlanQuery(q, *schema_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(plan->statically_empty) << "QRY007 must mark the plan";

  QueryService service;
  ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
  auto session = service.OpenSession("tpcw");
  ASSERT_TRUE(session.ok());
  auto future = (*session)->Submit(*plan);
  ASSERT_TRUE(future.ok()) << future.status().ToString();
  auto result = future->get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->logicals.empty());
  // The acceptance bar: the pruned query fetched zero pages.
  EXPECT_EQ(result->page_hits + result->page_misses, 0u);
  service.Drain();
  EXPECT_EQ(service.metrics().queries_pruned.load(), 1u);
  EXPECT_EQ(service.metrics().completed.load(), 1u);
  EXPECT_EQ(service.metrics().invalid_plans.load(), 0u);
  EXPECT_NE(service.MetricsText().find("mctsvc_queries_pruned_total 1"),
            std::string::npos);
}

TEST_F(QueryServiceTest, SimplifiableQueryTicksPlansSimplified) {
  // Two branches carrying the identical predicate: QRY008 rides along on
  // the plan's analysis codes and the worker counts the simplification.
  mctdb::query::QueryBuilder b("Edup", w_->diagram);
  int r = b.Root("country");
  int a1 = b.Via(r, {"in", "address"});
  int a2 = b.Via(r, {"in", "address"});
  b.Where(a1, "city", "x").Where(a2, "city", "x");
  b.Output(a2);
  mctdb::query::AssociationQuery q = b.Build();
  auto plan = PlanQuery(q, *schema_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_FALSE(plan->statically_empty);
  ASSERT_NE(std::find(plan->analysis_codes.begin(),
                      plan->analysis_codes.end(), "QRY008"),
            plan->analysis_codes.end());

  QueryService service;
  ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
  auto r1 = service.Execute("tpcw", *plan);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  service.Drain();
  EXPECT_EQ(service.metrics().plans_simplified.load(), 1u);
  EXPECT_NE(service.MetricsText().find("mctsvc_plans_simplified_total 1"),
            std::string::npos);
}

TEST_F(QueryServiceTest, FatalAnalysisVerdictRejectedAtAdmission) {
  // A plan that passes the structural verifier but whose QUERY the static
  // analyzer rejects (QRY002: association path endpoints disagree with
  // the pattern) must bounce at admission with the QRY diagnostics.
  QueryPlan plan = Plan("Q1");
  mctdb::query::AssociationQuery bad = *plan.query;
  ASSERT_GE(bad.nodes.size(), 2u);
  // Retarget a non-root node's type so path.back() != er_node; the plan's
  // segments (built from the path) still verify.
  mctdb::er::NodeId other = *w_->diagram.FindNode(
      bad.nodes[1].er_node == *w_->diagram.FindNode("country") ? "item"
                                                               : "country");
  ASSERT_NE(bad.nodes[1].er_node, other);
  bad.nodes[1].er_node = other;
  plan.query = &bad;

  QueryService service;
  ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
  auto session = service.OpenSession("tpcw");
  ASSERT_TRUE(session.ok());
  auto rejected = (*session)->Submit(plan);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument())
      << rejected.status().ToString();
  EXPECT_NE(rejected.status().message().find("QRY002"), std::string::npos)
      << rejected.status().ToString();
  EXPECT_EQ(service.metrics().invalid_plans.load(), 1u);
  EXPECT_EQ(service.metrics().submitted.load(), 0u);
}

TEST_F(QueryServiceTest, SubmitQueryCachesPlansAndCountsOutcomes) {
  QueryService service;
  ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
  auto session = service.OpenSession("tpcw");
  ASSERT_TRUE(session.ok());
  const mctdb::query::AssociationQuery* q = w_->Find("Q1");
  ASSERT_NE(q, nullptr);

  auto f1 = (*session)->SubmitQuery(*q);
  ASSERT_TRUE(f1.ok()) << f1.status().ToString();
  auto r1 = f1->get();
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(service.metrics().plan_cache_misses.load(), 1u);
  EXPECT_EQ(service.metrics().plan_cache_hits.load(), 0u);

  // A read-only store never moves its visible LSN, so the second
  // identical submission is a pure cache hit — and byte-identical.
  auto f2 = (*session)->SubmitQuery(*q);
  ASSERT_TRUE(f2.ok()) << f2.status().ToString();
  auto r2 = f2->get();
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->logicals, r1->logicals);
  EXPECT_EQ(r2->raw_count, r1->raw_count);
  EXPECT_EQ(service.metrics().plan_cache_hits.load(), 1u);
  EXPECT_EQ(service.metrics().plan_cache_misses.load(), 1u);

  // A different query is its own key.
  const mctdb::query::AssociationQuery* q3 = w_->Find("Q3");
  ASSERT_NE(q3, nullptr);
  auto f3 = (*session)->SubmitQuery(*q3);
  ASSERT_TRUE(f3.ok());
  EXPECT_TRUE(f3->get().ok());
  EXPECT_EQ(service.metrics().plan_cache_misses.load(), 2u);

  PlanCache* cache = service.plan_cache("tpcw");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->size(), 2u);
  EXPECT_EQ(service.plan_cache("nope"), nullptr);

  service.Drain();
  std::string text = service.MetricsText();
  for (const char* series :
       {"mctsvc_plan_cache_hits_total 1", "mctsvc_plan_cache_misses_total 2",
        "mctsvc_plan_cache_invalidations_total 0",
        "mctsvc_index_seeks_total"}) {
    EXPECT_NE(text.find(series), std::string::npos)
        << series << " missing from:\n" << text;
  }
}

TEST_F(QueryServiceTest, PlanCacheStalenessGuardSeesCommittedInsert) {
  // The bug class this pins: a cached plan serving a result that predates
  // a committed update. Sequence: query (miss, cached) -> identical query
  // (hit) -> U1 insert commits -> identical query again. The third call
  // MUST invalidate, re-plan at the new visible LSN, and return the
  // freshly inserted row.
  auto durable = mctdb::wal::DurableStore::Ephemeral(
      mctdb::instance::Materialize(*logical_, *schema_));
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();

  // A deterministic U1 insert from the workload generator.
  std::vector<mctdb::mct::MctSchema> schemas{*schema_};
  mctdb::workload::UpdateGenOptions gen;
  gen.num_ops = 8;
  auto ops = mctdb::workload::GenerateUpdateOps(schemas, *logical_, gen);
  const mctdb::storage::UpdateOp* insert = nullptr;
  for (const auto& op : ops) {
    if (op.kind == mctdb::storage::UpdateOp::Kind::kInsertSubtree) {
      insert = &op;
      break;
    }
  }
  ASSERT_NE(insert, nullptr) << "the op stream always contains inserts";
  // U1 inserts a relationship instance with one new child entity under
  // it; "all instances of that entity type" is a query whose answer the
  // insert visibly changes.
  ASSERT_EQ(insert->subtree.children.size(), 1u);
  const mctdb::storage::SubtreeSpec& child = insert->subtree.children[0];
  mctdb::query::QueryBuilder b("Qfresh", w_->diagram);
  b.Root(w_->diagram.node(child.type).name);
  mctdb::query::AssociationQuery q = b.Build();

  QueryService service;
  ASSERT_TRUE(service.AddDurableStore("tpcw", durable->get()).ok());
  auto session = service.OpenSession("tpcw");
  ASSERT_TRUE(session.ok());

  auto f1 = (*session)->SubmitQuery(q);
  ASSERT_TRUE(f1.ok()) << f1.status().ToString();
  auto before = f1->get();
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  const uint32_t new_logical = child.logical;
  EXPECT_EQ(std::count(before->logicals.begin(), before->logicals.end(),
                       new_logical),
            0);

  auto f2 = (*session)->SubmitQuery(q);
  ASSERT_TRUE(f2.ok());
  ASSERT_TRUE(f2->get().ok());
  EXPECT_EQ(service.metrics().plan_cache_hits.load(), 1u);

  // Commit the insert and WAIT for it, so the next lookup runs against
  // the advanced visible LSN.
  auto uf = (*session)->SubmitUpdate(*insert);
  ASSERT_TRUE(uf.ok()) << uf.status().ToString();
  ASSERT_TRUE(uf->get().ok());

  auto f3 = (*session)->SubmitQuery(q);
  ASSERT_TRUE(f3.ok());
  auto after = f3->get();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(service.metrics().plan_cache_invalidations.load(), 1u);
  EXPECT_EQ(std::count(after->logicals.begin(), after->logicals.end(),
                       new_logical),
            1)
      << "the re-planned query must see the committed insert";

  // The re-installed entry hits again at the new LSN...
  auto f4 = (*session)->SubmitQuery(q);
  ASSERT_TRUE(f4.ok());
  EXPECT_TRUE(f4->get().ok());
  EXPECT_EQ(service.metrics().plan_cache_hits.load(), 2u);

  // ...until a checkpoint bumps the generation: intervals may have been
  // relabeled, so even an unchanged LSN must not hit.
  auto ck = service.Checkpoint("tpcw");
  ASSERT_TRUE(ck.ok()) << ck.status().ToString();
  auto f5 = (*session)->SubmitQuery(q);
  ASSERT_TRUE(f5.ok());
  auto post_ck = f5->get();
  ASSERT_TRUE(post_ck.ok()) << post_ck.status().ToString();
  EXPECT_EQ(service.metrics().plan_cache_invalidations.load(), 2u);
  EXPECT_EQ(post_ck->logicals, after->logicals)
      << "checkpoint compaction must not change the answer";

  // Checkpointing a read-only registration is refused cleanly.
  QueryService read_only;
  ASSERT_TRUE(read_only.AddStore("ro", store_).ok());
  EXPECT_TRUE(read_only.Checkpoint("ro").status().IsInvalidArgument());
  EXPECT_TRUE(read_only.Checkpoint("nope").status().IsNotFound());
}

TEST_F(QueryServiceTest, PlanCacheUnderConcurrentReadersAndWriter) {
  // TSAN surface: many sessions hammering SubmitQuery on one store while
  // its session strand commits updates. Every request must complete, every
  // SubmitQuery must be accounted as exactly one of hit/miss/invalidated,
  // and the final answer must reflect every committed op.
  auto durable = mctdb::wal::DurableStore::Ephemeral(
      mctdb::instance::Materialize(*logical_, *schema_));
  ASSERT_TRUE(durable.ok());
  std::vector<mctdb::mct::MctSchema> schemas{*schema_};
  mctdb::workload::UpdateGenOptions gen;
  gen.num_ops = 6;
  auto ops = mctdb::workload::GenerateUpdateOps(schemas, *logical_, gen);
  ASSERT_FALSE(ops.empty());

  const mctdb::query::AssociationQuery* q = w_->Find("Q1");
  ASSERT_NE(q, nullptr);

  ServiceOptions options;
  options.num_threads = 4;
  QueryService service(options);
  ASSERT_TRUE(service.AddDurableStore("tpcw", durable->get()).ok());
  auto writer = service.OpenSession("tpcw");
  ASSERT_TRUE(writer.ok());

  constexpr size_t kReaders = 4;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      auto session = service.OpenSession("tpcw");
      ASSERT_TRUE(session.ok());
      do {
        // 5 in-flight requests max sits far below the shedding watermark,
        // so every submission must be admitted (conservation below relies
        // on every SubmitQuery ticking exactly one cache outcome).
        auto f = (*session)->SubmitQuery(*q);
        ASSERT_TRUE(f.ok()) << f.status().ToString();
        auto r = f->get();
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        reads.fetch_add(1);
      } while (!done.load(std::memory_order_acquire));
    });
  }
  // All ops but the last race the readers; the last is held back for a
  // deterministic invalidation below (whether any concurrent reader
  // witnesses a stale entry is a race — the guard only promises no stale
  // plan ever SERVES, so the witness must be staged, not hoped for).
  ASSERT_GE(ops.size(), 2u);
  for (size_t i = 0; i + 1 < ops.size(); ++i) {
    auto uf = (*writer)->SubmitUpdate(ops[i]);
    ASSERT_TRUE(uf.ok()) << uf.status().ToString();
    ASSERT_TRUE(uf->get().ok());
  }
  done.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  service.Drain();
  EXPECT_GT(reads.load(), 0u);

  // Prime the cache at the current LSN (the entry is installed before
  // SubmitQuery returns), commit the held-back op, and the next lookup
  // MUST drop the now-stale entry.
  {
    auto f = (*writer)->SubmitQuery(*q);
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    ASSERT_TRUE(f->get().ok());
    reads.fetch_add(1);
  }
  auto uf = (*writer)->SubmitUpdate(ops.back());
  ASSERT_TRUE(uf.ok()) << uf.status().ToString();
  ASSERT_TRUE(uf->get().ok());

  // Post-quiescence: the service answer equals a direct executor run at
  // the final snapshot — the cache cannot pin a stale plan.
  auto plan = PlanQuery(*q, *schema_);
  ASSERT_TRUE(plan.ok());
  mctdb::query::Executor exec((*durable)->store());
  exec.set_snapshot((*durable)->snapshot());
  auto direct = exec.Execute(*plan);
  ASSERT_TRUE(direct.ok());
  auto f = (*writer)->SubmitQuery(*q);
  ASSERT_TRUE(f.ok());
  auto final_r = f->get();
  ASSERT_TRUE(final_r.ok());
  reads.fetch_add(1);
  EXPECT_EQ(final_r->logicals, direct->logicals);

  const auto& m = service.metrics();
  // Conservation: every SubmitQuery admission resolved its plan through
  // exactly one cache outcome. (Invalidated lookups re-plan, so they are
  // counted once as invalidations, never double-counted as misses.)
  EXPECT_EQ(m.plan_cache_hits.load() + m.plan_cache_misses.load() +
                m.plan_cache_invalidations.load(),
            reads.load());
  EXPECT_GT(m.plan_cache_invalidations.load(), 0u)
      << "the staged commit between two identical queries must invalidate";
}

TEST(ParallelRunnerTest, MatchesSerialRunMeasurementForMeasurement) {
  // Satellite requirement: RunWorkload with num_threads=4 produces the
  // same measurements as the serial loop — identical in everything except
  // wall-clock timing.
  mctdb::workload::Workload w = mctdb::workload::TpcwWorkload(0.03);
  mctdb::workload::RunnerOptions serial;
  serial.repetitions = 2;
  auto a = mctdb::workload::RunWorkload(w, serial);
  ASSERT_TRUE(a.ok()) << a.status().ToString();

  mctdb::workload::RunnerOptions parallel = serial;
  parallel.num_threads = 4;
  auto b = mctdb::workload::RunWorkload(w, parallel);
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  EXPECT_TRUE(a->problems.empty());
  EXPECT_TRUE(b->problems.empty())
      << b->problems.front() << " (+" << b->problems.size() - 1 << " more)";
  ASSERT_EQ(a->measurements.size(), b->measurements.size());
  for (size_t i = 0; i < a->measurements.size(); ++i) {
    const auto& ma = a->measurements[i];
    const auto& mb = b->measurements[i];
    SCOPED_TRACE(ma.schema + "/" + ma.query);
    EXPECT_EQ(ma.schema, mb.schema);
    EXPECT_EQ(ma.query, mb.query);
    EXPECT_EQ(ma.unique_results, mb.unique_results);
    EXPECT_EQ(ma.raw_results, mb.raw_results);
    EXPECT_EQ(ma.elements_updated, mb.elements_updated);
    // Per-query attribution makes I/O counts a property of the plan, not
    // of pool-global counter timing: the parallel run must report the
    // same fetch totals as the serial loop.
    EXPECT_EQ(ma.page_hits + ma.page_misses, mb.page_hits + mb.page_misses);
    EXPECT_EQ(ma.join_pairs, mb.join_pairs);
    EXPECT_EQ(ma.plan.structural_joins, mb.plan.structural_joins);
    EXPECT_EQ(ma.plan.value_joins, mb.plan.value_joins);
    EXPECT_EQ(ma.plan.dup_ops(), mb.plan.dup_ops());
  }
  ASSERT_EQ(a->storage.size(), b->storage.size());
  for (size_t i = 0; i < a->storage.size(); ++i) {
    EXPECT_EQ(a->storage[i].first, b->storage[i].first);
  }
}

}  // namespace
}  // namespace mctsvc
