#include "service/query_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
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
#include "workload/update_gen.h"
#include "workload/workload.h"

namespace mctsvc {
namespace {

using mctdb::query::ExecResult;
using mctdb::query::PlanQuery;
using mctdb::query::QueryPlan;

/// The seven per-store counter families that pool and pager counts feed.
constexpr const char* kPoolCounterFamilies[] = {
    "mctsvc_pool_hits_total",         "mctsvc_pool_misses_total",
    "mctsvc_pool_checksum_failures_total", "mctsvc_pool_retries_total",
    "mctsvc_pool_quarantined_total",  "mctsvc_pool_shard_hits_total",
    "mctsvc_pool_shard_misses_total"};

/// Polls `pred` until it holds; false after `seconds`.
template <typename Pred>
bool WaitUntil(Pred pred, double seconds = 20.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Every sample of kPoolCounterFamilies, keyed "name{k=v,...}".
std::map<std::string, uint64_t> PoolCounterSamples(
    const QueryService& service) {
  std::map<std::string, uint64_t> out;
  for (const MetricFamily& f : service.Families()) {
    if (std::find_if(std::begin(kPoolCounterFamilies),
                     std::end(kPoolCounterFamilies), [&](const char* name) {
                       return f.name == name;
                     }) == std::end(kPoolCounterFamilies)) {
      continue;
    }
    for (const MetricSample& sample : f.samples) {
      std::string key = f.name + "{";
      for (const auto& [k, v] : sample.labels) key += k + "=" + v + ",";
      key += "}";
      out[key] = std::get<uint64_t>(sample.value);
    }
  }
  return out;
}

/// Threads that each run one query through their own session until
/// stopped, summing what the answers report. Stops on destruction, so a
/// failed assertion in the test body does not leave them running.
class Readers {
 public:
  /// `service` and `query` must outlive the readers.
  Readers(QueryService& service, const std::string& store,
          const mctdb::query::AssociationQuery& query, int threads) {
    for (int t = 0; t < threads; ++t) {
      threads_.emplace_back([&service, store, &query, this] {
        auto session = service.OpenSession(store);
        EXPECT_TRUE(session.ok()) << session.status().ToString();
        while (session.ok() && !done_.load()) {
          auto f = (*session)->SubmitQuery(query);
          auto r = f.ok() ? f->get() : mctdb::Result<ExecResult>(f.status());
          if (!r.ok()) {
            ADD_FAILURE() << r.status().ToString();
            break;
          }
          ++reads;
          page_hits += r->page_hits;
          page_misses += r->page_misses;
        }
      });
    }
  }
  ~Readers() { Stop(); }
  Readers(const Readers&) = delete;
  Readers& operator=(const Readers&) = delete;

  /// Ends every thread after its current query.
  void Stop() {
    done_ = true;
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> page_hits{0};
  std::atomic<uint64_t> page_misses{0};

 private:
  std::atomic<bool> done_{false};
  std::vector<std::thread> threads_;  // last: uses the members above
};

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

  /// DEEP over the shared instance as an ephemeral durable store (DEEP
  /// repeats country under every address, so a rename touches many
  /// elements).
  static std::unique_ptr<mctdb::wal::DurableStore> DeepDurable(
      const mctdb::mct::MctSchema& deep) {
    auto durable = mctdb::wal::DurableStore::Ephemeral(
        mctdb::instance::Materialize(*logical_, deep));
    EXPECT_TRUE(durable.ok()) << durable.status().ToString();
    return durable.ok() ? std::move(*durable) : nullptr;
  }

  /// U3: country `logical` renamed to `name`.
  static mctdb::storage::UpdateOp RenameCountry(uint32_t logical,
                                                std::string name) {
    mctdb::storage::UpdateOp op;
    op.kind = mctdb::storage::UpdateOp::Kind::kRenameValue;
    op.target_type = *w_->diagram.FindNode("country");
    op.target_logical = logical;
    op.attr = "name";
    op.new_value = std::move(name);
    return op;
  }

  /// Maintenance on, checkpointing (and so rebasing) after every update.
  static ServiceOptions RebaseEveryUpdate() {
    ServiceOptions options;
    options.num_threads = 4;
    options.maintenance_enabled = true;
    options.maintenance.wal_records_threshold = 1;
    options.maintenance.poll_seconds = 0.002;
    return options;
  }

  /// Renames countries through `writer` until `durable` has rebased
  /// `target` times, calling `poll` about once a millisecond meanwhile.
  /// Each update waits for its checkpoint's maintenance callback (which
  /// bumps `cache`'s generation), not just for its rebase: an update
  /// applied before the maintenance thread has booked the previous
  /// checkpoint is counted into that one and fires none of its own.
  static testing::AssertionResult UpdateUntilRebased(
      QueryService::Session& writer, const mctdb::wal::DurableStore& durable,
      const PlanCache& cache, uint64_t target,
      const std::function<void()>& poll) {
    for (uint32_t i = 0; durable.rebases() < target; ++i) {
      const uint64_t generation = cache.generation();
      // Named: the request refers to it until its future is ready.
      const mctdb::storage::UpdateOp op =
          RenameCountry(i % 30, "Renamed" + std::to_string(i));
      auto f = writer.SubmitUpdate(op);
      if (!f.ok()) return testing::AssertionFailure() << f.status().ToString();
      auto r = f->get();
      if (!r.ok()) return testing::AssertionFailure() << r.status().ToString();
      if (!WaitUntil([&] {
            poll();
            return cache.generation() > generation;
          })) {
        return testing::AssertionFailure()
               << "no checkpoint after update " << i << "; "
               << durable.rebases() << " rebases";
      }
    }
    return testing::AssertionSuccess();
  }

  /// The workload query `name` (Q1, Q3, U3, ...).
  static const mctdb::query::AssociationQuery& Query(const char* name) {
    const mctdb::query::AssociationQuery* q = w_->Find(name);
    EXPECT_NE(q, nullptr) << name;
    return *q;
  }

  /// Its plan on the shared EN schema, for direct-executor references.
  static QueryPlan Plan(const mctdb::query::AssociationQuery& query) {
    auto plan = PlanQuery(query, *schema_);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return *plan;
  }

  /// Submits `query` on a fresh session of `store` and waits for it.
  static mctdb::Result<ExecResult> RunQuery(
      QueryService& service, const std::string& store,
      const mctdb::query::AssociationQuery& query) {
    MCTDB_ASSIGN_OR_RETURN(std::shared_ptr<QueryService::Session> session,
                           service.OpenSession(store));
    MCTDB_ASSIGN_OR_RETURN(QueryFuture future, session->SubmitQuery(query));
    return future.get();
  }

  /// EN over the shared instance as an ephemeral durable store.
  static std::unique_ptr<mctdb::wal::DurableStore> EnDurable() {
    auto durable = mctdb::wal::DurableStore::Ephemeral(
        mctdb::instance::Materialize(*logical_, *schema_));
    EXPECT_TRUE(durable.ok()) << durable.status().ToString();
    return durable.ok() ? std::move(*durable) : nullptr;
  }

  /// A deterministic U1-U3 stream over the EN schema.
  static std::vector<mctdb::storage::UpdateOp> Ops(size_t num_ops) {
    std::vector<mctdb::mct::MctSchema> schemas{*schema_};
    mctdb::workload::UpdateGenOptions gen;
    gen.num_ops = num_ops;
    return mctdb::workload::GenerateUpdateOps(schemas, *logical_, gen);
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
  QueryPlan plan = Plan(Query("Q1"));
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
  auto future = (*session)->SubmitQuery(Query("Q1"));
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
  // Reads are shed below the hard limit and updates are not, so two
  // parked updates fill a window of 2 and the next request meets the hard
  // limit itself.
  std::unique_ptr<mctdb::wal::DurableStore> durable = EnDurable();
  ASSERT_NE(durable, nullptr);
  const std::vector<mctdb::storage::UpdateOp> ops = Ops(8);
  ASSERT_GE(ops.size(), 2u);
  ServiceOptions options;
  options.num_threads = 1;
  options.max_queued = 2;
  options.start_paused = true;  // park workers: staging is deterministic
  QueryService service(options);
  ASSERT_TRUE(service.AddDurableStore("tpcw", durable.get()).ok());
  auto session = service.OpenSession("tpcw");
  ASSERT_TRUE(session.ok());

  auto u1 = (*session)->SubmitUpdate(ops[0]);
  auto u2 = (*session)->SubmitUpdate(ops[1]);
  ASSERT_TRUE(u1.ok()) << u1.status().ToString();
  ASSERT_TRUE(u2.ok()) << u2.status().ToString();
  auto read = (*session)->SubmitQuery(Query("Q1"));
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsResourceExhausted())
      << read.status().ToString();
  EXPECT_EQ(service.metrics().rejected.load(), 1u);
  EXPECT_EQ(service.metrics().sheds.load(), 0u);
  EXPECT_EQ(service.metrics().queue_depth.load(), 2u);

  service.Resume();
  EXPECT_TRUE(u1->get().ok());
  EXPECT_TRUE(u2->get().ok());
  service.Drain();
  EXPECT_EQ(service.metrics().completed.load(), 2u);
  EXPECT_EQ(service.metrics().queue_depth.load(), 0u);
  // The window freed up: the next read is admitted again.
  auto again = (*session)->SubmitQuery(Query("Q1"));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again->get().ok());
}

TEST_F(QueryServiceTest, ExpiredDeadlineCancelsCleanly) {
  ServiceOptions options;
  options.num_threads = 1;
  options.start_paused = true;
  QueryService service(options);
  ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
  auto session = service.OpenSession("tpcw");
  ASSERT_TRUE(session.ok());

  // Stage a request whose deadline expires while the workers are parked.
  auto doomed = (*session)->SubmitQuery(Query("Q1"), 1e-3);
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
  auto after = (*session)->SubmitQuery(Query("Q1"));
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->get().ok());
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
  ASSERT_TRUE(Query("U3").is_update());

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
  auto future = (*session)->SubmitQuery(Query("U3"));
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
  mctdb::query::Executor exec(store_);
  auto reference = exec.Execute(Plan(Query("Q3")));
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
      auto f = session->SubmitQuery(Query("Q3"));
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
  // Solo baseline on a private service: the query's exact fetch count.
  uint64_t solo_fetches = 0;
  {
    QueryService solo;
    ASSERT_TRUE(solo.AddStore("tpcw", store_).ok());
    auto r = RunQuery(solo, "tpcw", Query("Q3"));
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
      auto f = session->SubmitQuery(Query("Q3"));
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
  // the per-query counts sum to the store's pool counters.
  std::map<std::string, uint64_t> counters = PoolCounterSamples(service);
  EXPECT_EQ(sum_hits, counters["mctsvc_pool_hits_total{store=tpcw,}"]);
  EXPECT_EQ(sum_misses, counters["mctsvc_pool_misses_total{store=tpcw,}"]);
  EXPECT_EQ(service.metrics().page_hits.load(), sum_hits);
  EXPECT_EQ(service.metrics().page_misses.load(), sum_misses);
}

TEST_F(QueryServiceTest, SlowQueryLogRecordsStageBreakdown) {
  ServiceOptions options;
  options.slow_query_seconds = 1e-12;  // everything is "slow"
  QueryService service(options);
  ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
  auto r = RunQuery(service, "tpcw", Query("Q1"));
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

  // The ring is bounded: one entry past its capacity evicts the oldest.
  ASSERT_TRUE(RunQuery(service, "tpcw", Query("Q3")).ok());
  for (size_t i = 2; i <= QueryService::kSlowQueryLogCapacity; ++i) {
    ASSERT_TRUE(RunQuery(service, "tpcw", Query("Q1")).ok());
  }
  slow = service.SlowQueries();
  ASSERT_EQ(slow.size(), QueryService::kSlowQueryLogCapacity);
  EXPECT_EQ(slow.front().query, "Q3");
  EXPECT_EQ(slow.back().query, "Q1");
  EXPECT_EQ(service.metrics().slow_queries.load(),
            QueryService::kSlowQueryLogCapacity + 1);
}

TEST_F(QueryServiceTest, SlowQueryLogDisabledByDefault) {
  QueryService service;
  ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
  ASSERT_TRUE(RunQuery(service, "tpcw", Query("Q1")).ok());
  EXPECT_TRUE(service.SlowQueries().empty());
  EXPECT_EQ(service.metrics().slow_queries.load(), 0u);
  // Attribution counters still accumulate even with the log off.
  EXPECT_GT(service.metrics().page_hits.load() +
                service.metrics().page_misses.load(),
            0u);
}

TEST_F(QueryServiceTest, MetricsTextExportsPrometheusSeries) {
  QueryService service;
  ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
  ASSERT_TRUE(RunQuery(service, "tpcw", Query("Q1")).ok());
  // The future resolves before the worker leaves RunNext; the queue-depth
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
  QueryService service;
  ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
  ASSERT_TRUE(RunQuery(service, "tpcw", Query("Q1")).ok());
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

TEST_F(QueryServiceTest, ReadsAreShedPastTheWatermarkUpdatesAreNot) {
  std::unique_ptr<mctdb::wal::DurableStore> durable = EnDurable();
  ASSERT_NE(durable, nullptr);
  const std::vector<mctdb::storage::UpdateOp> ops = Ops(8);
  ASSERT_GE(ops.size(), 2u);
  ServiceOptions options;
  options.num_threads = 1;
  options.max_queued = 10;      // reads shed past 9 in flight
  options.start_paused = true;  // park workers: staging is deterministic
  QueryService service(options);
  ASSERT_TRUE(service.AddDurableStore("tpcw", durable.get()).ok());
  auto session = service.OpenSession("tpcw");
  ASSERT_TRUE(session.ok());

  std::vector<QueryFuture> reads;
  for (int i = 0; i < 9; ++i) {
    auto f = (*session)->SubmitQuery(Query("Q1"));
    ASSERT_TRUE(f.ok()) << i << ": " << f.status().ToString();
    reads.push_back(std::move(*f));
  }
  // A tenth read would pass the watermark (9 of 10): shed with a hint.
  auto shed = (*session)->SubmitQuery(Query("Q1"));
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsUnavailable()) << shed.status().ToString();
  EXPECT_NE(shed.status().message().find("retry after"), std::string::npos)
      << shed.status().ToString();
  // An update still fits under the hard limit; only that limit refuses
  // the next one.
  auto update = (*session)->SubmitUpdate(ops[0]);
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  auto refused = (*session)->SubmitUpdate(ops[1]);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsResourceExhausted())
      << refused.status().ToString();

  EXPECT_EQ(service.metrics().sheds.load(), 1u);
  EXPECT_EQ(service.metrics().rejected.load(), 1u);

  service.Resume();
  for (auto& f : reads) EXPECT_TRUE(f.get().ok());
  EXPECT_TRUE(update->get().ok());
  service.Drain();
  // A shed is advisory backpressure, not a failure of the service path.
  EXPECT_EQ(service.metrics().failed.load(), 0u);
}

TEST_F(QueryServiceTest, BreakerOpensAfterConsecutiveHardFailures) {
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
      auto f = (*session)->SubmitQuery(Query("Q1"));
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
  auto refused = (*session)->SubmitQuery(Query("Q1"));
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
      auto f = (*session)->SubmitQuery(Query("Q1"));
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
  auto probe = (*session)->SubmitQuery(Query("Q1"));
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
    auto f = (*session)->SubmitQuery(Query("Q1"), 1e-3);
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
  auto after = (*session)->SubmitQuery(Query("Q1"));
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->get().ok());
}

TEST_F(QueryServiceTest, UpdateAdmissionRefusesAtHardLimitAndOpenBreaker) {
  std::unique_ptr<mctdb::wal::DurableStore> durable = EnDurable();
  ASSERT_NE(durable, nullptr);
  const std::vector<mctdb::storage::UpdateOp> ops = Ops(8);
  ASSERT_GE(ops.size(), 4u);

  ServiceOptions options;
  options.num_threads = 1;
  options.max_queued = 2;
  options.start_paused = true;  // the admitted updates stay queued
  options.breaker_failure_threshold = 1;
  options.slow_query_seconds = 1000.0;  // log admission refusals
  QueryService service(options);
  ASSERT_TRUE(service.AddDurableStore("tpcw", durable.get()).ok());
  auto session = service.OpenSession("tpcw");
  ASSERT_TRUE(session.ok());

  auto u1 = (*session)->SubmitUpdate(ops[0]);
  ASSERT_TRUE(u1.ok()) << u1.status().ToString();
  auto u2 = (*session)->SubmitUpdate(ops[1]);
  ASSERT_TRUE(u2.ok()) << u2.status().ToString();
  // Updates are never shed: past the shedding watermark, only the hard
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
  QueryService service;  // default options: breaker enabled (threshold 5)
  ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
  ASSERT_TRUE(RunQuery(service, "tpcw", Query("Q1")).ok());
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
  auto result = RunQuery(service, "tpcw", q);
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
  auto r1 = RunQuery(service, "tpcw", q);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  service.Drain();
  EXPECT_EQ(service.metrics().plans_simplified.load(), 1u);
  EXPECT_NE(service.MetricsText().find("mctsvc_plans_simplified_total 1"),
            std::string::npos);
}

TEST_F(QueryServiceTest, FatalAnalysisVerdictRejectedAtAdmission) {
  // A query the static analyzer rejects outright (QRY002: association
  // path endpoints disagree with the pattern) must bounce at submission
  // with the QRY diagnostics, before it takes an admission slot.
  mctdb::query::AssociationQuery bad = Query("Q1");
  ASSERT_GE(bad.nodes.size(), 2u);
  // Retarget a non-root node's type so path.back() != er_node.
  mctdb::er::NodeId other = *w_->diagram.FindNode(
      bad.nodes[1].er_node == *w_->diagram.FindNode("country") ? "item"
                                                               : "country");
  ASSERT_NE(bad.nodes[1].er_node, other);
  bad.nodes[1].er_node = other;

  QueryService service;
  ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
  auto session = service.OpenSession("tpcw");
  ASSERT_TRUE(session.ok());
  auto rejected = (*session)->SubmitQuery(bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument())
      << rejected.status().ToString();
  EXPECT_NE(rejected.status().message().find("QRY002"), std::string::npos)
      << rejected.status().ToString();
  EXPECT_EQ(service.metrics().invalid_plans.load(), 1u);
  EXPECT_EQ(service.metrics().submitted.load(), 0u);
  // A refused query is never cached: a resubmission is refused again.
  EXPECT_EQ(service.plan_cache("tpcw")->size(), 0u);
  EXPECT_FALSE((*session)->SubmitQuery(bad).ok());
  EXPECT_EQ(service.metrics().invalid_plans.load(), 2u);
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

  // The second identical submission is a pure cache hit — and
  // byte-identical.
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

TEST_F(QueryServiceTest, CachedPlanSurvivesACommitAndSeesItsRow) {
  // A plan depends on (query, schema) only; a read sees committed rows
  // through the snapshot its worker pins at dequeue. Sequence: query
  // (miss, cached) -> identical query (hit) -> U1 insert commits ->
  // identical query again: still a hit, and its answer holds the inserted
  // row. Only a checkpoint makes the entry re-plan.
  std::unique_ptr<mctdb::wal::DurableStore> durable = EnDurable();
  ASSERT_NE(durable, nullptr);

  // A deterministic U1 insert from the workload generator.
  const std::vector<mctdb::storage::UpdateOp> ops = Ops(8);
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
  ASSERT_TRUE(service.AddDurableStore("tpcw", durable.get()).ok());
  auto session = service.OpenSession("tpcw");
  ASSERT_TRUE(session.ok());
  const ServiceMetrics& m = service.metrics();

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
  EXPECT_EQ(m.plan_cache_hits.load(), 1u);

  // Commit the insert and wait for it.
  auto uf = (*session)->SubmitUpdate(*insert);
  ASSERT_TRUE(uf.ok()) << uf.status().ToString();
  ASSERT_TRUE(uf->get().ok());

  auto f3 = (*session)->SubmitQuery(q);
  ASSERT_TRUE(f3.ok());
  auto after = f3->get();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(m.plan_cache_hits.load(), 2u) << "a commit keeps the plan";
  EXPECT_EQ(m.plan_cache_misses.load(), 1u);
  EXPECT_EQ(m.plan_cache_invalidations.load(), 0u);
  EXPECT_EQ(std::count(after->logicals.begin(), after->logicals.end(),
                       new_logical),
            1)
      << "the cached plan's answer must hold the committed insert";

  // A checkpoint bumps the generation by one, and the entry re-plans once.
  PlanCache* cache = service.plan_cache("tpcw");
  ASSERT_NE(cache, nullptr);
  const uint64_t generation = cache->generation();
  auto ck = service.Checkpoint("tpcw");
  ASSERT_TRUE(ck.ok()) << ck.status().ToString();
  EXPECT_EQ(cache->generation(), generation + 1);
  auto f4 = (*session)->SubmitQuery(q);
  ASSERT_TRUE(f4.ok());
  auto post_ck = f4->get();
  ASSERT_TRUE(post_ck.ok()) << post_ck.status().ToString();
  EXPECT_EQ(m.plan_cache_invalidations.load(), 1u);
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
  // commits must invalidate nothing, and the final answer must reflect
  // every committed op.
  std::unique_ptr<mctdb::wal::DurableStore> durable = EnDurable();
  ASSERT_NE(durable, nullptr);
  const std::vector<mctdb::storage::UpdateOp> ops = Ops(6);
  ASSERT_FALSE(ops.empty());
  const mctdb::query::AssociationQuery& q = Query("Q1");

  ServiceOptions options;
  options.num_threads = 4;
  QueryService service(options);
  ASSERT_TRUE(service.AddDurableStore("tpcw", durable.get()).ok());
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
        auto f = (*session)->SubmitQuery(q);
        ASSERT_TRUE(f.ok()) << f.status().ToString();
        auto r = f->get();
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        reads.fetch_add(1);
      } while (!done.load(std::memory_order_acquire));
    });
  }
  for (const mctdb::storage::UpdateOp& op : ops) {
    auto uf = (*writer)->SubmitUpdate(op);
    ASSERT_TRUE(uf.ok()) << uf.status().ToString();
    ASSERT_TRUE(uf->get().ok());
  }
  done.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  service.Drain();
  EXPECT_GT(reads.load(), 0u);

  // Post-quiescence: the service answer equals a direct executor run at
  // the final snapshot — the cached plan serves every commit.
  mctdb::query::Executor exec(durable->store());
  exec.set_snapshot(durable->snapshot());
  auto direct = exec.Execute(Plan(q));
  ASSERT_TRUE(direct.ok());
  auto f = (*writer)->SubmitQuery(q);
  ASSERT_TRUE(f.ok());
  auto final_r = f->get();
  ASSERT_TRUE(final_r.ok());
  reads.fetch_add(1);
  EXPECT_EQ(final_r->logicals, direct->logicals);

  const auto& m = service.metrics();
  // Conservation: every SubmitQuery admission resolved its plan through
  // exactly one cache outcome.
  EXPECT_EQ(m.plan_cache_hits.load() + m.plan_cache_misses.load() +
                m.plan_cache_invalidations.load(),
            reads.load());
  EXPECT_EQ(m.plan_cache_invalidations.load(), 0u)
      << "no checkpoint ran, so nothing may invalidate";
}

// A kRebaseLive checkpoint the service did not drive (no maintenance
// manager: the operator checkpoints by hand) must still reach its
// readers: the next request reads the rebased store, so an update
// acknowledged after the checkpoint is visible.
TEST_F(QueryServiceTest, RequestsReadTheStoreARebaseSwappedIn) {
  const mctdb::mct::MctSchema deep =
      mctdb::design::Designer(*graph_).Design(mctdb::design::Strategy::kDeep);
  std::unique_ptr<mctdb::wal::DurableStore> durable = DeepDurable(deep);
  ASSERT_NE(durable, nullptr);
  QueryService service;
  ASSERT_TRUE(service.AddDurableStore("deep", durable.get()).ok());
  auto session = service.OpenSession("deep");
  ASSERT_TRUE(session.ok());
  auto rename_to_japan = [&](uint32_t country) {
    const mctdb::storage::UpdateOp op = RenameCountry(country, "Japan");
    auto f = (*session)->SubmitUpdate(op);
    EXPECT_TRUE(f.ok()) << f.status().ToString();
    if (!f.ok()) return mctdb::kNoLsn;
    auto r = f->get();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->lsn : mctdb::kNoLsn;
  };
  auto served_q1 = [&] {
    auto f = (*session)->SubmitQuery(*w_->Find("Q1"));
    EXPECT_TRUE(f.ok()) << f.status().ToString();
    if (!f.ok()) return std::vector<uint32_t>{};
    auto r = f->get();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->logicals : std::vector<uint32_t>{};
  };

  EXPECT_EQ(rename_to_japan(0), 1u);
  const std::vector<uint32_t> before = served_q1();
  ASSERT_TRUE(
      durable->Checkpoint(mctdb::wal::CheckpointMode::kRebaseLive).ok());
  EXPECT_EQ(rename_to_japan(1), 2u);
  const std::vector<uint32_t> after = served_q1();

  auto plan = PlanQuery(*w_->Find("Q1"), deep);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  mctdb::query::Executor exec(durable->store());
  exec.set_snapshot(durable->snapshot());
  auto direct = exec.Execute(*plan);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(after, direct->logicals);
  EXPECT_GT(after.size(), before.size())
      << "the rename acknowledged after the checkpoint must show";
}

// The per-store pool families are counters: a rebase gives the store a
// fresh pool, and the old pool's counts, including those of reads that
// finish on it after the swap, stay in the exported totals.
TEST_F(QueryServiceTest, PoolCountersNeverGoBackwardsAcrossRebases) {
  const mctdb::mct::MctSchema deep =
      mctdb::design::Designer(*graph_).Design(mctdb::design::Strategy::kDeep);
  std::unique_ptr<mctdb::wal::DurableStore> durable = DeepDurable(deep);
  ASSERT_NE(durable, nullptr);
  QueryService service(RebaseEveryUpdate());
  ASSERT_TRUE(service.AddDurableStore("deep", durable.get()).ok());
  auto writer = service.OpenSession("deep");
  ASSERT_TRUE(writer.ok());

  Readers readers(service, "deep", *w_->Find("Q1"), 2);
  std::map<std::string, uint64_t> last = PoolCounterSamples(service);
  size_t scrapes = 0;
  auto scrape = [&] {
    std::map<std::string, uint64_t> now = PoolCounterSamples(service);
    for (const auto& [key, value] : last) {
      EXPECT_GE(now[key], value) << key << " went backwards";
    }
    last = std::move(now);
    ++scrapes;
  };
  // Scrapes while each checkpoint runs and the readers move to the new
  // view.
  ASSERT_TRUE(UpdateUntilRebased(**writer, *durable,
                                 *service.plan_cache("deep"), 3, scrape));
  readers.Stop();
  service.Drain();
  scrape();
  EXPECT_GE(scrapes, 4u);
  EXPECT_EQ(last["mctsvc_pool_hits_total{store=deep,}"],
            readers.page_hits.load());
  EXPECT_EQ(last["mctsvc_pool_misses_total{store=deep,}"],
            readers.page_misses.load());
}

// Each store a rebase replaces is freed once the last request on it is
// done: after the readers stop, the live store is the only one left.
TEST_F(QueryServiceTest, StoresARebaseReplacedAreFreedAfterTheirLastReader) {
  const mctdb::mct::MctSchema deep =
      mctdb::design::Designer(*graph_).Design(mctdb::design::Strategy::kDeep);
  std::unique_ptr<mctdb::wal::DurableStore> durable = DeepDurable(deep);
  ASSERT_NE(durable, nullptr);
  QueryService service(RebaseEveryUpdate());
  ASSERT_TRUE(service.AddDurableStore("deep", durable.get()).ok());
  auto writer = service.OpenSession("deep");
  ASSERT_TRUE(writer.ok());

  Readers readers(service, "deep", *w_->Find("Q1"), 4);
  // One weak reference per store the durable store has served.
  std::vector<std::weak_ptr<mctdb::storage::MctStore>> seen{
      durable->PinStore()};
  uint64_t rebases_seen = 0;
  ASSERT_TRUE(UpdateUntilRebased(
      **writer, *durable, *service.plan_cache("deep"), 10, [&] {
        if (durable->rebases() > rebases_seen) {
          rebases_seen = durable->rebases();
          seen.push_back(durable->PinStore());
        }
      }));
  readers.Stop();
  service.Drain();
  EXPECT_GT(readers.reads.load(), 0u);
  EXPECT_EQ(service.metrics().failed.load(), 0u);
  const std::shared_ptr<mctdb::storage::MctStore> live = durable->PinStore();
  size_t alive = 0;
  for (const std::weak_ptr<mctdb::storage::MctStore>& store : seen) {
    if (store.lock() == live) continue;
    alive += !store.expired();
  }
  EXPECT_EQ(seen.size(), 11u);
  EXPECT_EQ(alive, 0u) << "of " << seen.size() << " stores seen";
}

}  // namespace
}  // namespace mctsvc
