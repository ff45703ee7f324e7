// End-to-end trace correlation (DESIGN.md §16): one TraceId minted at
// admission must tag every stage of the request's footprint — the flight
// recorder's admission event, the plan-cache outcome, the executor's stage
// spans, and (for updates) the WAL append and group-commit fsync — so
// `mctc trace --id N` can reconstruct a single request's timeline. Also
// pins the slow-log side of the story: shed/rejected requests land in the
// log outcome-tagged with a non-zero trace id.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/json.h"
#include "design/designer.h"
#include "instance/materialize.h"
#include "obs/flight_recorder.h"
#include "service/query_service.h"
#include "wal/durable_store.h"
#include "workload/runner.h"
#include "workload/update_gen.h"
#include "workload/workload.h"

namespace mctsvc {
namespace {

namespace flight = mctdb::obs::flight;

std::vector<flight::Event> ForTrace(uint64_t id) {
  std::vector<flight::Event> out;
  for (const flight::Event& e : flight::Snapshot()) {
    if (e.trace_id == id) out.push_back(e);
  }
  return out;
}

bool HasSite(const std::vector<flight::Event>& events, flight::Site site) {
  return std::any_of(events.begin(), events.end(),
                     [site](const flight::Event& e) {
                       return e.site == site;
                     });
}

/// One small TPC-W store (EN schema) shared across the correlation tests.
class TraceCorrelationTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    w_ = new mctdb::workload::Workload(mctdb::workload::TpcwWorkload(0.05));
    graph_ = new mctdb::er::ErGraph(w_->diagram);
    mctdb::design::Designer designer(*graph_);
    schema_ = new mctdb::mct::MctSchema(
        designer.Design(mctdb::design::Strategy::kEn));
    logical_ = new mctdb::instance::LogicalInstance(
        mctdb::instance::GenerateInstance(*graph_, w_->gen));
  }
  static void TearDownTestSuite() {
    delete logical_;
    delete schema_;
    delete graph_;
    delete w_;
  }

  void SetUp() override {
    flight::Enable();
    flight::ResetForTest();
  }

  static mctdb::workload::Workload* w_;
  static mctdb::er::ErGraph* graph_;
  static mctdb::mct::MctSchema* schema_;
  static mctdb::instance::LogicalInstance* logical_;
};

mctdb::workload::Workload* TraceCorrelationTest::w_ = nullptr;
mctdb::er::ErGraph* TraceCorrelationTest::graph_ = nullptr;
mctdb::mct::MctSchema* TraceCorrelationTest::schema_ = nullptr;
mctdb::instance::LogicalInstance* TraceCorrelationTest::logical_ = nullptr;

TEST_F(TraceCorrelationTest, QueryTraceSpansAdmissionPlanCacheAndExecutor) {
  auto durable = mctdb::wal::DurableStore::Ephemeral(
      mctdb::instance::Materialize(*logical_, *schema_));
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  QueryService service;
  ASSERT_TRUE(service.AddDurableStore("tpcw", durable->get()).ok());
  auto session = service.OpenSession("tpcw");
  ASSERT_TRUE(session.ok());

  const mctdb::query::AssociationQuery* q = w_->Find("Q1");
  ASSERT_NE(q, nullptr);
  auto f1 = (*session)->SubmitQuery(*q);
  ASSERT_TRUE(f1.ok());
  auto r1 = f1->get();
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  const uint64_t t1 = r1->trace.trace_id;
  ASSERT_NE(t1, 0u) << "admission must mint a trace id";

  std::vector<flight::Event> e1 = ForTrace(t1);
  EXPECT_TRUE(HasSite(e1, flight::Site::kAdmit)) << "admission event";
  EXPECT_TRUE(HasSite(e1, flight::Site::kPlanCacheMiss))
      << "first submit plans fresh";
  EXPECT_TRUE(HasSite(e1, flight::Site::kSpanBegin)) << "executor stages";
  EXPECT_TRUE(HasSite(e1, flight::Site::kSpanEnd));

  // The identical query again: a DIFFERENT trace id whose footprint shows
  // the cache hit instead of a miss.
  auto f2 = (*session)->SubmitQuery(*q);
  ASSERT_TRUE(f2.ok());
  auto r2 = f2->get();
  ASSERT_TRUE(r2.ok());
  const uint64_t t2 = r2->trace.trace_id;
  ASSERT_NE(t2, 0u);
  EXPECT_NE(t2, t1) << "each request gets its own trace";
  std::vector<flight::Event> e2 = ForTrace(t2);
  EXPECT_TRUE(HasSite(e2, flight::Site::kAdmit));
  EXPECT_TRUE(HasSite(e2, flight::Site::kPlanCacheHit));
  EXPECT_FALSE(HasSite(e2, flight::Site::kPlanCacheMiss));
}

TEST_F(TraceCorrelationTest, UpdateTraceCoversWalAppendAndFsync) {
  auto durable = mctdb::wal::DurableStore::Ephemeral(
      mctdb::instance::Materialize(*logical_, *schema_));
  ASSERT_TRUE(durable.ok());
  QueryService service;
  ASSERT_TRUE(service.AddDurableStore("tpcw", durable->get()).ok());
  auto session = service.OpenSession("tpcw");
  ASSERT_TRUE(session.ok());

  std::vector<mctdb::mct::MctSchema> schemas{*schema_};
  auto ops = mctdb::workload::GenerateUpdateOps(schemas, *logical_, {});
  ASSERT_FALSE(ops.empty());
  auto uf = (*session)->SubmitUpdate(ops[0]);
  ASSERT_TRUE(uf.ok()) << uf.status().ToString();
  auto ur = uf->get();
  ASSERT_TRUE(ur.ok()) << ur.status().ToString();
  const uint64_t trace = ur->trace.trace_id;
  ASSERT_NE(trace, 0u);

  std::vector<flight::Event> events = ForTrace(trace);
  EXPECT_TRUE(HasSite(events, flight::Site::kAdmit));
  ASSERT_TRUE(HasSite(events, flight::Site::kWalAppend));
  ASSERT_TRUE(HasSite(events, flight::Site::kWalFsync));
  uint64_t append_lsn = 0, fsync_lsn = 0;
  for (const flight::Event& e : events) {
    if (e.site == flight::Site::kWalAppend) append_lsn = e.arg;
    if (e.site == flight::Site::kWalFsync) fsync_lsn = e.arg;
  }
  EXPECT_EQ(append_lsn, ur->lsn) << "append event carries the assigned LSN";
  EXPECT_GE(fsync_lsn, append_lsn)
      << "the fsync batch covers at least our record";
}

TEST_F(TraceCorrelationTest, ShedRequestsLandInSlowLogWithOutcome) {
  auto durable = mctdb::wal::DurableStore::Ephemeral(
      mctdb::instance::Materialize(*logical_, *schema_));
  ASSERT_TRUE(durable.ok());
  ServiceOptions options;
  options.num_threads = 1;
  options.max_queued = 10;      // reads shed past 9 in flight
  options.start_paused = true;  // park workers: staging is deterministic
  // The slow log must be ON for rejection records (threshold is irrelevant
  // to them — admission verdicts bypass it).
  options.slow_query_seconds = 1000.0;
  QueryService service(options);
  ASSERT_TRUE(service.AddDurableStore("tpcw", durable->get()).ok());
  auto session = service.OpenSession("tpcw");
  ASSERT_TRUE(session.ok());

  const mctdb::query::AssociationQuery* q = w_->Find("Q1");
  ASSERT_NE(q, nullptr);
  // Fill the queue to the shed watermark with parked reads, then watch the
  // next read get shed.
  std::vector<QueryFuture> parked;
  for (int i = 0; i < 9; ++i) {
    auto f = (*session)->SubmitQuery(*q);
    ASSERT_TRUE(f.ok()) << i << ": " << f.status().ToString();
    parked.push_back(std::move(*f));
  }
  auto shed = (*session)->SubmitQuery(*q);
  EXPECT_FALSE(shed.ok());

  std::vector<QueryService::SlowQueryRecord> log = service.SlowQueries();
  ASSERT_FALSE(log.empty()) << "the turned-away request must be logged";
  const QueryService::SlowQueryRecord& rec = log.back();
  EXPECT_EQ(rec.outcome, "shed");
  EXPECT_NE(rec.trace_id, 0u);
  EXPECT_EQ(rec.store, "tpcw");
  // The flight recorder saw the same verdict under the same trace.
  std::vector<flight::Event> events = ForTrace(rec.trace_id);
  EXPECT_TRUE(HasSite(events, flight::Site::kShed));
  // And the JSON export carries the new fields.
  const std::string json = service.SlowQueriesJson();
  EXPECT_NE(json.find("\"outcome\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"trace_id\":"), std::string::npos) << json;
  auto parsed = mctdb::json::Parse(json);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();

  service.Resume();
  service.Drain();
}

TEST_F(TraceCorrelationTest, StatuszAndFlightzAreWellFormedJson) {
  auto durable = mctdb::wal::DurableStore::Ephemeral(
      mctdb::instance::Materialize(*logical_, *schema_));
  ASSERT_TRUE(durable.ok());
  QueryService service;
  ASSERT_TRUE(service.AddDurableStore("tpcw", durable->get()).ok());
  auto session = service.OpenSession("tpcw");
  ASSERT_TRUE(session.ok());
  const mctdb::query::AssociationQuery* q = w_->Find("Q1");
  auto f = (*session)->SubmitQuery(*q);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(f->get().ok());
  service.Drain();

  const std::string statusz = service.StatuszJson();
  auto parsed = mctdb::json::Parse(statusz);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << statusz;
  for (const char* key :
       {"\"uptime_seconds\"", "\"queue_depth\"", "\"running\"",
        "\"queue_wait\"", "\"lock_wait\"", "\"stores\"", "\"plan_cache\"",
        "\"wal\"", "\"pool\""}) {
    EXPECT_NE(statusz.find(key), std::string::npos)
        << key << " missing from:\n" << statusz;
  }

  const std::string flightz = service.FlightzJson();
  auto fparsed = mctdb::json::Parse(flightz);
  ASSERT_TRUE(fparsed.ok()) << fparsed.status().ToString();
  EXPECT_NE(flightz.find("\"events\""), std::string::npos);
  // The query just executed, so the live snapshot is not empty.
  EXPECT_NE(flightz.find("\"site\":\"admit\""), std::string::npos);
}

}  // namespace
}  // namespace mctsvc
