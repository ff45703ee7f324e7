#include "workload/runner.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "analysis/plan_verify.h"
#include "common/logging.h"
#include "query/planner.h"
#include "query/update_exec.h"
#include "service/query_service.h"
#include "wal/durable_store.h"
#include "workload/update_gen.h"

namespace mctdb::workload {

namespace {

Measurement MakeMeasurement(const std::string& schema,
                            const std::string& name,
                            const query::AssociationQuery& q,
                            const query::PlanStats& plan_stats,
                            std::vector<double> times,
                            const query::ExecResult& last) {
  Measurement m;
  m.schema = schema;
  m.query = name;
  m.plan = plan_stats;
  m.seconds = MedianSeconds(std::move(times));
  m.unique_results = q.is_update() ? last.logicals_updated : last.unique_count;
  m.raw_results = q.is_update() ? last.elements_updated : last.raw_count;
  m.elements_updated = last.elements_updated;
  m.page_misses = last.page_misses;
  m.page_hits = last.page_hits;
  m.join_pairs = last.join_pairs;
  m.stages = obs::AggregateByStage(last.trace);
  return m;
}

/// Shared admission check of both grid paths: statically verify the plan
/// before executing it, so a malformed plan becomes a problem row instead
/// of a crashed worker, with an identical message either way.
bool VerifyPlanOrReport(const query::QueryPlan& plan,
                        const std::string& name, const std::string& schema,
                        std::vector<std::string>* problems) {
  analysis::DiagnosticReport report = analysis::VerifyPlan(plan);
  if (!report.has_errors()) return true;
  problems->push_back(name + " on " + schema +
                      ": plan verification failed:\n" + report.ToText());
  return false;
}

/// Record `last` for the equivalence check: the first schema to report a
/// query becomes the reference, later schemas must match it logically.
void CheckEquivalence(const RunnerOptions& options,
                      const query::AssociationQuery& q,
                      const std::string& name, const std::string& schema,
                      const query::ExecResult& last,
                      std::map<std::string, std::vector<uint32_t>>* reference,
                      std::vector<std::string>* problems) {
  if (!options.check_equivalence || q.is_update()) return;
  auto [it, inserted] = reference->emplace(name, last.logicals);
  if (!inserted && it->second != last.logicals) {
    problems->push_back("equivalence violation: " + name + " on " + schema);
  }
}

/// Per-(schema, kind) rollup of the update ops applied during the grid.
struct UpdateAgg {
  std::vector<double> times;
  uint64_t wal_appends = 0;
  uint64_t wal_fsyncs = 0;
  size_t elements = 0;
  query::ExecResult last;  // unused fields stay zero for update rows
};

/// Applies ops[*next .. prefix) on schema i's durable store, rolling each
/// kind into its aggregate row. Apply failures become problem rows.
void ApplyOpsUpTo(const std::vector<storage::UpdateOp>& ops, size_t prefix,
                  const std::string& schema, wal::DurableStore* durable,
                  size_t* next, std::map<std::string, UpdateAgg>* agg,
                  std::vector<std::string>* problems) {
  while (*next < prefix) {
    const storage::UpdateOp& op = ops[*next];
    ++*next;
    query::UpdateExecutor exec(durable);
    auto result = exec.Execute(op);
    const char* kind = storage::UpdateKindName(op.kind);
    if (!result.ok()) {
      problems->push_back(std::string(kind) + " on " + schema + ": " +
                          result.status().ToString());
      continue;
    }
    UpdateAgg& row = (*agg)[kind];
    row.times.push_back(result->elapsed_seconds);
    row.wal_appends += result->wal_appends;
    row.wal_fsyncs += result->wal_fsyncs;
    row.elements += result->stats.elements_touched;
  }
}

/// The classic single-threaded grid loop over the stores' own pools. When
/// `durables` is non-empty, the deterministic op stream `ops` is
/// interleaved at identical grid positions on every schema.
void RunGridSerial(const Workload& workload, const RunnerOptions& options,
                   const std::vector<mct::MctSchema>& schemas,
                   const std::vector<storage::MctStore*>& stores,
                   const std::vector<wal::DurableStore*>& durables,
                   const std::vector<storage::UpdateOp>& ops,
                   RunSummary* summary) {
  const size_t num_queries =
      std::max<size_t>(1, workload.figure_queries.size());
  std::map<std::string, std::vector<uint32_t>> reference;
  for (size_t i = 0; i < schemas.size(); ++i) {
    std::map<std::string, UpdateAgg> update_rows;
    size_t next_op = 0;
    size_t query_index = 0;
    for (const std::string& name : workload.figure_queries) {
      if (!durables.empty()) {
        // Same op prefix before query #qi on every schema, so the
        // mid-grid equivalence checks compare identical logical states.
        ApplyOpsUpTo(ops, ops.size() * query_index / num_queries,
                     schemas[i].name(), durables[i], &next_op,
                     &update_rows, &summary->problems);
      }
      ++query_index;
      const query::AssociationQuery* q = workload.Find(name);
      if (q == nullptr) {
        summary->problems.push_back("unknown figure query " + name);
        continue;
      }
      // Durable stores take their writes as the logged op stream above;
      // an update-form query would rewrite them in place, unlogged.
      if (!durables.empty() && q->is_update()) continue;
      auto plan = query::PlanQuery(*q, schemas[i]);
      if (!plan.ok()) {
        summary->problems.push_back(name + " on " + schemas[i].name() +
                                    ": " + plan.status().ToString());
        continue;
      }
      if (!VerifyPlanOrReport(*plan, name, schemas[i].name(),
                              &summary->problems)) {
        continue;
      }
      query::Executor exec(stores[i]);
      exec.set_snapshot(stores[i]->versioned() ? stores[i]->visible_lsn()
                                               : kMaxLsn);
      std::vector<double> times;
      query::ExecResult last;
      bool failed = false;
      for (size_t rep = 0; rep < std::max<size_t>(1, options.repetitions);
           ++rep) {
        auto result = exec.Execute(*plan);
        if (!result.ok()) {
          summary->problems.push_back(name + " on " + schemas[i].name() +
                                      ": " + result.status().ToString());
          failed = true;
          break;
        }
        times.push_back(result->elapsed_seconds);
        last = *result;
      }
      if (failed) continue;
      summary->measurements.push_back(MakeMeasurement(
          schemas[i].name(), name, *q, plan->Stats(), std::move(times),
          last));
      CheckEquivalence(options, *q, name, schemas[i].name(), last,
                       &reference, &summary->problems);
    }
    if (!durables.empty()) {
      ApplyOpsUpTo(ops, ops.size(), schemas[i].name(), durables[i],
                   &next_op, &update_rows, &summary->problems);
      for (auto& [kind, row] : update_rows) {
        if (row.times.empty()) continue;
        Measurement m;
        m.schema = schemas[i].name();
        m.query = kind;
        m.seconds = MedianSeconds(std::move(row.times));
        m.elements_updated = row.elements;
        m.wal_appends = row.wal_appends;
        m.wal_fsyncs = row.wal_fsyncs;
        summary->measurements.push_back(std::move(m));
      }
    }
  }
  if (durables.empty() || !options.check_equivalence) return;
  // Post-update equivalence: every schema applied the same op stream, so
  // the updated stores must still agree on every read query.
  std::map<std::string, std::vector<uint32_t>> post_reference;
  for (size_t i = 0; i < schemas.size(); ++i) {
    for (const std::string& name : workload.figure_queries) {
      const query::AssociationQuery* q = workload.Find(name);
      if (q == nullptr || q->is_update()) continue;
      auto plan = query::PlanQuery(*q, schemas[i]);
      if (!plan.ok()) continue;  // already reported in the grid pass
      query::Executor exec(stores[i]);
      exec.set_snapshot(stores[i]->visible_lsn());
      auto result = exec.Execute(*plan);
      if (!result.ok()) {
        summary->problems.push_back("post-update " + name + " on " +
                                    schemas[i].name() + ": " +
                                    result.status().ToString());
        continue;
      }
      auto [it, inserted] = post_reference.emplace(name, result->logicals);
      if (!inserted && it->second != result->logicals) {
        summary->problems.push_back("post-update equivalence violation: " +
                                    name + " on " + schemas[i].name());
      }
    }
  }
}

/// Fans the grid through an mctsvc::QueryService: one session per schema
/// keeps each store's query-and-update sequence in serial order (so
/// results, including update side effects and page-miss counts on an
/// unpressured pool, match the serial run), while schemas proceed in
/// parallel on the worker pool.
void RunGridParallel(const Workload& workload, const RunnerOptions& options,
                     const std::vector<mct::MctSchema>& schemas,
                     const std::vector<storage::MctStore*>& stores,
                     RunSummary* summary) {
  const size_t reps = std::max<size_t>(1, options.repetitions);

  mctsvc::ServiceOptions sopts;
  sopts.num_threads = options.num_threads;
  sopts.pool_pages = options.store.buffer_pool_pages;
  // The whole grid is staged up front; size the admission window for it.
  sopts.max_queued =
      schemas.size() * workload.figure_queries.size() * reps + 1;
  mctsvc::QueryService service(sopts);

  std::vector<std::shared_ptr<mctsvc::QueryService::Session>> sessions;
  for (size_t i = 0; i < schemas.size(); ++i) {
    Status added = service.AddStore(schemas[i].name(), stores[i]);
    MCTDB_CHECK_MSG(added.ok(), added.ToString().c_str());
    auto session = service.OpenSession(schemas[i].name());
    MCTDB_CHECK_MSG(session.ok(), session.status().ToString().c_str());
    sessions.push_back(*session);
  }

  struct Cell {
    const query::AssociationQuery* q = nullptr;
    std::string name;
    std::optional<query::QueryPlan> plan;
    std::vector<mctsvc::QueryFuture> rep_futures;
  };
  std::vector<std::vector<Cell>> grid(schemas.size());

  // Planning phase: plan every cell into the grid (planning problems
  // recorded in the same schema-major order as the serial loop). Nothing
  // is submitted yet: the service keeps a pointer to each plan, so all
  // cells must reach their final addresses first.
  for (size_t i = 0; i < schemas.size(); ++i) {
    for (const std::string& name : workload.figure_queries) {
      Cell cell;
      cell.name = name;
      cell.q = workload.Find(name);
      if (cell.q == nullptr) {
        summary->problems.push_back("unknown figure query " + name);
        grid[i].push_back(std::move(cell));
        continue;
      }
      auto plan = query::PlanQuery(*cell.q, schemas[i]);
      if (!plan.ok()) {
        summary->problems.push_back(name + " on " + schemas[i].name() +
                                    ": " + plan.status().ToString());
        cell.q = nullptr;
        grid[i].push_back(std::move(cell));
        continue;
      }
      if (!VerifyPlanOrReport(*plan, name, schemas[i].name(),
                              &summary->problems)) {
        cell.q = nullptr;
        grid[i].push_back(std::move(cell));
        continue;
      }
      cell.plan = std::move(*plan);
      grid[i].push_back(std::move(cell));
    }
  }

  // Submission phase: stage every cell's repetitions on its schema's
  // session. The grid is fully built, so plan addresses are stable for the
  // lifetime of the in-flight requests.
  for (size_t i = 0; i < schemas.size(); ++i) {
    for (Cell& cell : grid[i]) {
      if (cell.q == nullptr) continue;
      for (size_t rep = 0; rep < reps; ++rep) {
        // kHigh: the runner sized max_queued to hold the whole batch and
        // has no interactive traffic to protect, so the load-shedding
        // watermarks must not apply to its own staged submissions.
        auto future =
            sessions[i]->Submit(*cell.plan, 0.0, mctsvc::Priority::kHigh);
        MCTDB_CHECK_MSG(future.ok(), future.status().ToString().c_str());
        cell.rep_futures.push_back(std::move(*future));
      }
    }
  }

  // Gather phase, schema-major like the serial loop, so measurements,
  // equivalence references, and problem ordering come out identical.
  std::map<std::string, std::vector<uint32_t>> reference;
  for (size_t i = 0; i < schemas.size(); ++i) {
    for (Cell& cell : grid[i]) {
      if (cell.q == nullptr) continue;
      std::vector<double> times;
      query::ExecResult last;
      bool failed = false;
      for (auto& future : cell.rep_futures) {
        auto result = future.get();
        if (!result.ok()) {
          summary->problems.push_back(cell.name + " on " +
                                      schemas[i].name() + ": " +
                                      result.status().ToString());
          failed = true;
          break;
        }
        times.push_back(result->elapsed_seconds);
        last = std::move(*result);
      }
      if (failed) continue;
      summary->measurements.push_back(MakeMeasurement(
          schemas[i].name(), cell.name, *cell.q, cell.plan->Stats(),
          std::move(times), last));
      CheckEquivalence(options, *cell.q, cell.name, schemas[i].name(), last,
                       &reference, &summary->problems);
    }
  }
}

}  // namespace

double MedianSeconds(std::vector<double> times) {
  MCTDB_CHECK(!times.empty());
  std::sort(times.begin(), times.end());
  size_t mid = times.size() / 2;
  if (times.size() % 2 == 1) return times[mid];
  return (times[mid - 1] + times[mid]) / 2.0;
}

const Measurement* RunSummary::Find(const std::string& schema,
                                    const std::string& query) const {
  for (const Measurement& m : measurements) {
    if (m.schema == schema && m.query == query) return &m;
  }
  return nullptr;
}

Result<RunSummary> RunWorkload(const Workload& workload,
                               const RunnerOptions& options) {
  RunSummary summary;
  auto setup_start = std::chrono::steady_clock::now();
  er::ErGraph graph(workload.diagram);
  design::Designer designer(graph);
  instance::LogicalInstance logical =
      instance::GenerateInstance(graph, workload.gen);

  std::vector<mct::MctSchema> schemas;
  std::vector<std::unique_ptr<storage::MctStore>> stores;
  for (design::Strategy s : options.strategies) {
    schemas.push_back(designer.Design(s));
  }
  for (mct::MctSchema& schema : schemas) {
    instance::MaterializeOptions mat;
    mat.store = options.store;
    stores.push_back(instance::Materialize(logical, schema, mat));
    summary.storage.emplace_back(schema.name(), stores.back()->Stats());
  }

  // Update mode: wrap every store in an ephemeral WAL-backed durable
  // store (in-memory log, full group-commit/versioning semantics) and
  // generate one op stream all schemas share.
  std::vector<std::unique_ptr<wal::DurableStore>> owned_durables;
  std::vector<wal::DurableStore*> durables;
  std::vector<storage::UpdateOp> ops;
  std::vector<storage::MctStore*> raw_stores;
  if (options.update_fraction > 0) {
    UpdateGenOptions gen;
    gen.num_ops = std::max<size_t>(
        1, static_cast<size_t>(options.update_fraction *
                               double(workload.figure_queries.size()) +
                               0.5));
    ops = GenerateUpdateOps(schemas, logical, gen);
    for (auto& store : stores) {
      auto durable = wal::DurableStore::Ephemeral(std::move(store));
      MCTDB_CHECK_MSG(durable.ok(), durable.status().ToString().c_str());
      owned_durables.push_back(std::move(*durable));
      durables.push_back(owned_durables.back().get());
      raw_stores.push_back(owned_durables.back()->store());
    }
  } else {
    for (auto& store : stores) raw_stores.push_back(store.get());
  }

  auto grid_start = std::chrono::steady_clock::now();
  summary.setup_seconds =
      std::chrono::duration<double>(grid_start - setup_start).count();

  if (options.num_threads > 1 && durables.empty()) {
    RunGridParallel(workload, options, schemas, raw_stores, &summary);
  } else {
    // Update mode always runs serial: the op stream must hit identical
    // grid positions on every schema for mid-run equivalence to hold.
    RunGridSerial(workload, options, schemas, raw_stores, durables, ops,
                  &summary);
  }
  summary.grid_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    grid_start)
          .count();
  return summary;
}

}  // namespace mctdb::workload
