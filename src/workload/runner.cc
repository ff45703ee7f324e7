#include "workload/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <thread>

#include "analysis/plan_verify.h"
#include "common/logging.h"
#include "query/planner.h"
#include "query/update_exec.h"
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

/// Per-(schema, kind) rollup of the update ops applied during the grid.
struct UpdateAgg {
  std::vector<double> times;
  uint64_t wal_appends = 0;
  uint64_t wal_fsyncs = 0;
  size_t elements = 0;
};

/// Applies ops[*next .. prefix) on the schema's durable store, rolling each
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

/// A read query's logical answer, for the cross-schema equivalence check.
struct Answer {
  std::string query;
  std::vector<uint32_t> logicals;
  /// How many of the sequence's problems precede this answer: the merge
  /// reports a violation at that point, as a serial loop would.
  size_t problems_before = 0;
};

/// What one schema's whole sequence produced, in its own order.
struct SchemaRun {
  std::vector<Measurement> measurements;
  std::vector<std::string> problems;
  /// Read answers of the grid (when checking equivalence).
  std::vector<Answer> answers;
  /// Problems and read answers after the whole op stream (update mode,
  /// when checking equivalence).
  std::vector<std::string> post_update_problems;
  std::vector<Answer> post_update_answers;
};

/// Runs one schema's whole sequence on its own store and pool: before each
/// figure query the op prefix due by then (update mode, so every schema
/// sees the same logical state at the same grid position), then planning,
/// verification, the repetitions and the measurement; in update mode, the
/// remaining ops, the U1-U3 rows and one more pass of the read queries.
SchemaRun RunSchema(const Workload& workload, const RunnerOptions& options,
                    const mct::MctSchema& schema, storage::MctStore* store,
                    wal::DurableStore* durable,
                    const std::vector<storage::UpdateOp>& ops) {
  SchemaRun run;
  const size_t num_queries =
      std::max<size_t>(1, workload.figure_queries.size());
  std::map<std::string, UpdateAgg> update_rows;
  size_t next_op = 0;
  size_t query_index = 0;
  for (const std::string& name : workload.figure_queries) {
    if (durable != nullptr) {
      ApplyOpsUpTo(ops, ops.size() * query_index / num_queries,
                   schema.name(), durable, &next_op, &update_rows,
                   &run.problems);
    }
    ++query_index;
    const query::AssociationQuery* q = workload.Find(name);
    if (q == nullptr) {
      run.problems.push_back("unknown figure query " + name);
      continue;
    }
    // Durable stores take their writes as the logged op stream above; an
    // update-form query would rewrite them in place, unlogged.
    if (durable != nullptr && q->is_update()) continue;
    auto plan = query::PlanQuery(*q, schema);
    if (!plan.ok()) {
      run.problems.push_back(name + " on " + schema.name() + ": " +
                             plan.status().ToString());
      continue;
    }
    // A malformed plan becomes a problem row instead of a crashed run.
    analysis::DiagnosticReport report = analysis::VerifyPlan(*plan);
    if (report.has_errors()) {
      run.problems.push_back(name + " on " + schema.name() +
                             ": plan verification failed:\n" +
                             report.ToText());
      continue;
    }
    query::Executor exec(store);
    exec.set_snapshot(store->versioned() ? store->visible_lsn() : kMaxLsn);
    std::vector<double> times;
    query::ExecResult last;
    bool failed = false;
    for (size_t rep = 0; rep < std::max<size_t>(1, options.repetitions);
         ++rep) {
      auto result = exec.Execute(*plan);
      if (!result.ok()) {
        run.problems.push_back(name + " on " + schema.name() + ": " +
                               result.status().ToString());
        failed = true;
        break;
      }
      times.push_back(result->elapsed_seconds);
      last = std::move(*result);
    }
    if (failed) continue;
    run.measurements.push_back(MakeMeasurement(
        schema.name(), name, *q, plan->Stats(), std::move(times), last));
    if (options.check_equivalence && !q->is_update()) {
      run.answers.push_back(
          {name, std::move(last.logicals), run.problems.size()});
    }
  }
  if (durable == nullptr) return run;
  ApplyOpsUpTo(ops, ops.size(), schema.name(), durable, &next_op,
               &update_rows, &run.problems);
  for (auto& [kind, row] : update_rows) {
    if (row.times.empty()) continue;
    Measurement m;
    m.schema = schema.name();
    m.query = kind;
    m.seconds = MedianSeconds(std::move(row.times));
    m.elements_updated = row.elements;
    m.wal_appends = row.wal_appends;
    m.wal_fsyncs = row.wal_fsyncs;
    run.measurements.push_back(std::move(m));
  }
  if (!options.check_equivalence) return run;
  // Every schema applied the same op stream, so the updated stores must
  // still agree on every read query.
  for (const std::string& name : workload.figure_queries) {
    const query::AssociationQuery* q = workload.Find(name);
    if (q == nullptr || q->is_update()) continue;
    auto plan = query::PlanQuery(*q, schema);
    if (!plan.ok()) continue;  // already reported in the grid pass
    query::Executor exec(store);
    exec.set_snapshot(store->visible_lsn());
    auto result = exec.Execute(*plan);
    if (!result.ok()) {
      run.post_update_problems.push_back("post-update " + name + " on " +
                                         schema.name() + ": " +
                                         result.status().ToString());
      continue;
    }
    run.post_update_answers.push_back({name, std::move(result->logicals),
                                       run.post_update_problems.size()});
  }
  return run;
}

/// Appends one schema's problems to `out` with its answers checked against
/// `reference` in between: the first schema to answer a query becomes the
/// reference, later schemas must match it logically.
void MergeProblems(const std::string& schema,
                   const std::vector<std::string>& problems,
                   const std::vector<Answer>& answers, const char* violation,
                   std::map<std::string, std::vector<uint32_t>>* reference,
                   std::vector<std::string>* out) {
  size_t reported = 0;
  for (const Answer& answer : answers) {
    while (reported < answer.problems_before) {
      out->push_back(problems[reported++]);
    }
    auto [it, inserted] = reference->emplace(answer.query, answer.logicals);
    if (!inserted && it->second != answer.logicals) {
      out->push_back(violation + answer.query + " on " + schema);
    }
  }
  out->insert(out->end(), problems.begin() + reported, problems.end());
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

  // One schema's sequence per task, on up to num_threads threads (the
  // calling thread is one of them). Each store and its own pool serve one
  // thread at a time, as in a serial loop, so every counter matches.
  std::vector<SchemaRun> runs(schemas.size());
  std::atomic<size_t> next_schema{0};
  auto work = [&] {
    for (size_t i = next_schema++; i < schemas.size(); i = next_schema++) {
      runs[i] = RunSchema(workload, options, schemas[i], raw_stores[i],
                          durables.empty() ? nullptr : durables[i], ops);
    }
  };
  {
    std::vector<std::jthread> helpers;  // joined at the end of the block
    for (size_t t = 1; t < std::min(options.num_threads, schemas.size());
         ++t) {
      helpers.emplace_back(work);
    }
    work();
  }

  // Merged in schema order, so rows, problems and equivalence references
  // come out as a serial run's whatever the thread count.
  std::map<std::string, std::vector<uint32_t>> reference;
  for (size_t i = 0; i < schemas.size(); ++i) {
    std::move(runs[i].measurements.begin(), runs[i].measurements.end(),
              std::back_inserter(summary.measurements));
    MergeProblems(schemas[i].name(), runs[i].problems, runs[i].answers,
                  "equivalence violation: ", &reference, &summary.problems);
  }
  std::map<std::string, std::vector<uint32_t>> post_reference;
  for (size_t i = 0; i < schemas.size(); ++i) {
    MergeProblems(schemas[i].name(), runs[i].post_update_problems,
                  runs[i].post_update_answers,
                  "post-update equivalence violation: ", &post_reference,
                  &summary.problems);
  }
  summary.grid_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    grid_start)
          .count();
  return summary;
}

}  // namespace mctdb::workload
