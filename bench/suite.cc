#include "bench/suite.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "common/random.h"
#include "common/string_util.h"
#include "design/algorithm_dumc.h"
#include "design/algorithm_mc.h"
#include "design/algorithm_mcmr.h"
#include "er/er_random.h"
#include "instance/materialize.h"
#include "query/executor.h"
#include "query/planner.h"
#include "query/structural_join.h"
#include "query/update_exec.h"
#include "storage/pager.h"
#include "storage/posting.h"
#include "storage/sharded_pool.h"
#include "wal/durable_store.h"
#include "workload/metrics.h"
#include "workload/runner.h"
#include "workload/update_gen.h"

namespace mctdb::bench {

namespace {

BenchReport NewReport(const char* name, const SuiteOptions& options,
                      size_t reps) {
  BenchReport report;
  report.bench = name;
  report.scale = options.scale;
  report.reps = reps;
  return report;
}

std::string ScaleLabel(double scale) {
  return StringPrintf("scale=%g", scale);
}

/// Runs `w` through the workload runner. A setup failure and every
/// problem of the run (each names its query and schema) go to the
/// report's problems, prefixed with `context` when the suite runs more
/// than one workload.
std::optional<workload::RunSummary> Run(const workload::Workload& w,
                                        const workload::RunnerOptions& run,
                                        const std::string& context,
                                        BenchReport* report) {
  const std::string prefix = context.empty() ? "" : context + ": ";
  auto summary = workload::RunWorkload(w, run);
  if (!summary.ok()) {
    report->problems.push_back(prefix + "setup failed: " +
                               summary.status().ToString());
    return std::nullopt;
  }
  for (const std::string& problem : summary->problems) {
    report->problems.push_back(prefix + problem);
  }
  return std::move(*summary);
}

/// A record holding one runner cell's median time and exact counters.
QueryRecord& AddMeasured(BenchReport* report, const workload::Measurement& m,
                         std::string query) {
  QueryRecord& r = report->Add(m.schema, std::move(query));
  r.median_seconds = m.seconds;
  r.page_hits = m.page_hits;
  r.page_misses = m.page_misses;
  r.join_pairs = m.join_pairs;
  return r;
}

/// Median wall time of `reps` calls of `fn`, after one untimed call that
/// pays the page faults and cold caches the timed calls should not.
template <typename Fn>
double MedianOf(size_t reps, Fn fn) {
  fn();
  std::vector<double> times;
  for (size_t i = 0; i < std::max<size_t>(1, reps); ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    times.push_back(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count());
  }
  return workload::MedianSeconds(std::move(times));
}

// Table 1's bottom half: every TPC-W figure query on every schema.
BenchReport RunTable1(const SuiteOptions& options) {
  BenchReport report = NewReport("table1", options, options.repetitions);
  const workload::Workload w = workload::TpcwWorkload(options.scale);
  workload::RunnerOptions run;
  run.repetitions = options.repetitions;
  auto summary = Run(w, run, "", &report);
  if (!summary) return report;
  for (const workload::Measurement& m : summary->measurements) {
    const bool update = w.Find(m.query)->is_update();
    AddMeasured(&report, m, m.query)
        .Extra(update ? "logicals_updated" : "unique_results",
               double(m.unique_results))
        .Extra(update ? "elements_updated" : "raw_results",
               double(m.raw_results));
  }
  return report;
}

// Figs 8-10: plan-stat counters per (schema, TPC-W query). Plans depend on
// the schema shape only, so nothing is materialized and every count is
// exact. Fig 9 plots value_joins + color_crossings, Fig 10 dup_elims +
// group_bys + dup_updates.
BenchReport RunFigures(const SuiteOptions& options) {
  BenchReport report = NewReport("figures", options, 1);
  const workload::Workload w = workload::TpcwWorkload(0.01);
  const er::ErGraph graph(w.diagram);
  design::Designer designer(graph);
  for (design::Strategy strategy : design::AllStrategies()) {
    const mct::MctSchema schema = designer.Design(strategy);
    for (const std::string& name : w.figure_queries) {
      QueryRecord& r = report.Add(schema.name(), name);
      auto plan = query::PlanQuery(*w.Find(name), schema);
      if (!plan.ok()) {
        r.Extra("plan_error", 1);
        continue;
      }
      const query::PlanStats stats = plan->Stats();
      r.Extra("structural_joins", double(stats.structural_joins))
          .Extra("value_joins", double(stats.value_joins))
          .Extra("color_crossings", double(stats.color_crossings))
          .Extra("dup_elims", double(stats.dup_elims))
          .Extra("group_bys", double(stats.group_bys))
          .Extra("dup_updates", double(stats.dup_updates));
    }
  }
  return report;
}

// Figs 12-14: per (strategy, diagram) geometric means over the ER
// collection's workloads. UNDR is left out, as in the paper ("there were
// too many subjective ways in which to unnormalize each schema").
BenchReport RunCollection(const SuiteOptions& options) {
  BenchReport report = NewReport("collection", options, 1);
  const std::vector<design::Strategy> strategies = {
      design::Strategy::kDeep, design::Strategy::kAf,
      design::Strategy::kShallow, design::Strategy::kEn,
      design::Strategy::kMcmr, design::Strategy::kDr};
  for (const workload::CollectionCell& c : workload::AnalyzeCollection(
           workload::CollectionWorkloads(), strategies)) {
    report.Add(c.schema, c.diagram)
        .Extra("gmean_structural_joins", c.gmean_structural_joins)
        .Extra("gmean_value_joins_crossings", c.gmean_value_joins_crossings)
        .Extra("gmean_dup_ops", c.gmean_dup_ops)
        .Extra("colors", double(c.num_colors));
  }
  return report;
}

// Table 1's top half and its stability across data scales: the store
// statistics of every schema at 0.25, 0.5, 1 and 2 times the scale, with
// Q1's median time.
BenchReport RunScaling(const SuiteOptions& options) {
  BenchReport report = NewReport("scaling", options, options.repetitions);
  for (double factor : {0.25, 0.5, 1.0, 2.0}) {
    const double scale = factor * options.scale;
    const std::string label = ScaleLabel(scale);
    workload::Workload w = workload::TpcwWorkload(scale);
    w.figure_queries = {"Q1"};
    workload::RunnerOptions run;
    run.repetitions = options.repetitions;
    auto summary = Run(w, run, label, &report);
    if (!summary) continue;
    for (const auto& [schema, stats] : summary->storage) {
      const workload::Measurement* q1 = summary->Find(schema, "Q1");
      QueryRecord& r = q1 != nullptr ? AddMeasured(&report, *q1, label)
                                     : report.Add(schema, label);
      r.Extra("elements", double(stats.num_elements))
          .Extra("attributes", double(stats.num_attributes))
          .Extra("content_nodes", double(stats.num_content_nodes))
          .Extra("data_mbytes", stats.data_mbytes)
          .Extra("colors", double(stats.num_colors));
    }
  }
  return report;
}

// The TPC-W grid on 1, 2 and 4 runner threads (whole schemas per thread):
// median setup and grid seconds of `repetitions` runner calls each.
BenchReport RunParallel(const SuiteOptions& options) {
  BenchReport report = NewReport("parallel", options, options.repetitions);
  const workload::Workload w = workload::TpcwWorkload(options.scale);
  for (size_t threads : {1, 2, 4}) {
    const std::string label = StringPrintf("threads=%zu", threads);
    workload::RunnerOptions run;
    run.repetitions = options.repetitions;
    run.num_threads = threads;
    std::vector<double> setup, grid;
    size_t cells = 0;
    size_t problems = 0;
    for (size_t rep = 0; rep < options.repetitions; ++rep) {
      auto summary = Run(w, run, label, &report);
      if (!summary) break;
      setup.push_back(summary->setup_seconds);
      grid.push_back(summary->grid_seconds);
      cells = summary->measurements.size();
      problems = summary->problems.size();
    }
    if (grid.empty()) continue;
    QueryRecord& g = report.Add("grid", label);
    g.median_seconds = workload::MedianSeconds(std::move(grid));
    g.Extra("cells", double(cells)).Extra("problems", double(problems));
    report.Add("setup", label).median_seconds =
        workload::MedianSeconds(std::move(setup));
  }
  return report;
}

// The TPC-W read grid on versioned stores: per schema, an ephemeral
// durable store takes a fixed single-schema U1-U3 stream, then each read
// figure query runs at the final snapshot. Counters come from the query's
// first run on a pool of its own (exact pages it touches, cold); the
// median is over `repetitions` warm runs. A versioned scan that stopped
// using the posting index would show here as more page misses and fewer
// index seeks than on the read-only grid.
BenchReport RunVersioned(const SuiteOptions& options) {
  BenchReport report = NewReport("versioned", options, options.repetitions);
  const workload::Workload w = workload::TpcwWorkload(options.scale);
  const er::ErGraph graph(w.diagram);
  design::Designer designer(graph);
  const instance::LogicalInstance logical =
      instance::GenerateInstance(graph, w.gen);
  for (design::Strategy strategy : design::AllStrategies()) {
    const mct::MctSchema schema = designer.Design(strategy);
    auto durable = wal::DurableStore::Ephemeral(
        instance::Materialize(logical, schema));
    if (!durable.ok()) {
      report.problems.push_back(schema.name() + ": " +
                                durable.status().ToString());
      continue;
    }
    workload::UpdateGenOptions gen;
    gen.num_ops = 24;
    query::UpdateExecutor updates(durable->get());
    for (const storage::UpdateOp& op :
         workload::GenerateUpdateOps({schema}, logical, gen)) {
      auto applied = updates.Execute(op);
      if (!applied.ok()) {
        report.problems.push_back(schema.name() + ": " +
                                  storage::DebugString(op) + ": " +
                                  applied.status().ToString());
      }
    }
    storage::MctStore* store = (*durable)->store();
    for (const std::string& name : w.figure_queries) {
      const query::AssociationQuery* q = w.Find(name);
      if (q->is_update()) continue;
      auto plan = query::PlanQuery(*q, schema);
      if (!plan.ok()) {
        report.problems.push_back(name + " on " + schema.name() + ": " +
                                  plan.status().ToString());
        continue;
      }
      storage::ShardedBufferPool pool(
          store->pager(), storage::StoreOptions().buffer_pool_pages,
          /*num_shards=*/1);
      query::Executor exec(store, &pool);
      exec.set_snapshot(store->visible_lsn());
      auto cold = exec.Execute(*plan);
      if (!cold.ok()) {
        report.problems.push_back(name + " on " + schema.name() + ": " +
                                  cold.status().ToString());
        continue;
      }
      QueryRecord& r = report.Add(schema.name(), name);
      r.median_seconds =
          MedianOf(options.repetitions, [&] { (void)exec.Execute(*plan); });
      r.page_hits = cold->page_hits;
      r.page_misses = cold->page_misses;
      r.join_pairs = cold->join_pairs;
      r.Extra("index_seeks", double(cold->index_seeks))
          .Extra("unique_results", double(cold->unique_count))
          .Extra("raw_results", double(cold->raw_count));
    }
  }
  return report;
}

er::ErDiagram RandomDiagram(size_t entities) {
  Rng rng(entities * 7919);
  er::RandomErOptions opts;
  opts.num_entities = entities;
  opts.num_relationships = entities + entities / 2;
  opts.p_many_many = 0.15;
  opts.p_one_one = 0.15;
  return er::GenerateRandomEr(&rng, opts);
}

// Design cost and color frugality as the ER graph grows: MC is
// near-linear, DUMC pays for eligible-path enumeration and packing.
BenchReport RunDesign(const SuiteOptions& options) {
  BenchReport report = NewReport("design", options, options.repetitions);
  const struct {
    const char* name;
    std::vector<size_t> entities;
    mct::MctSchema (*design)(const er::ErGraph&);
  } algorithms[] = {
      {"MC", {8, 16, 32, 64},
       [](const er::ErGraph& g) { return design::AlgorithmMc(g); }},
      {"MCMR", {8, 16, 32},
       [](const er::ErGraph& g) { return design::AlgorithmMcmr(g); }},
      {"DUMC", {8, 16, 32},
       [](const er::ErGraph& g) { return design::AlgorithmDumc(g); }},
  };
  for (const auto& algorithm : algorithms) {
    for (size_t entities : algorithm.entities) {
      const er::ErDiagram diagram = RandomDiagram(entities);
      const er::ErGraph graph(diagram);
      size_t colors = 0;
      const double median = MedianOf(options.repetitions, [&] {
        colors = algorithm.design(graph).num_colors();
      });
      QueryRecord& r = report.Add(algorithm.name,
                                  StringPrintf("entities=%zu", entities));
      r.median_seconds = median;
      r.Extra("colors", double(colors))
          .Extra("er_nodes", double(diagram.num_nodes()));
    }
  }
  return report;
}

// The paper's premise ([1,7], §3.1): recover customer->make->order with a
// structural join (EN, one color) or a value join (SHALLOW, an order
// idref on make), at 0.25, 1 and 4 times the scale.
BenchReport RunJoins(const SuiteOptions& options) {
  BenchReport report = NewReport("joins", options, options.repetitions);
  for (double factor : {0.25, 1.0, 4.0}) {
    const double scale = factor * options.scale;
    const std::string label = ScaleLabel(scale);
    workload::Workload w = workload::TpcwWorkload(scale);
    query::QueryBuilder chain("chain", w.diagram);
    chain.Via(chain.Root("customer"), {"make", "order"});
    w.queries.push_back(chain.Build());
    w.figure_queries = {"chain"};
    workload::RunnerOptions run;
    run.strategies = {design::Strategy::kEn, design::Strategy::kShallow};
    run.repetitions = options.repetitions;
    auto summary = Run(w, run, label, &report);
    if (!summary) continue;
    for (const workload::Measurement& m : summary->measurements) {
      AddMeasured(&report, m, label)
          .Extra("unique_results", double(m.unique_results))
          .Extra("raw_results", double(m.raw_results))
          .Extra("structural_joins", double(m.plan.structural_joins))
          .Extra("value_joins", double(m.plan.value_joins));
    }
  }
  return report;
}

// Storage-layer primitives: one 500k-entry posting scan (about 1,223
// pages) through pools from thrashing (16 pages) to fully resident (4096),
// and the stack-tree structural join on nested intervals.
BenchReport RunPrimitives(const SuiteOptions& options) {
  BenchReport report = NewReport("primitives", options, options.repetitions);
  storage::Pager pager;
  storage::PostingWriter writer(&pager);
  for (uint32_t i = 0; i < 500000; ++i) {
    storage::LabelEntry e;
    e.elem = i;
    e.start = 2 * i + 1;
    e.end = 2 * i + 2;
    writer.Append(e);
  }
  const storage::PostingMeta meta = writer.Finish();
  for (size_t pages : {16, 256, 2048, 4096}) {
    // A fresh pool per size, warmed by MedianOf's untimed pass: the timed
    // passes and the last pass's exact hits and misses show the steady
    // state.
    storage::ShardedBufferPool pool(&pager, pages, /*num_shards=*/1);
    uint64_t entries = 0, hits = 0, misses = 0;
    auto scan = [&] {
      const uint64_t hits_before = pool.hits();
      const uint64_t misses_before = pool.misses();
      storage::PostingCursor cursor(&pool, &meta);
      storage::LabelEntry e;
      for (entries = 0; cursor.Next(&e);) ++entries;
      hits = pool.hits() - hits_before;
      misses = pool.misses() - misses_before;
    };
    QueryRecord& r =
        report.Add("posting_scan", StringPrintf("pool=%zu", pages));
    r.median_seconds = MedianOf(options.repetitions, scan);
    r.page_hits = hits;
    r.page_misses = misses;
    r.Extra("entries", double(entries));
  }
  for (uint32_t labels : {1000u, 100000u, 1000000u}) {
    // One ancestor per ten descendants, nested intervals.
    std::vector<storage::LabelEntry> anc, desc;
    for (uint32_t i = 0; i < labels / 10; ++i) {
      storage::LabelEntry a;
      a.elem = i;
      a.start = i * 30 + 1;
      a.end = i * 30 + 29;
      anc.push_back(a);
      for (uint32_t j = 0; j < 10; ++j) {
        storage::LabelEntry d;
        d.elem = 1000000 + i * 10 + j;
        d.start = i * 30 + 2 + 2 * j;
        d.end = i * 30 + 3 + 2 * j;
        d.level = 1;
        desc.push_back(d);
      }
    }
    uint64_t pairs = 0;
    QueryRecord& r =
        report.Add("stack_tree_join", StringPrintf("labels=%u", labels));
    r.median_seconds = MedianOf(options.repetitions, [&] {
      pairs = query::StackTreeJoin(anc, desc).pairs;
    });
    r.join_pairs = pairs;
  }
  return report;
}

}  // namespace

const std::vector<BenchmarkDef>& RegisteredBenchmarks() {
  static const std::vector<BenchmarkDef>* benches =
      new std::vector<BenchmarkDef>{
          {"table1",
           "Table 1 (bottom): TPC-W per-(schema, query) median times, exact "
           "I/O and result counts",
           &RunTable1},
          {"figures",
           "Figs 8-10: plan-stat counters per (schema, TPC-W query); "
           "scale-independent and exact",
           &RunFigures},
          {"collection",
           "Figs 12-14: geometric-mean plan stats and colors per "
           "(strategy, ER-collection diagram)",
           &RunCollection},
          {"scaling",
           "Table 1 (top) at 0.25-2x the scale: exact store statistics per "
           "schema, Q1 median time",
           &RunScaling},
          {"parallel",
           "TPC-W grid at 1, 2 and 4 threads: median setup and grid seconds",
           &RunParallel},
          {"design",
           "MC, MCMR and DUMC on seeded random ER graphs: median time, colors",
           &RunDesign},
          {"joins",
           "customer->make->order: EN structural vs SHALLOW value join at "
           "0.25, 1 and 4x the scale",
           &RunJoins},
          {"primitives",
           "posting scans per pool size (exact hits/misses) and stack-tree "
           "joins (exact pairs)",
           &RunPrimitives},
          {"versioned",
           "TPC-W read grid on WAL-backed stores after a U1-U3 stream: exact "
           "cold I/O, index seeks and result counts at the final snapshot",
           &RunVersioned},
      };
  return *benches;
}

const BenchmarkDef* FindBenchmark(std::string_view name) {
  for (const BenchmarkDef& b : RegisteredBenchmarks()) {
    if (name == b.name) return &b;
  }
  return nullptr;
}

}  // namespace mctdb::bench
