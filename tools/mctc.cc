// mctc — the mctdb command-line designer.
//
//   mctc validate <file.er>                   parse + Theorem 4.1 verdict
//   mctc report   <file.er>                   property matrix, 7 strategies
//   mctc design   <file.er> [-s STRATEGY] [--dtd|--dot|--tree]
//   mctc paths    <file.er> [--max N]         eligible associations
//   mctc mine     <file.xml> [--redesign]     ER from XML id/idrefs
//   mctc workload <file.er> [--threads N] [--base N] [--reps N] [--stages]
//                          [--update-fraction F]
//                                             run the emulated workload grid
//   mctc trace    <file.er> [--query NAME] [-s STRATEGY] [--json] [--base N]
//                 [--updates] [--id N] [--blackbox FILE]
//                                             execute the workload queries and
//                                             print each one's stage-span
//                                             trace (exact per-query I/O);
//                                             --id runs them through the query
//                                             service with the flight recorder
//                                             on and prints the end-to-end
//                                             timeline of one trace (0 = all);
//                                             --blackbox reads the events from
//                                             a recorder dump instead
//   mctc blackbox <dump> [--json] [--id N]    decode a flight-recorder dump
//   mctc lint     <file.er> [--json] [--schema-only] [--grid]
//                 [--query NAME|MCXPATH] [--store PATH]
//                                             static analysis: schema lint +
//                                             plan verification, 7 strategies;
//                                             --grid adds the full query-
//                                             analysis grid (QRY001-012, all
//                                             workload queries x all designer
//                                             schemas); --query analyzes one
//                                             workload query or an MC-XPath
//                                             expression across the schemas
//   mctc bench    [--scale S] [--reps N] [--bench NAME] [--json]
//                 [--out DIR] [--check] [--strict] [--tolerance T]
//                 [--min-abs S] [--baselines DIR] [--list]
//                                             run the registered benchmarks
//                                             in-process, write BENCH_*.json,
//                                             and gate against baselines
//   mctc serve    <file.er> [--port P] [--threads N] [--base N]
//                 [--passes N] [--linger S] [--updates] [--update-ops N]
//                 [--label-stride N]
//                                             run the workload through the
//                                             query service with the live
//                                             /metrics HTTP endpoint up;
//                                             --updates registers WAL-backed
//                                             stores with background
//                                             maintenance and mounts
//                                             POST /update?store=NAME&count=K
//                                             (K in 1..1000)
//                                             serving the deterministic U1-U3
//                                             stream through the admission
//                                             pipeline
//   mctc update   <file.er> --store PATH [-s STRATEGY] [--base N] [--ops N]
//                 [--take K] [--crash-after K] [--checkpoint] [--trace]
//                                             apply the deterministic U1-U3
//                                             stream through the WAL (creates
//                                             the store on first use)
//   mctc recover  <file.er> --store PATH [-s STRATEGY] [--base N]
//                 [--expect-store PATH2]
//                                             open with crash recovery, print
//                                             replay stats; --expect-store
//                                             checks query equivalence against
//                                             a reference store
//   mctc demo                                 built-in TPC-W walkthrough
//
// Files with the .er extension use the DSL of er/er_parser.h (see
// examples/designs/). Exit status: 0 ok, 1 usage, 2 input error (for bench
// with --check: 2 when the regression gate fails). `mctc lint` has its own
// contract: 0 = no error-severity findings (warnings/notes still print),
// 1 = error diagnostics found, 2 = internal/input error (unreadable file,
// bad syntax) — so scripts can tell "the input is bad" from "the lint
// found problems".
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <tuple>
#include <type_traits>

#include "analysis/plan_verify.h"
#include "analysis/query_analyze.h"
#include "analysis/schema_lint.h"
#include "bench/report.h"
#include "bench/suite.h"
#include "common/failpoint.h"
#include "common/log.h"
#include "common/string_util.h"
#include "design/designer.h"
#include "design/feasibility.h"
#include "design/xml_mining.h"
#include "er/er_catalog.h"
#include "er/er_parser.h"
#include "instance/materialize.h"
#include "mct/schema_export.h"
#include "obs/flight_recorder.h"
#include "obs/trace_export.h"
#include "obs/trace_id.h"
#include "query/executor.h"
#include "query/mcxpath.h"
#include "query/planner.h"
#include "query/update_exec.h"
#include "service/query_service.h"
#include "wal/durable_store.h"
#include "wal/wal_lint.h"
#include "workload/runner.h"
#include "workload/update_gen.h"
#include "xml/xml_io.h"

using namespace mctdb;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: mctc <command> [args]\n"
      "  validate <file.er>\n"
      "  report   <file.er>\n"
      "  design   <file.er> [-s SHALLOW|AF|DEEP|EN|MCMR|DR|UNDR]"
      " [--dtd|--dot|--tree]\n"
      "  paths    <file.er> [--max N]\n"
      "  mine     <file.xml> [--redesign]\n"
      "  workload <file.er> [--threads N] [--base N] [--reps N] [--stages]\n"
      "           [--update-fraction F]\n"
      "  trace    <file.er> [--query NAME] [-s STRATEGY] [--json]"
      " [--base N]\n"
      "           [--updates] [--id N] [--blackbox FILE]\n"
      "  blackbox <dump> [--json] [--id N]\n"
      "  lint     <file.er> [--json] [--schema-only] [--grid]"
      " [--query NAME|MCXPATH]\n"
      "           [--store PATH]\n"
      "  bench    [--scale S] [--reps N] [--bench NAME] [--json] [--out DIR]"
      " [--check]\n"
      "           [--strict] [--tolerance T] [--min-abs S] [--baselines DIR]"
      " [--list]\n"
      "  serve    <file.er> [--port P] [--threads N] [--base N] [--passes N]"
      " [--linger S]\n"
      "           [--updates] [--update-ops N] [--label-stride N]\n"
      "  update   <file.er> --store PATH [-s STRATEGY] [--base N] [--ops N]"
      " [--take K]\n"
      "           [--crash-after K] [--checkpoint] [--trace]\n"
      "  recover  <file.er> --store PATH [-s STRATEGY] [--base N]"
      " [--expect-store PATH2]\n"
      "  demo\n"
      "global flags:\n"
      "  --failpoints SPEC   arm fault injection points, e.g.\n"
      "                      'pager.read=err(0.005);persist.load=trunc'\n"
      "                      (also readable from $MCTDB_FAILPOINTS)\n"
      "  --flight-dump PATH  enable the flight recorder and dump the black\n"
      "                      box to PATH on fatal signals, on the first\n"
      "                      DataLoss/Unavailable escalation, and on the\n"
      "                      crash-injection exits of `mctc update`\n");
  return 1;
}

/// Strictly parses a numeric flag value: all of `text` must be a number in
/// [lo, hi], so "12x", "-1" for a count, overflow and NaN are rejected. A
/// bad value prints `error: bad <flag> '<text>'`; the caller exits 1.
template <typename T>
[[nodiscard]] bool ParseFlag(
    const char* flag, const char* text, T* out,
    std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
    std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  const char* end = text + std::strlen(text);
  T value{};
  auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || !(value >= lo && value <= hi)) {
    std::fprintf(stderr, "error: bad %s '%s'\n", flag, text);
    return false;
  }
  *out = value;
  return true;
}

Result<std::string> ReadFile(const char* path) {
  std::ifstream in(path);
  if (!in) return Status::IoError(std::string("cannot open ") + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Result<er::ErDiagram> LoadEr(const char* path) {
  MCTDB_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return er::ParseErDiagram(text);
}

int CmdValidate(const char* path) {
  auto diagram = LoadEr(path);
  if (!diagram.ok()) {
    std::fprintf(stderr, "error: %s\n", diagram.status().ToString().c_str());
    return 2;
  }
  er::ErGraph graph(*diagram);
  er::ErGraphStats stats = graph.Stats();
  std::printf("diagram '%s': %zu entities, %zu relationships "
              "(%zu 1:N, %zu M:N, %zu 1:1), forest=%s\n",
              diagram->name().c_str(), diagram->num_entities(),
              diagram->num_relationships(), stats.num_one_many,
              stats.num_many_many, stats.num_one_one,
              stats.is_forest ? "yes" : "no");
  auto feasibility = design::CheckSingleColorNnAr(graph);
  std::printf("single-color XML with NN+AR (Theorem 4.1): %s\n",
              feasibility.explanation.c_str());
  return 0;
}

int CmdReport(const char* path) {
  auto diagram = LoadEr(path);
  if (!diagram.ok()) {
    std::fprintf(stderr, "error: %s\n", diagram.status().ToString().c_str());
    return 2;
  }
  er::ErGraph graph(*diagram);
  design::Designer designer(graph);
  std::printf("%-8s %s\n", "schema", "properties");
  for (design::Strategy s : design::AllStrategies()) {
    mct::MctSchema schema = designer.Design(s);
    std::printf("%-8s %s\n", schema.name().c_str(),
                designer.Report(schema).ToString().c_str());
  }
  return 0;
}

int CmdDesign(int argc, char** argv) {
  const char* path = nullptr;
  const char* strategy_name = "MCMR";
  enum { kTree, kDtd, kDot } format = kTree;
  for (int i = 0; i < argc; ++i) {
    if (!std::strcmp(argv[i], "-s") && i + 1 < argc) {
      strategy_name = argv[++i];
    } else if (!std::strcmp(argv[i], "--dtd")) {
      format = kDtd;
    } else if (!std::strcmp(argv[i], "--dot")) {
      format = kDot;
    } else if (!std::strcmp(argv[i], "--tree")) {
      format = kTree;
    } else if (path == nullptr) {
      path = argv[i];
    }
  }
  if (path == nullptr) return Usage();
  auto diagram = LoadEr(path);
  if (!diagram.ok()) {
    std::fprintf(stderr, "error: %s\n", diagram.status().ToString().c_str());
    return 2;
  }
  auto strategy = design::ParseStrategy(strategy_name);
  if (!strategy.ok()) {
    std::fprintf(stderr, "error: %s\n", strategy.status().ToString().c_str());
    return 1;
  }
  er::ErGraph graph(*diagram);
  design::Designer designer(graph);
  mct::MctSchema schema = designer.Design(*strategy);
  switch (format) {
    case kTree:
      std::printf("%s", schema.DebugString().c_str());
      std::printf("properties: %s\n",
                  designer.Report(schema).ToString().c_str());
      break;
    case kDtd:
      std::printf("%s", mct::ExportDtd(schema).c_str());
      break;
    case kDot:
      std::printf("%s", mct::ExportDot(schema).c_str());
      break;
  }
  return 0;
}

int CmdPaths(int argc, char** argv) {
  const char* path = nullptr;
  size_t max_shown = 50;
  for (int i = 0; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--max") && i + 1 < argc) {
      if (!ParseFlag("--max", argv[++i], &max_shown)) return 1;
    } else if (path == nullptr) {
      path = argv[i];
    }
  }
  if (path == nullptr) return Usage();
  auto diagram = LoadEr(path);
  if (!diagram.ok()) {
    std::fprintf(stderr, "error: %s\n", diagram.status().ToString().c_str());
    return 2;
  }
  er::ErGraph graph(*diagram);
  auto paths = design::EnumerateEligiblePaths(graph);
  std::printf("%zu eligible associations\n", paths.size());
  for (size_t i = 0; i < paths.size() && i < max_shown; ++i) {
    const auto& p = paths[i];
    std::printf("  %s => %s  via %s\n",
                diagram->node(p.source).name.c_str(),
                diagram->node(p.target).name.c_str(),
                p.Label(*diagram).c_str());
  }
  if (paths.size() > max_shown) {
    std::printf("  ... (%zu more; --max to widen)\n",
                paths.size() - max_shown);
  }
  return 0;
}

int CmdMine(int argc, char** argv) {
  const char* path = nullptr;
  bool redesign = false;
  for (int i = 0; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--redesign")) {
      redesign = true;
    } else if (path == nullptr) {
      path = argv[i];
    }
  }
  if (path == nullptr) return Usage();
  auto text = ReadFile(path);
  if (!text.ok()) {
    std::fprintf(stderr, "error: %s\n", text.status().ToString().c_str());
    return 2;
  }
  auto doc = xml::ParseXml(*text);
  if (!doc.ok()) {
    std::fprintf(stderr, "xml error: %s\n", doc.status().ToString().c_str());
    return 2;
  }
  design::MiningReport report;
  auto mined = design::MineErDiagram(**doc, {}, &report);
  if (!mined.ok()) {
    std::fprintf(stderr, "mining error: %s\n",
                 mined.status().ToString().c_str());
    return 2;
  }
  std::printf("# mined from %s: %zu entity tags, %zu relationship tags "
              "(%zu structural, %zu idref edges)\n",
              path, report.entity_tags, report.relationship_tags,
              report.structural_edges, report.idref_edges);
  std::printf("%s", er::FormatErDiagram(*mined).c_str());
  if (redesign) {
    er::ErGraph graph(*mined);
    design::Designer designer(graph);
    mct::MctSchema dr = designer.Design(design::Strategy::kDr);
    std::printf("\n# redesigned (DUMC):\n%s", dr.DebugString().c_str());
  }
  return 0;
}

int CmdWorkload(int argc, char** argv) {
  const char* path = nullptr;
  size_t threads = 1;
  size_t base_count = 0;
  size_t reps = 1;
  bool stages = false;
  double update_fraction = 0.0;
  for (int i = 0; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
      if (!ParseFlag("--threads", argv[++i], &threads, 1)) return 1;
    } else if (!std::strcmp(argv[i], "--base") && i + 1 < argc) {
      if (!ParseFlag("--base", argv[++i], &base_count)) return 1;
    } else if (!std::strcmp(argv[i], "--reps") && i + 1 < argc) {
      if (!ParseFlag("--reps", argv[++i], &reps, 1)) return 1;
    } else if (!std::strcmp(argv[i], "--stages")) {
      stages = true;
    } else if (!std::strcmp(argv[i], "--update-fraction") && i + 1 < argc) {
      if (!ParseFlag("--update-fraction", argv[++i], &update_fraction, 0.0)) {
        return 1;
      }
    } else if (path == nullptr) {
      path = argv[i];
    }
  }
  if (path == nullptr) return Usage();
  auto diagram = LoadEr(path);
  if (!diagram.ok()) {
    std::fprintf(stderr, "error: %s\n", diagram.status().ToString().c_str());
    return 2;
  }
  workload::Workload w = workload::XmarkEmulatedWorkload(*diagram);
  if (base_count > 0) w.gen.base_count = base_count;
  workload::RunnerOptions options;
  options.num_threads = threads;
  options.repetitions = reps;
  options.update_fraction = update_fraction;
  auto summary = workload::RunWorkload(w, options);
  if (!summary.ok()) {
    std::fprintf(stderr, "error: %s\n", summary.status().ToString().c_str());
    return 2;
  }
  std::printf("# %s: %zu queries, %zu threads, %zu reps "
              "(setup %.3fs, grid %.3fs)\n",
              diagram->name().c_str(), w.figure_queries.size(), threads,
              reps, summary->setup_seconds, summary->grid_seconds);
  std::printf("%-8s %-6s %10s %10s %10s %12s %10s %10s\n", "schema",
              "query", "seconds", "unique", "raw", "page_misses",
              "page_hits", "pairs");
  for (const workload::Measurement& m : summary->measurements) {
    std::printf("%-8s %-6s %10.6f %10zu %10zu %12llu %10llu %10llu",
                m.schema.c_str(), m.query.c_str(), m.seconds,
                m.unique_results, m.raw_results,
                static_cast<unsigned long long>(m.page_misses),
                static_cast<unsigned long long>(m.page_hits),
                static_cast<unsigned long long>(m.join_pairs));
    if (m.wal_appends > 0) {
      std::printf("  wal=%llu/%llu",
                  static_cast<unsigned long long>(m.wal_appends),
                  static_cast<unsigned long long>(m.wal_fsyncs));
    }
    std::printf("\n");
    if (!stages) continue;
    // Per-stage breakdown of the last repetition: self time per stage
    // kind (rows sum to the query's elapsed time), plus the stage's own
    // output cardinality, join pairs, and attributed page I/O.
    for (size_t k = 0; k < obs::kNumStageKinds; ++k) {
      const obs::StageAgg& row = m.stages[k];
      if (row.calls == 0) continue;
      std::printf("    %-18s %9.3fms calls=%llu out=%llu pairs=%llu "
                  "pages %lluh/%llum\n",
                  obs::ToString(static_cast<obs::StageKind>(k)),
                  row.seconds * 1e3,
                  static_cast<unsigned long long>(row.calls),
                  static_cast<unsigned long long>(row.cardinality_out),
                  static_cast<unsigned long long>(row.join_pairs),
                  static_cast<unsigned long long>(row.page_hits),
                  static_cast<unsigned long long>(row.page_misses));
    }
  }
  for (const std::string& p : summary->problems) {
    std::fprintf(stderr, "problem: %s\n", p.c_str());
  }
  return summary->problems.empty() ? 0 : 2;
}

int CmdTrace(int argc, char** argv) {
  const char* path = nullptr;
  const char* strategy_name = "MCMR";
  const char* query_name = nullptr;
  const char* blackbox_path = nullptr;
  bool json = false;
  bool updates = false;
  bool has_id = false;
  uint64_t trace_filter = 0;
  size_t base_count = 0;
  for (int i = 0; i < argc; ++i) {
    if (!std::strcmp(argv[i], "-s") && i + 1 < argc) {
      strategy_name = argv[++i];
    } else if (!std::strcmp(argv[i], "--query") && i + 1 < argc) {
      query_name = argv[++i];
    } else if (!std::strcmp(argv[i], "--json")) {
      json = true;
    } else if (!std::strcmp(argv[i], "--updates")) {
      updates = true;
    } else if (!std::strcmp(argv[i], "--id") && i + 1 < argc) {
      has_id = true;
      if (!ParseFlag("--id", argv[++i], &trace_filter)) return 1;
    } else if (!std::strcmp(argv[i], "--blackbox") && i + 1 < argc) {
      blackbox_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--base") && i + 1 < argc) {
      if (!ParseFlag("--base", argv[++i], &base_count)) return 1;
    } else if (path == nullptr) {
      path = argv[i];
    }
  }
  // --blackbox: the events come from a recorder dump, no workload run (and
  // no .er file) needed — render the chosen trace's timeline and exit.
  if (blackbox_path != nullptr) {
    auto events = obs::flight::DecodeFile(blackbox_path);
    if (!events.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   events.status().ToString().c_str());
      return 2;
    }
    if (json) {
      std::printf("%s\n",
                  obs::flight::RenderJson(*events, trace_filter).c_str());
    } else {
      std::printf("%s",
                  obs::flight::RenderText(*events, trace_filter).c_str());
    }
    return 0;
  }
  if (path == nullptr) return Usage();
  auto diagram = LoadEr(path);
  if (!diagram.ok()) {
    std::fprintf(stderr, "error: %s\n", diagram.status().ToString().c_str());
    return 2;
  }
  auto strategy = design::ParseStrategy(strategy_name);
  if (!strategy.ok()) {
    std::fprintf(stderr, "error: %s\n", strategy.status().ToString().c_str());
    return 1;
  }
  er::ErGraph graph(*diagram);
  design::Designer designer(graph);
  workload::Workload w = workload::XmarkEmulatedWorkload(*diagram);
  if (base_count > 0) w.gen.base_count = base_count;

  std::vector<std::string> names;
  for (const std::string& name : w.figure_queries) {
    if (query_name == nullptr || name == query_name) names.push_back(name);
  }
  if (names.empty()) {
    std::fprintf(stderr, "error: no workload query named '%s'\n",
                 query_name == nullptr ? "" : query_name);
    return 2;
  }

  mct::MctSchema schema = designer.Design(*strategy);
  instance::LogicalInstance logical =
      instance::GenerateInstance(graph, w.gen);
  std::unique_ptr<storage::MctStore> store =
      instance::Materialize(logical, schema, {});

  // --id: run the workload THROUGH the query service with the flight
  // recorder on, so the printed timeline is the full request lifecycle —
  // admission, plan-cache outcome, executor stage spans, and (with
  // --updates) WAL append/group-commit — not just the executor's spans.
  // Each request's minted trace id is announced on stderr; --id 0 keeps
  // every trace.
  if (has_id) {
    obs::flight::Enable();
    auto durable = wal::DurableStore::Ephemeral(std::move(store));
    if (!durable.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   durable.status().ToString().c_str());
      return 2;
    }
    {
      mctsvc::ServiceOptions sopts;
      sopts.num_threads = 1;
      mctsvc::QueryService service(sopts);
      Status added =
          service.AddDurableStore(schema.name(), durable->get());
      if (!added.ok()) {
        std::fprintf(stderr, "error: %s\n", added.ToString().c_str());
        return 2;
      }
      auto session = service.OpenSession(schema.name());
      if (!session.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     session.status().ToString().c_str());
        return 2;
      }
      for (const std::string& name : names) {
        const query::AssociationQuery* q = w.Find(name);
        // The store is durable: its writes are the logged --updates ops,
        // never an update-form query's in-place rewrite.
        if (q->is_update()) continue;
        auto future = (*session)->SubmitQuery(*q);
        if (!future.ok()) {
          std::fprintf(stderr, "error: %s: %s\n", name.c_str(),
                       future.status().ToString().c_str());
          return 2;
        }
        auto result = future->get();
        if (!result.ok()) {
          std::fprintf(stderr, "error: %s: %s\n", name.c_str(),
                       result.status().ToString().c_str());
          return 2;
        }
        std::fprintf(stderr, "%s trace_id=%llu\n", name.c_str(),
                     static_cast<unsigned long long>(
                         result->trace.trace_id));
      }
      if (updates) {
        std::vector<mct::MctSchema> schemas_vec;
        schemas_vec.push_back(schema);
        std::vector<storage::UpdateOp> ops =
            workload::GenerateUpdateOps(schemas_vec, logical, {});
        for (const storage::UpdateOp& op : ops) {
          auto future = (*session)->SubmitUpdate(op);
          if (!future.ok()) continue;
          auto result = future->get();
          if (result.ok()) {
            std::fprintf(stderr, "%s trace_id=%llu lsn=%llu\n",
                         storage::UpdateKindName(op.kind),
                         static_cast<unsigned long long>(
                             result->trace.trace_id),
                         static_cast<unsigned long long>(result->lsn));
          }
        }
      }
      service.Drain();
    }
    std::vector<obs::flight::Event> events = obs::flight::Snapshot();
    if (json) {
      std::printf("%s\n",
                  obs::flight::RenderJson(events, trace_filter).c_str());
    } else {
      std::printf("%s",
                  obs::flight::RenderText(events, trace_filter).c_str());
    }
    return 0;
  }

  if (json) std::printf("{\"schema\":\"%s\",\"queries\":[", schema.name().c_str());
  bool first = true;
  for (const std::string& name : names) {
    const query::AssociationQuery* q = w.Find(name);
    if (q == nullptr) {
      std::fprintf(stderr, "error: unknown figure query %s\n", name.c_str());
      return 2;
    }
    auto plan = query::PlanQuery(*q, schema);
    if (!plan.ok()) {
      std::fprintf(stderr, "error: %s on %s: %s\n", name.c_str(),
                   schema.name().c_str(), plan.status().ToString().c_str());
      return 2;
    }
    query::Executor exec(store.get());
    auto result = exec.Execute(*plan);
    if (!result.ok()) {
      std::fprintf(stderr, "error: %s on %s: %s\n", name.c_str(),
                   schema.name().c_str(),
                   result.status().ToString().c_str());
      return 2;
    }
    if (json) {
      if (!first) std::printf(",");
      std::printf("%s", obs::SpanToJson(result->trace).c_str());
    } else {
      std::printf("%s", obs::SpanTreeToText(result->trace).c_str());
    }
    first = false;
  }
  if (json) std::printf("]}\n");

  // --updates: run the deterministic U1-U3 stream through an ephemeral
  // WAL-backed store and print each op's span tree — the kWal stages
  // (append, group_commit) show where the write path's time goes.
  if (updates) {
    std::vector<mct::MctSchema> schemas_vec;
    schemas_vec.push_back(schema);
    std::vector<storage::UpdateOp> ops =
        workload::GenerateUpdateOps(schemas_vec, logical, {});
    auto durable = wal::DurableStore::Ephemeral(std::move(store));
    if (!durable.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   durable.status().ToString().c_str());
      return 2;
    }
    query::UpdateExecutor uexec(durable->get());
    // Print in (lsn, start time) order, NOT completion order: group commit
    // lets an op whose fsync a later leader covered return after ops with
    // higher LSNs, and a trace listing that jumps around the LSN axis
    // misreads as reordered writes.
    struct UpdateTraceRow {
      Lsn lsn;
      uint64_t start_nanos;
      std::string rendered;
    };
    std::vector<UpdateTraceRow> rows;
    for (const storage::UpdateOp& op : ops) {
      auto result = uexec.Execute(op);
      if (!result.ok()) {
        std::fprintf(stderr, "error: %s: %s\n",
                     storage::DebugString(op).c_str(),
                     result.status().ToString().c_str());
        return 2;
      }
      rows.push_back({result->lsn, result->trace.start_nanos,
                      json ? obs::SpanToJson(result->trace) + "\n"
                           : obs::SpanTreeToText(result->trace)});
    }
    std::sort(rows.begin(), rows.end(),
              [](const UpdateTraceRow& a, const UpdateTraceRow& b) {
                return std::tie(a.lsn, a.start_nanos) <
                       std::tie(b.lsn, b.start_nanos);
              });
    for (const UpdateTraceRow& row : rows) {
      std::printf("%s", row.rendered.c_str());
    }
  }
  return 0;
}

// `mctc blackbox <dump> [--json] [--id N]`: decodes a flight-recorder dump
// (written by the crash handler, the escalation one-shot, or an explicit
// DumpToFile) into a per-event timeline, optionally filtered to one trace.
int CmdBlackbox(int argc, char** argv) {
  const char* path = nullptr;
  bool json = false;
  uint64_t trace_filter = 0;
  for (int i = 0; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--json")) {
      json = true;
    } else if (!std::strcmp(argv[i], "--id") && i + 1 < argc) {
      if (!ParseFlag("--id", argv[++i], &trace_filter)) return 1;
    } else if (path == nullptr) {
      path = argv[i];
    }
  }
  if (path == nullptr) return Usage();
  auto events = obs::flight::DecodeFile(path);
  if (!events.ok()) {
    std::fprintf(stderr, "error: %s\n", events.status().ToString().c_str());
    return 2;
  }
  if (json) {
    std::printf("%s\n",
                obs::flight::RenderJson(*events, trace_filter).c_str());
  } else {
    std::printf("# %zu events\n%s", events->size(),
                obs::flight::RenderText(*events, trace_filter).c_str());
  }
  return 0;
}

int CmdLint(int argc, char** argv) {
  const char* path = nullptr;
  const char* store_path = nullptr;
  const char* query_arg = nullptr;
  bool json = false;
  bool schema_only = false;
  bool grid = false;
  for (int i = 0; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--json")) {
      json = true;
    } else if (!std::strcmp(argv[i], "--schema-only")) {
      schema_only = true;
    } else if (!std::strcmp(argv[i], "--grid")) {
      grid = true;
    } else if (!std::strcmp(argv[i], "--query") && i + 1 < argc) {
      query_arg = argv[++i];
    } else if (!std::strcmp(argv[i], "--store") && i + 1 < argc) {
      store_path = argv[++i];
    } else if (path == nullptr) {
      path = argv[i];
    }
  }
  if (path == nullptr) return Usage();
  auto diagram = LoadEr(path);
  if (!diagram.ok()) {
    std::fprintf(stderr, "error: %s\n", diagram.status().ToString().c_str());
    return 2;
  }
  er::ErGraph graph(*diagram);
  design::Designer designer(graph);
  workload::Workload w = workload::XmarkEmulatedWorkload(*diagram);

  std::vector<mct::MctSchema> schemas;
  schemas.reserve(design::AllStrategies().size());
  for (design::Strategy s : design::AllStrategies()) {
    schemas.push_back(designer.Design(s));
  }
  std::vector<const mct::MctSchema*> schema_ptrs;
  schema_ptrs.reserve(schemas.size());
  for (const mct::MctSchema& s : schemas) schema_ptrs.push_back(&s);

  analysis::DiagnosticReport combined;

  auto emit = [&]() {
    if (json) {
      std::printf("%s\n", combined.ToJson().c_str());
    } else {
      std::printf("%s", combined.ToText().c_str());
    }
    // Exit contract (README): 0 = no error-severity findings (warnings
    // and notes still print), 1 = error diagnostics found, 2 = internal
    // or input error (unreadable file, bad syntax).
    return combined.has_errors() ? 1 : 0;
  };

  // --query: analyze ONE query (a workload query by name, or an MC-XPath
  // expression starting with '/') against every designer schema, with
  // cross-schema divergence (QRY011).
  if (query_arg != nullptr) {
    if (query_arg[0] == '/') {
      auto parsed = query::ParseMcXPath(query_arg);
      if (!parsed.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     parsed.status().ToString().c_str());
        return 2;
      }
      combined.MergeFrom(
          analysis::AnalyzeMcXPathAcrossSchemas(*parsed, schema_ptrs));
    } else {
      const query::AssociationQuery* found = nullptr;
      for (const query::AssociationQuery& q : w.queries) {
        if (q.name == query_arg) found = &q;
      }
      if (found == nullptr) {
        std::fprintf(stderr,
                     "error: no workload query named '%s' (try Q1..Q%zu, "
                     "or pass an MC-XPath starting with '/')\n",
                     query_arg, w.queries.size());
        return 2;
      }
      combined.MergeFrom(
          analysis::AnalyzeQueryAcrossSchemas(*found, schema_ptrs));
    }
    return emit();
  }

  for (const mct::MctSchema& schema : schemas) {
    // Schema lint, cross-checking the normal-form flags the designer
    // claims for this strategy against re-derived ones.
    design::DesignReport dr = designer.Report(schema);
    analysis::NormalFormClaims claims;
    claims.node_normal = dr.node_normal;
    claims.edge_normal = dr.edge_normal;
    claims.association_recoverable = dr.association_recoverable;
    claims.fully_direct_recoverable = dr.fully_direct_recoverable;
    analysis::SchemaLintOptions lint_options;
    lint_options.claims = &claims;
    combined.MergeFrom(analysis::LintSchema(schema, lint_options),
                       schema.name());

    // Plan verification over the emulated workload.
    if (schema_only) continue;
    for (const query::AssociationQuery& q : w.queries) {
      std::string loc = schema.name() + "/" + q.name;
      auto plan = query::PlanQuery(q, schema);
      if (!plan.ok()) {
        combined.Error("PLN000", loc,
                       "planner rejected query: " +
                           plan.status().ToString());
        continue;
      }
      combined.MergeFrom(analysis::VerifyPlan(*plan), loc);
    }
  }

  // --grid: the full static-analysis grid — every workload query analyzed
  // against every designer schema, including cross-schema divergence.
  if (grid && !schema_only) {
    for (const query::AssociationQuery& q : w.queries) {
      combined.MergeFrom(
          analysis::AnalyzeQueryAcrossSchemas(q, schema_ptrs));
    }
  }

  // WAL-state diagnostics for an on-disk store: tail newer than the
  // checkpoint (will recover on open), torn tail, oversized
  // checkpoint-less log.
  if (store_path != nullptr) {
    wal::LintWal(store_path, {}, &combined);
  }

  return emit();
}

Status WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << text;
  out.close();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

// Runs the registered in-process benchmarks (bench/suite.h; the same
// measurement code the standalone bench binaries use), writes one
// BENCH_<name>.json per benchmark plus a combined document, and with
// --check gates each report against the committed baselines.
int CmdBench(int argc, char** argv) {
  double scale = 1.0;
  size_t reps = 3;
  const char* only = nullptr;
  bool combined_to_stdout = false;
  std::string out_dir = ".";
  bool check = false;
  bench::CheckOptions check_options;
  std::string baselines_dir = "bench/baselines";

  for (int i = 0; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--list")) {
      for (const bench::BenchmarkDef& def : bench::RegisteredBenchmarks()) {
        std::printf("%-10s %s\n", def.name, def.description);
      }
      return 0;
    } else if (!std::strcmp(argv[i], "--scale") && i + 1 < argc) {
      if (!bench::ParseScale(argv[++i], &scale)) {
        std::fprintf(stderr, "error: bad --scale '%s'\n", argv[i]);
        return 1;
      }
    } else if (!std::strcmp(argv[i], "--reps") && i + 1 < argc) {
      if (!ParseFlag("--reps", argv[++i], &reps, 1, 1000)) return 1;
    } else if (!std::strcmp(argv[i], "--bench") && i + 1 < argc) {
      only = argv[++i];
    } else if (!std::strcmp(argv[i], "--json")) {
      combined_to_stdout = true;
    } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (!std::strcmp(argv[i], "--check")) {
      check = true;
    } else if (!std::strcmp(argv[i], "--strict")) {
      check_options.strict_new_records = true;
    } else if (!std::strcmp(argv[i], "--tolerance") && i + 1 < argc) {
      if (!ParseFlag("--tolerance", argv[++i], &check_options.tolerance,
                     0.0)) {
        return 1;
      }
    } else if (!std::strcmp(argv[i], "--min-abs") && i + 1 < argc) {
      if (!ParseFlag("--min-abs", argv[++i], &check_options.min_abs_seconds,
                     0.0)) {
        return 1;
      }
    } else if (!std::strcmp(argv[i], "--baselines") && i + 1 < argc) {
      baselines_dir = argv[++i];
    } else {
      std::fprintf(stderr, "error: unknown bench argument '%s'\n", argv[i]);
      return Usage();
    }
  }
  if (only != nullptr && bench::FindBenchmark(only) == nullptr) {
    std::fprintf(stderr, "error: no registered benchmark named '%s' "
                         "(try --list)\n", only);
    return 1;
  }

  bench::SuiteOptions suite_options;
  suite_options.scale = scale;
  suite_options.repetitions = reps;

  std::vector<bench::BenchReport> reports;
  size_t regressions = 0;
  for (const bench::BenchmarkDef& def : bench::RegisteredBenchmarks()) {
    if (only != nullptr && std::strcmp(def.name, only) != 0) continue;
    bench::BenchReport report = def.fn(suite_options);
    std::string path = out_dir + "/BENCH_" + def.name + ".json";
    Status written = WriteText(path, report.ToJson() + "\n");
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 2;
    }
    std::fprintf(stderr, "wrote %s (%zu records)\n", path.c_str(),
                 report.records.size());
    if (check) {
      std::string baseline_path =
          baselines_dir + "/BENCH_" + std::string(def.name) + ".json";
      auto baseline = bench::LoadBenchReport(baseline_path);
      if (!baseline.ok()) {
        // A benchmark without a loadable baseline cannot be gated — that
        // is itself a gate failure, never a silent pass.
        std::fprintf(stderr, "REGRESSION %s: baseline %s: %s\n", def.name,
                     baseline_path.c_str(),
                     baseline.status().ToString().c_str());
        ++regressions;
      } else {
        bench::CheckResult verdict =
            bench::CheckAgainstBaseline(report, *baseline, check_options);
        for (const std::string& line : verdict.notes) {
          std::fprintf(stderr, "note %s: %s\n", def.name, line.c_str());
        }
        for (const std::string& line : verdict.regressions) {
          std::fprintf(stderr, "REGRESSION %s: %s\n", def.name,
                       line.c_str());
        }
        regressions += verdict.regressions.size();
      }
    }
    reports.push_back(std::move(report));
  }

  std::string combined = bench::CombineReports(reports);
  Status written = WriteText(out_dir + "/BENCH_combined.json", combined + "\n");
  if (!written.ok()) {
    std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
    return 2;
  }
  if (combined_to_stdout) std::printf("%s\n", combined.c_str());
  if (check) {
    std::fprintf(stderr, "gate: %zu regression(s) at tolerance %.2f "
                         "(min abs %.3fs)\n",
                 regressions, check_options.tolerance,
                 check_options.min_abs_seconds);
    if (regressions > 0) return 2;
  }
  return 0;
}

/// Pulls `key=value` out of an HTTP query string ("store=X&count=2").
std::string QueryParam(const std::string& query, const std::string& key) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < amp &&
        query.compare(pos, eq - pos, key) == 0) {
      return query.substr(eq + 1, amp - eq - 1);
    }
    pos = amp + 1;
  }
  return std::string();
}

/// Most update ops one POST /update applies. The listener serves
/// connections one at a time, so a larger batch would stall every scrape.
constexpr uint64_t kMaxUpdatesPerPost = 1000;

// Drives the emulated workload of an ER design through the query service
// with the HTTP observability endpoint live, so /metrics, /metrics.json,
// /healthz, /slowlog, /statusz and /flightz can be scraped while real
// queries execute.
int CmdServe(int argc, char** argv) {
  const char* path = nullptr;
  int port = 8080;
  size_t threads = 2;
  size_t base_count = 0;
  size_t passes = 2;
  double linger_seconds = 0.0;
  bool updates = false;
  size_t update_ops = 512;
  uint32_t label_stride = 0;  // 0 = store default
  for (int i = 0; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--port") && i + 1 < argc) {
      if (!ParseFlag("--port", argv[++i], &port, 0, 65535)) return 1;
    } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
      if (!ParseFlag("--threads", argv[++i], &threads, 1)) return 1;
    } else if (!std::strcmp(argv[i], "--base") && i + 1 < argc) {
      if (!ParseFlag("--base", argv[++i], &base_count)) return 1;
    } else if (!std::strcmp(argv[i], "--passes") && i + 1 < argc) {
      if (!ParseFlag("--passes", argv[++i], &passes, 1)) return 1;
    } else if (!std::strcmp(argv[i], "--linger") && i + 1 < argc) {
      if (!ParseFlag("--linger", argv[++i], &linger_seconds, 0.0)) return 1;
    } else if (!std::strcmp(argv[i], "--updates")) {
      updates = true;
    } else if (!std::strcmp(argv[i], "--update-ops") && i + 1 < argc) {
      if (!ParseFlag("--update-ops", argv[++i], &update_ops)) return 1;
    } else if (!std::strcmp(argv[i], "--label-stride") && i + 1 < argc) {
      if (!ParseFlag("--label-stride", argv[++i], &label_stride)) return 1;
    } else if (path == nullptr) {
      path = argv[i];
    }
  }
  if (path == nullptr) return Usage();
  // /flightz is a live recorder snapshot, so serve always records;
  // --flight-dump additionally arms the crash/escalation dump triggers.
  obs::flight::Enable();
  // Lifecycle events (store registration, endpoint URL, slow queries) go
  // to stderr as JSONL; an explicit MCTDB_LOG_LEVEL still wins.
  if (std::getenv("MCTDB_LOG_LEVEL") == nullptr) {
    mctdb::logging::SetMinLevel(mctdb::logging::Level::kInfo);
  }
  auto diagram = LoadEr(path);
  if (!diagram.ok()) {
    std::fprintf(stderr, "error: %s\n", diagram.status().ToString().c_str());
    return 2;
  }
  er::ErGraph graph(*diagram);
  design::Designer designer(graph);
  workload::Workload w = workload::XmarkEmulatedWorkload(*diagram);
  if (base_count > 0) w.gen.base_count = base_count;
  instance::LogicalInstance logical =
      instance::GenerateInstance(graph, w.gen);

  // The stores keep pointers into `schemas`; finish growing the vector
  // before materializing against its elements.
  std::vector<mct::MctSchema> schemas;
  for (design::Strategy s : design::AllStrategies()) {
    schemas.push_back(designer.Design(s));
  }
  instance::MaterializeOptions mopts;
  if (label_stride > 0) mopts.store.label_stride = label_stride;
  std::vector<std::unique_ptr<storage::MctStore>> stores;
  std::vector<std::unique_ptr<wal::DurableStore>> durables;
  if (updates) {
    // WAL-backed ephemeral stores: the full write path (group commit,
    // snapshots, maintenance) without touching the filesystem.
    for (const mct::MctSchema& schema : schemas) {
      auto d = wal::DurableStore::Ephemeral(
          instance::Materialize(logical, schema, mopts));
      if (!d.ok()) {
        std::fprintf(stderr, "error: %s\n", d.status().ToString().c_str());
        return 2;
      }
      durables.push_back(std::move(*d));
    }
  } else {
    for (const mct::MctSchema& schema : schemas) {
      stores.push_back(instance::Materialize(logical, schema, mopts));
    }
  }
  // POST /update state. Each store gets its own deterministic stream:
  // the cross-schema eligibility filter keeps only ops EVERY schema can
  // place, and for realistic diagrams that intersection contains no
  // inserts at all (each schema nests a relationship differently), so a
  // shared stream could never build interval-label gap pressure. When a
  // store drains its stream the cursor wraps: the stream is regenerated
  // with a fresh logical-id base but the same deterministic parent
  // targets, so successive wraps stack children under the same parents
  // until the gap-pressure maintenance trigger (or the saturation stall
  // path) fires. The listener thread serves connections serially, so the
  // cursors need no lock. Declared before `service` so the route
  // handler's captures outlive the endpoint.
  struct UpdateStream {
    size_t schema_index = 0;
    std::vector<storage::UpdateOp> ops;
    size_t next = 0;
    uint32_t wrap = 0;
    std::shared_ptr<mctsvc::QueryService::Session> session;
  };
  std::map<std::string, UpdateStream> cursors;

  mctsvc::ServiceOptions options;
  options.num_threads = threads;
  options.http_port = port;
  options.slow_query_seconds = 1e-4;  // populate /slowlog under toy loads
  if (updates) {
    // Self-maintenance with toy-sized thresholds so the smoke workload
    // crosses them in seconds, not gigabytes.
    options.maintenance_enabled = true;
    options.maintenance.wal_bytes_threshold = 256 << 10;
    options.maintenance.gap_pressure_min_free = 2;
    options.maintenance.poll_seconds = 0.02;
  }
  mctsvc::QueryService service(options);
  for (size_t i = 0; i < schemas.size(); ++i) {
    Status added =
        updates
            ? service.AddDurableStore(schemas[i].name(), durables[i].get())
            : service.AddStore(schemas[i].name(), stores[i].get());
    if (!added.ok()) {
      std::fprintf(stderr, "error: %s\n", added.ToString().c_str());
      return 2;
    }
  }
  if (service.HttpPort() == 0) {
    std::fprintf(stderr, "error: HTTP endpoint failed to bind port %d\n",
                 port);
    return 2;
  }
  if (updates) {
    for (size_t i = 0; i < schemas.size(); ++i) {
      auto session = service.OpenSession(schemas[i].name());
      if (!session.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     session.status().ToString().c_str());
        return 2;
      }
      UpdateStream& cursor = cursors[schemas[i].name()];
      cursor.schema_index = i;
      cursor.session = *session;
      workload::UpdateGenOptions gen;
      gen.num_ops = update_ops;
      cursor.ops = workload::GenerateUpdateOps({schemas[i]}, logical, gen);
    }
    const std::string default_store = schemas.front().name();
    service.AddHttpRoute(
        "/update",
        [&schemas, &logical, &cursors, update_ops,
         default_store](const mctsvc::HttpRequest& req) {
          mctsvc::HttpResponse response;
          response.content_type = "application/json";
          if (req.method != "POST") {
            response.status = 405;
            response.body = "{\"error\":\"POST only\"}\n";
            return response;
          }
          std::string store = QueryParam(req.query, "store");
          if (store.empty()) store = default_store;
          auto it = cursors.find(store);
          if (it == cursors.end()) {
            response.status = 404;
            response.body = "{\"error\":\"unknown store\"}\n";
            return response;
          }
          uint64_t count = 1;
          if (std::string c = QueryParam(req.query, "count");
              !c.empty() && (!mctdb::ParseUint64(c, &count) || count == 0 ||
                             count > kMaxUpdatesPerPost)) {
            response.status = 400;
            response.body = mctdb::StringPrintf(
                "{\"error\":\"count must be an integer in 1..%llu\"}\n",
                static_cast<unsigned long long>(kMaxUpdatesPerPost));
            return response;
          }
          UpdateStream& cursor = it->second;
          size_t applied = 0, skipped = 0;
          std::string last_error;
          bool unavailable = false;
          while (count-- > 0) {
            if (cursor.next >= cursor.ops.size()) {
              // Wrap: fresh logical ids, same deterministic parent
              // targets — each wrap stacks more children under the same
              // parents, shrinking bounded label gaps.
              workload::UpdateGenOptions gen;
              gen.num_ops = update_ops;
              gen.logical_id_base += ++cursor.wrap * 200000u;
              cursor.ops = workload::GenerateUpdateOps(
                  {schemas[cursor.schema_index]}, logical, gen);
              cursor.next = 0;
              if (cursor.ops.empty()) break;
            }
            const storage::UpdateOp& op = cursor.ops[cursor.next];
            auto future = cursor.session->SubmitUpdate(op);
            Result<query::UpdateExecResult> result =
                future.ok() ? future->get()
                            : Result<query::UpdateExecResult>(
                                  future.status());
            if (result.ok()) {
              ++applied;
              ++cursor.next;
            } else if (result.status().IsAlreadyExists() ||
                       result.status().IsNotFound() ||
                       result.status().IsNotSupported()) {
              // Deterministic stream replayed against state that already
              // has the op (or an op no color of this schema realizes):
              // a skip, exactly like recovery's replay rules.
              ++skipped;
              ++cursor.next;
            } else {
              // Degraded-mode refusals (read-only store, stall budget
              // spent) leave the cursor so a later retry can succeed.
              last_error = result.status().ToString();
              unavailable = result.status().IsUnavailable() ||
                            result.status().IsResourceExhausted();
              break;
            }
          }
          response.status = last_error.empty() ? 200
                            : unavailable      ? 503
                                               : 500;
          response.body = mctdb::StringPrintf(
              "{\"store\":\"%s\",\"applied\":%zu,\"skipped\":%zu,"
              "\"index\":%zu,\"total\":%zu,\"wrap\":%u%s%s%s}\n",
              store.c_str(), applied, skipped, cursor.next,
              cursor.ops.size(), unsigned(cursor.wrap),
              last_error.empty() ? "" : ",\"error\":\"",
              last_error.empty() ? "" : obs::JsonEscape(last_error).c_str(),
              last_error.empty() ? "" : "\"");
          return response;
        });
  }
  std::printf("serving http://127.0.0.1:%u  (/metrics /metrics.json "
              "/healthz /slowlog /statusz /flightz%s)\n",
              unsigned(service.HttpPort()),
              updates ? " POST:/update" : "");
  // Scrape scripts read the port from this line; don't sit in the stdio
  // buffer while the workload runs.
  std::fflush(stdout);

  // Keep every plan alive until its future resolves.
  std::vector<std::unique_ptr<query::QueryPlan>> plans;
  size_t executed = 0, failed = 0;
  for (size_t pass = 0; pass < passes; ++pass) {
    for (size_t i = 0; i < schemas.size(); ++i) {
      auto session = service.OpenSession(schemas[i].name());
      if (!session.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     session.status().ToString().c_str());
        return 2;
      }
      std::vector<mctsvc::QueryFuture> futures;
      for (const std::string& name : w.figure_queries) {
        const query::AssociationQuery* q = w.Find(name);
        // Durable stores take writes only through POST /update.
        if (updates && q->is_update()) continue;
        auto plan = query::PlanQuery(*q, schemas[i]);
        if (!plan.ok()) {
          ++failed;
          continue;
        }
        plans.push_back(std::make_unique<query::QueryPlan>(std::move(*plan)));
        auto future = (*session)->Submit(*plans.back());
        if (!future.ok()) {
          ++failed;
          continue;
        }
        futures.push_back(std::move(*future));
      }
      for (mctsvc::QueryFuture& f : futures) {
        auto result = f.get();
        result.ok() ? ++executed : ++failed;
      }
    }
  }
  service.Drain();
  std::printf("workload done: %zu queries executed, %zu failed "
              "(%zu passes over %zu schemas)\n",
              executed, failed, passes, schemas.size());
  if (linger_seconds > 0) {
    std::printf("lingering %.1fs for scrapes...\n", linger_seconds);
    std::fflush(stdout);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(linger_seconds));
  }
  return failed == 0 ? 0 : 2;
}


/// Shared setup for the update/recover commands: one strategy's schema plus
/// the deterministic logical instance it stores. The op stream and the
/// equivalence oracle both derive from this, so a store written by
/// `mctc update` and reopened by `mctc recover` agree on every input.
struct UpdateWorld {
  // Declaration order matters: graph points into diagram, schema and
  // logical point into graph. The struct lives behind a unique_ptr so the
  // addresses stay stable.
  er::ErDiagram diagram;
  er::ErGraph graph;
  mct::MctSchema schema;
  workload::Workload workload;
  instance::LogicalInstance logical;

  UpdateWorld(er::ErDiagram d, const design::Strategy& strategy,
              size_t base_count)
      : diagram(std::move(d)),
        graph(diagram),
        schema(design::Designer(graph).Design(strategy)),
        workload(workload::XmarkEmulatedWorkload(diagram)),
        logical([&] {
          if (base_count > 0) workload.gen.base_count = base_count;
          return instance::GenerateInstance(graph, workload.gen);
        }()) {}
};

int BuildUpdateWorld(const char* path, const char* strategy_name,
                     size_t base_count, std::unique_ptr<UpdateWorld>* out) {
  auto diagram = LoadEr(path);
  if (!diagram.ok()) {
    std::fprintf(stderr, "error: %s\n", diagram.status().ToString().c_str());
    return 2;
  }
  auto strategy = design::ParseStrategy(strategy_name);
  if (!strategy.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 strategy.status().ToString().c_str());
    return 1;
  }
  *out = std::make_unique<UpdateWorld>(*std::move(diagram), *strategy,
                                       base_count);
  return 0;
}

/// `mctc update <file.er> --store PATH [...]`: applies the deterministic
/// U1-U3 stream through the WAL. First run against a missing store file
/// materializes and saves it; later runs reopen it (with recovery). The
/// stream is a pure function of (schema, instance), so --take K on a fresh
/// store builds exactly the state a crashed run's first K ops produced —
/// that is the CI crash matrix's equivalence oracle.
int CmdUpdate(int argc, char** argv) {
  const char* path = nullptr;
  const char* store_path = nullptr;
  const char* strategy_name = "MCMR";
  size_t base_count = 0;
  size_t num_ops = 8;
  size_t take = 0;         // 0 = all
  long crash_after = -1;   // -1 = never
  bool do_checkpoint = false;
  bool trace = false;
  for (int i = 0; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--store") && i + 1 < argc) {
      store_path = argv[++i];
    } else if (!std::strcmp(argv[i], "-s") && i + 1 < argc) {
      strategy_name = argv[++i];
    } else if (!std::strcmp(argv[i], "--base") && i + 1 < argc) {
      if (!ParseFlag("--base", argv[++i], &base_count)) return 1;
    } else if (!std::strcmp(argv[i], "--ops") && i + 1 < argc) {
      if (!ParseFlag("--ops", argv[++i], &num_ops)) return 1;
    } else if (!std::strcmp(argv[i], "--take") && i + 1 < argc) {
      if (!ParseFlag("--take", argv[++i], &take)) return 1;
    } else if (!std::strcmp(argv[i], "--crash-after") && i + 1 < argc) {
      if (!ParseFlag("--crash-after", argv[++i], &crash_after, 0)) return 1;
    } else if (!std::strcmp(argv[i], "--checkpoint")) {
      do_checkpoint = true;
    } else if (!std::strcmp(argv[i], "--trace")) {
      trace = true;
    } else if (path == nullptr) {
      path = argv[i];
    }
  }
  if (path == nullptr || store_path == nullptr) return Usage();

  std::unique_ptr<UpdateWorld> world;
  if (int rc = BuildUpdateWorld(path, strategy_name, base_count, &world)) {
    return rc;
  }

  bool store_exists = std::ifstream(store_path).good();
  mctdb::Result<std::unique_ptr<wal::DurableStore>> durable =
      std::unique_ptr<wal::DurableStore>();
  if (store_exists) {
    durable = wal::DurableStore::Open(world->schema, store_path);
  } else {
    durable = wal::DurableStore::Create(
        instance::Materialize(world->logical, world->schema, {}), store_path);
  }
  if (!durable.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", store_path,
                 durable.status().ToString().c_str());
    return 2;
  }
  if (store_exists) {
    const wal::RecoveryStats& r = (*durable)->recovery();
    if (r.replayed_records > 0 || r.truncated_bytes > 0) {
      std::printf("recovered: replayed=%llu truncated_bytes=%llu\n",
                  static_cast<unsigned long long>(r.replayed_records),
                  static_cast<unsigned long long>(r.truncated_bytes));
    }
  }

  std::vector<mct::MctSchema> schemas_vec;
  schemas_vec.push_back(world->schema);
  workload::UpdateGenOptions gen;
  gen.num_ops = num_ops;
  std::vector<storage::UpdateOp> ops =
      workload::GenerateUpdateOps(schemas_vec, world->logical, gen);
  if (take > 0 && take < ops.size()) ops.resize(take);

  query::UpdateExecutor uexec(durable->get());
  size_t applied = 0;
  size_t skipped = 0;
  for (const storage::UpdateOp& op : ops) {
    auto result = uexec.Execute(op);
    if (!result.ok()) {
      // The stream is deterministic, so reopening a store and re-running
      // replays ops it already holds. Mirror recovery's idempotent-replay
      // rules: already-done ops are skips, not failures.
      if (result.status().IsAlreadyExists() ||
          result.status().IsNotFound()) {
        ++skipped;
        continue;
      }
      std::fprintf(stderr, "error: %s: %s\n",
                   storage::DebugString(op).c_str(),
                   result.status().ToString().c_str());
      return 2;
    }
    if (trace) {
      std::printf("%s", obs::SpanTreeToText(result->trace).c_str());
    }
    ++applied;
    // Crash injection for the CI recovery matrix: die without flushing or
    // checkpointing the moment op K has committed. The WAL is the only
    // thing carrying those K ops; recovery must rebuild them.
    if (crash_after >= 0 && applied == static_cast<size_t>(crash_after)) {
      std::fflush(stdout);
      // _Exit raises no signal, so the crash handler never fires; flush
      // the black box explicitly so the post-mortem still has the
      // admission/WAL events leading up to the "crash".
      if (obs::flight::Enabled() && obs::flight::DumpPath()[0] != '\0') {
        (void)obs::flight::DumpToConfiguredPath();
      }
      std::_Exit(137);
    }
  }

  std::printf("applied %zu ops (%zu already present)"
              "  wal_appends=%llu wal_fsyncs=%llu\n",
              applied, skipped,
              static_cast<unsigned long long>((*durable)->wal_appends()),
              static_cast<unsigned long long>((*durable)->wal_fsyncs()));
  if (do_checkpoint) {
    auto cp = (*durable)->Checkpoint();
    if (!cp.ok()) {
      std::fprintf(stderr, "error: checkpoint: %s\n",
                   cp.status().ToString().c_str());
      return 2;
    }
    std::printf("checkpoint: lsn=%llu trimmed_bytes=%llu\n",
                static_cast<unsigned long long>(cp->checkpoint_lsn),
                static_cast<unsigned long long>(cp->log_bytes_trimmed));
  }
  return 0;
}

/// `mctc recover <file.er> --store PATH [...]`: reopens a (possibly
/// crashed) store, prints the recovery stats, and with --expect-store
/// proves the recovered state answers every workload read query with the
/// same logicals as a reference store built without the crash.
int CmdRecover(int argc, char** argv) {
  const char* path = nullptr;
  const char* store_path = nullptr;
  const char* expect_path = nullptr;
  const char* strategy_name = "MCMR";
  size_t base_count = 0;
  bool json = false;
  for (int i = 0; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--store") && i + 1 < argc) {
      store_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--expect-store") && i + 1 < argc) {
      expect_path = argv[++i];
    } else if (!std::strcmp(argv[i], "-s") && i + 1 < argc) {
      strategy_name = argv[++i];
    } else if (!std::strcmp(argv[i], "--base") && i + 1 < argc) {
      if (!ParseFlag("--base", argv[++i], &base_count)) return 1;
    } else if (!std::strcmp(argv[i], "--json")) {
      json = true;
    } else if (path == nullptr) {
      path = argv[i];
    }
  }
  if (path == nullptr || store_path == nullptr) return Usage();

  std::unique_ptr<UpdateWorld> world;
  if (int rc = BuildUpdateWorld(path, strategy_name, base_count, &world)) {
    return rc;
  }

  auto durable = wal::DurableStore::Open(world->schema, store_path);
  if (!durable.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", store_path,
                 durable.status().ToString().c_str());
    return 2;
  }
  const wal::RecoveryStats& r = (*durable)->recovery();
  if (json) {
    std::printf(
        "{\"scanned\":%llu,\"replayed\":%llu,\"skipped\":%llu,"
        "\"truncated_bytes\":%llu,\"log_reset\":%s,\"last_lsn\":%llu}\n",
        static_cast<unsigned long long>(r.scanned_records),
        static_cast<unsigned long long>(r.replayed_records),
        static_cast<unsigned long long>(r.skipped_records),
        static_cast<unsigned long long>(r.truncated_bytes),
        r.log_reset ? "true" : "false",
        static_cast<unsigned long long>(r.last_lsn));
  } else {
    std::printf(
        "recovery: scanned=%llu replayed=%llu skipped=%llu"
        " truncated_bytes=%llu log_reset=%s last_lsn=%llu\n",
        static_cast<unsigned long long>(r.scanned_records),
        static_cast<unsigned long long>(r.replayed_records),
        static_cast<unsigned long long>(r.skipped_records),
        static_cast<unsigned long long>(r.truncated_bytes),
        r.log_reset ? "true" : "false",
        static_cast<unsigned long long>(r.last_lsn));
  }

  if (expect_path == nullptr) return 0;

  auto expect = wal::DurableStore::Open(world->schema, expect_path);
  if (!expect.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", expect_path,
                 expect.status().ToString().c_str());
    return 2;
  }
  // Query-equivalence proof: both stores hold the same MCT schema of the
  // same logical instance, so every read query must return identical
  // logical-id sets. Compare with each store's own recovered snapshot.
  size_t compared = 0;
  size_t mismatches = 0;
  for (const std::string& name : world->workload.figure_queries) {
    const query::AssociationQuery* q = world->workload.Find(name);
    if (q == nullptr || q->is_update()) continue;
    auto plan = query::PlanQuery(*q, world->schema);
    if (!plan.ok()) continue;  // schema variant can't express it; skip
    query::Executor got_exec(durable->get()->store());
    got_exec.set_snapshot(durable->get()->snapshot());
    query::Executor want_exec(expect->get()->store());
    want_exec.set_snapshot(expect->get()->snapshot());
    auto got = got_exec.Execute(*plan);
    auto want = want_exec.Execute(*plan);
    if (!got.ok() || !want.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", name.c_str(),
                   (!got.ok() ? got : want).status().ToString().c_str());
      return 2;
    }
    ++compared;
    if (got->logicals != want->logicals) {
      ++mismatches;
      std::fprintf(stderr,
                   "mismatch: %s returned %zu logicals, expected %zu\n",
                   name.c_str(), got->logicals.size(),
                   want->logicals.size());
    }
  }
  std::printf("equivalence: %zu queries compared, %zu mismatches\n",
              compared, mismatches);
  return mismatches == 0 ? 0 : 2;
}

int CmdDemo() {
  er::ErDiagram diagram = er::Tpcw();
  std::printf("%s\n", er::FormatErDiagram(diagram).c_str());
  er::ErGraph graph(diagram);
  design::Designer designer(graph);
  for (design::Strategy s : design::AllStrategies()) {
    mct::MctSchema schema = designer.Design(s);
    std::printf("%-8s %s\n", schema.name().c_str(),
                designer.Report(schema).ToString().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Global flag, accepted anywhere on the command line: arm failpoints
  // for fault-injection runs (same grammar as MCTDB_FAILPOINTS, e.g.
  // --failpoints 'pager.read=err(0.005);persist.load=trunc').
  for (int i = 1; i + 1 < argc;) {
    if (std::strcmp(argv[i], "--failpoints") != 0) {
      ++i;
      continue;
    }
    std::string error;
    if (!failpoint::Configure(argv[i + 1], &error)) {
      std::fprintf(stderr, "error: bad --failpoints spec: %s\n",
                   error.c_str());
      return 1;
    }
    for (int j = i; j + 2 <= argc; ++j) argv[j] = argv[j + 2];
    argc -= 2;
  }
  // Global flag: turn the flight recorder on and arm every dump trigger
  // (fatal-signal handler, Status-escalation one-shot, and the explicit
  // dump in `mctc update --crash-after`).
  for (int i = 1; i + 1 < argc;) {
    if (std::strcmp(argv[i], "--flight-dump") != 0) {
      ++i;
      continue;
    }
    obs::flight::Enable();
    obs::flight::SetDumpPath(argv[i + 1]);
    obs::flight::InstallCrashHandler();
    for (int j = i; j + 2 <= argc; ++j) argv[j] = argv[j + 2];
    argc -= 2;
  }
  if (argc < 2) return Usage();
  const char* cmd = argv[1];
  if (!std::strcmp(cmd, "validate") && argc >= 3) return CmdValidate(argv[2]);
  if (!std::strcmp(cmd, "report") && argc >= 3) return CmdReport(argv[2]);
  if (!std::strcmp(cmd, "design")) return CmdDesign(argc - 2, argv + 2);
  if (!std::strcmp(cmd, "paths")) return CmdPaths(argc - 2, argv + 2);
  if (!std::strcmp(cmd, "mine")) return CmdMine(argc - 2, argv + 2);
  if (!std::strcmp(cmd, "workload")) return CmdWorkload(argc - 2, argv + 2);
  if (!std::strcmp(cmd, "trace")) return CmdTrace(argc - 2, argv + 2);
  if (!std::strcmp(cmd, "blackbox")) return CmdBlackbox(argc - 2, argv + 2);
  if (!std::strcmp(cmd, "lint")) return CmdLint(argc - 2, argv + 2);
  if (!std::strcmp(cmd, "bench")) return CmdBench(argc - 2, argv + 2);
  if (!std::strcmp(cmd, "serve")) return CmdServe(argc - 2, argv + 2);
  if (!std::strcmp(cmd, "update")) return CmdUpdate(argc - 2, argv + 2);
  if (!std::strcmp(cmd, "recover")) return CmdRecover(argc - 2, argv + 2);
  if (!std::strcmp(cmd, "demo")) return CmdDemo();
  return Usage();
}
