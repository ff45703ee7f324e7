#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "instance/materialize.h"
#include "query/planner.h"
#include "spans.h"
#include "storage/persist.h"

namespace perfbench {

namespace fs = std::filesystem;
using mctdb::Result;
using mctdb::Status;

namespace {

const char* CodeName(Status::Code code) {
  switch (code) {
    case Status::Code::kUnavailable: return "unavailable";
    case Status::Code::kResourceExhausted: return "resource_exhausted";
    case Status::Code::kDeadlineExceeded: return "deadline_exceeded";
    case Status::Code::kDataLoss: return "data_loss";
    default: return "other";
  }
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

void Report::Alias(const std::string& prefix, const std::string& name) {
  auto it = metrics_.find(name);
  if (it != metrics_.end()) metrics_[prefix + name] = it->second;
}

void Report::Fail(const Status& status) {
  ++failed_;
  ++failed_by_code_[CodeName(status.code())];
  if (failed_ <= 5) {
    std::fprintf(stderr, "perfbench: operation failed: %s\n",
                 status.ToString().c_str());
  }
}

void Report::Merge(const Report& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const auto& [code, n] : other.failed_by_code_) {
    failed_by_code_[code] += n;
  }
  mismatches_ += other.mismatches_;
}

void Report::Mismatch(const std::string& what) {
  if (++mismatches_ <= 10) {
    std::fprintf(stderr, "perfbench: WRONG RESULT: %s\n", what.c_str());
  }
}

void Report::SetFailureMetrics() {
  for (const char* code : {"unavailable", "resource_exhausted",
                           "deadline_exceeded", "data_loss", "other"}) {
    auto it = failed_by_code_.find(code);
    Set(std::string("failed.") + code,
        double(it == failed_by_code_.end() ? 0 : it->second), "count");
  }
  Set("failed_frac",
      attempted_ == 0 ? 0.0 : double(failed_) / double(attempted_), "ratio");
}

void Report::Print(const Args& args) const {
  std::printf("workload %s  seed %llu  instance seed %llu  trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(args.instance_seed),
              args.trace ? 1 : 0);
  for (const auto& [name, v] : metrics_) {
    std::printf("  %-36s %16.6f %s\n", name.c_str(), v.value, v.unit.c_str());
  }
  std::printf("  attempted %llu  failed %llu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  std::string line = "{\"workload\":\"" + args.workload +
                     "\",\"seed\":" + std::to_string(args.seed) +
                     ",\"instance_seed\":" +
                     std::to_string(args.instance_seed) +
                     ",\"trace\":" + (args.trace ? "1" : "0") +
                     ",\"correct\":" + (correct() ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted_) +
                     ",\"failed\":" + std::to_string(failed_) +
                     ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    if (!first) line += ",";
    first = false;
    line += "\"" + name + "\":{\"value\":" + Num(v.value) + ",\"unit\":\"" +
            v.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * double(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - double(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KB on Linux
}

Tpcw::Tpcw(double scale, uint64_t seed)
    : w(mctdb::workload::TpcwWorkload(scale)) {
  w.gen.seed = seed;
  graph = std::make_unique<mctdb::er::ErGraph>(w.diagram);
  for (const std::string& name : w.figure_queries) {
    const mctdb::query::AssociationQuery* q = w.Find(name);
    if (q != nullptr && !q->is_update()) reads.push_back(q);
  }
}

Status FullBuild(const Tpcw& tpcw, const std::string& dir, Open open,
                 const mctdb::storage::StoreOptions& options, bool keep_built,
                 Stores* out, BuildTimes* times) {
  *out = Stores();
  *times = BuildTimes();
  Timer total("build");
  {
    Timer t("instance.generate");
    out->logical = std::make_unique<mctdb::instance::LogicalInstance>(
        mctdb::instance::GenerateInstance(*tpcw.graph, tpcw.w.gen));
    times->generate = t.Stop();
  }
  out->designer = std::make_unique<mctdb::design::Designer>(*tpcw.graph);
  for (mctdb::design::Strategy s : mctdb::design::AllStrategies()) {
    Timer t("design.design", mctdb::design::ToString(s));
    out->schemas.push_back(out->designer->Design(s));
    times->design += t.Stop();
  }
  std::vector<std::unique_ptr<mctdb::storage::MctStore>> built;
  mctdb::instance::MaterializeOptions mat;
  mat.store = options;
  for (const mctdb::mct::MctSchema& schema : out->schemas) {
    Timer t("instance.materialize", schema.name());
    built.push_back(mctdb::instance::Materialize(*out->logical, schema, mat));
    double s = t.Stop();
    times->materialize += s;
    times->materialize_max = std::max(times->materialize_max, s);
    times->elements += built.back()->num_elements();
  }
  for (size_t i = 0; i < built.size(); ++i) {
    std::string path = dir + "/" + out->schemas[i].name() + ".mct";
    // A durable store must not pick up a log left by an earlier build.
    std::error_code ignored;
    fs::remove(mctdb::wal::DurableStore::WalPath(path), ignored);
    Timer t("storage.save", out->schemas[i].name());
    MCTDB_RETURN_IF_ERROR(mctdb::storage::SaveStore(*built[i], path));
    times->save += t.Stop();
    times->image_bytes += fs::file_size(path);
    out->paths.push_back(path);
    if (!keep_built) built[i].reset();
  }
  for (size_t i = 0; i < out->paths.size(); ++i) {
    const mctdb::mct::MctSchema& schema = out->schemas[i];
    if (open == Open::kLoad) {
      Timer t("storage.load", schema.name());
      MCTDB_ASSIGN_OR_RETURN(
          std::unique_ptr<mctdb::storage::MctStore> store,
          mctdb::storage::LoadStore(schema, out->paths[i], options));
      times->load += t.Stop();
      out->loaded.push_back(std::move(store));
    } else {
      mctdb::wal::DurableStoreOptions dopts;
      dopts.store = options;
      Timer t("wal.open", schema.name());
      MCTDB_ASSIGN_OR_RETURN(
          std::unique_ptr<mctdb::wal::DurableStore> store,
          mctdb::wal::DurableStore::Open(schema, out->paths[i], dopts));
      times->load += t.Stop();
      out->durable.push_back(std::move(store));
    }
  }
  times->total = total.Stop();
  if (keep_built) out->built = std::move(built);
  return Status::OK();
}

Result<std::vector<mctdb::query::ExecResult>> RunReads(
    const Tpcw& tpcw, const mctdb::mct::MctSchema& schema,
    mctdb::storage::MctStore* store) {
  std::vector<mctdb::query::ExecResult> out;
  for (const mctdb::query::AssociationQuery* q : tpcw.reads) {
    MCTDB_ASSIGN_OR_RETURN(mctdb::query::QueryPlan plan,
                           mctdb::query::PlanQuery(*q, schema));
    mctdb::query::Executor exec(store);
    exec.set_snapshot(store->versioned() ? store->visible_lsn()
                                         : mctdb::kMaxLsn);
    MCTDB_ASSIGN_OR_RETURN(mctdb::query::ExecResult r, exec.Execute(plan));
    out.push_back(std::move(r));
  }
  return out;
}

bool SameAnswer(const mctdb::query::ExecResult& a,
                const mctdb::query::ExecResult& b) {
  return a.logicals == b.logicals && a.groups == b.groups;
}

std::vector<mctdb::query::ExecResult> CrossSchemaReference(
    const Tpcw& tpcw, const Stores& stores, Report* report,
    const char* phase) {
  std::vector<mctdb::query::ExecResult> reference;
  for (size_t i = 0; i < stores.schemas.size(); ++i) {
    auto answers = RunReads(tpcw, stores.schemas[i], stores.serving(i));
    if (!answers.ok()) {
      report->Mismatch(std::string(phase) + ": reads on " +
                       stores.schemas[i].name() + " failed: " +
                       answers.status().ToString());
      continue;
    }
    if (reference.empty()) {
      reference = std::move(*answers);
      continue;
    }
    for (size_t q = 0; q < tpcw.reads.size(); ++q) {
      if (!SameAnswer((*answers)[q], reference[q])) {
        report->Mismatch(std::string(phase) + ": " + tpcw.reads[q]->name +
                         " on " + stores.schemas[i].name() +
                         " differs from " + stores.schemas[0].name());
      }
    }
  }
  return reference;
}

void StageTotals::Add(const mctdb::obs::Span& trace) {
  mctdb::obs::StageTable table = mctdb::obs::AggregateByStage(trace);
  for (size_t k = 0; k < mctdb::obs::kNumStageKinds; ++k) {
    seconds[k] += table[k].seconds;
  }
  ++queries;
}

void StageTotals::Merge(const StageTotals& other) {
  for (size_t k = 0; k < mctdb::obs::kNumStageKinds; ++k) {
    seconds[k] += other.seconds[k];
  }
  queries += other.queries;
}

void StageTotals::SetMetrics(Report* report) const {
  using mctdb::obs::StageKind;
  const std::pair<StageKind, const char*> kinds[] = {
      {StageKind::kTagScan, "tag_scan"},
      {StageKind::kCrossColor, "cross_color"},
      {StageKind::kStructuralJoin, "structural_join"},
      {StageKind::kValueJoin, "value_join"},
      {StageKind::kPredicateFilter, "predicate_filter"},
      {StageKind::kBackwardReduction, "backward_reduction"},
      {StageKind::kDupElim, "dup_elim"},
      {StageKind::kGroupBy, "group_by"},
  };
  for (const auto& [kind, name] : kinds) {
    double s = seconds[static_cast<size_t>(kind)];
    report->Set(std::string("query.stage.") + name + "_s",
                queries == 0 ? 0.0 : s / double(queries), "s/query");
  }
}

void ReadCounters::Add(const mctdb::query::ExecResult& r) {
  ++queries;
  hits += r.page_hits;
  misses += r.page_misses;
  join_pairs += r.join_pairs;
  index_seeks += r.index_seeks;
  results += r.unique_count;
  exec_seconds.push_back(r.elapsed_seconds);
}

void ReadCounters::Merge(const ReadCounters& o) {
  queries += o.queries;
  hits += o.hits;
  misses += o.misses;
  join_pairs += o.join_pairs;
  index_seeks += o.index_seeks;
  results += o.results;
  exec_seconds.insert(exec_seconds.end(), o.exec_seconds.begin(),
                      o.exec_seconds.end());
}

void ReadCounters::SetMetrics(Report* report) const {
  const double q = queries == 0 ? 1.0 : double(queries);
  const uint64_t fetches = hits + misses;
  report->Set("storage.pool_fetches", double(fetches), "count");
  report->Set("storage.pool_hit_ratio",
              fetches == 0 ? 0.0 : double(hits) / double(fetches), "ratio");
  report->Set("storage.misses_per_query", double(misses) / q, "pages/query");
  report->Set("query.exec_us.p50", Quantile(exec_seconds, 0.5) * 1e6, "us");
  report->Set("query.exec_us.p99", Quantile(exec_seconds, 0.99) * 1e6, "us");
  report->Set("query.join_pairs_per_query", double(join_pairs) / q,
              "pairs/query");
  report->Set("query.pages_per_result",
              results == 0 ? 0.0 : double(fetches) / double(results),
              "pages/result");
  report->Set("query.index_seeks", double(index_seeks) / q, "seeks/query");
}

double MedianPlanSeconds(const Tpcw& tpcw, const Stores& stores) {
  constexpr int kReps = 15;
  std::vector<double> times;
  for (const mctdb::mct::MctSchema& schema : stores.schemas) {
    for (const mctdb::query::AssociationQuery* q : tpcw.reads) {
      std::vector<double> reps;
      for (int r = 0; r < kReps; ++r) {
        Timer t("query.plan", schema.name() + " " + q->name);
        auto plan = mctdb::query::PlanQuery(*q, schema);
        reps.push_back(t.Stop());
        if (!plan.ok()) return 0.0;
      }
      times.push_back(Median(std::move(reps)));
    }
  }
  return Median(std::move(times));
}

void SetBuildMetrics(const std::vector<BuildTimes>& builds, Report* report) {
  auto median_of = [&](double BuildTimes::*field) {
    std::vector<double> v;
    for (const BuildTimes& b : builds) v.push_back(b.*field);
    return Median(std::move(v));
  };
  report->Set("instance.generate_s", median_of(&BuildTimes::generate), "s");
  report->Set("instance.materialize_s", median_of(&BuildTimes::materialize),
              "s");
  report->Set("instance.materialize_max_s",
              median_of(&BuildTimes::materialize_max), "s");
  report->Set("design.design_s", median_of(&BuildTimes::design), "s");
  report->Set("storage.save_s", median_of(&BuildTimes::save), "s");
  report->Set("storage.load_s", median_of(&BuildTimes::load), "s");
  report->Set("build_s", median_of(&BuildTimes::total), "s");
  if (!builds.empty()) {
    report->Set("instance.elements", double(builds.back().elements), "count");
    report->Set("storage.image_bytes", double(builds.back().image_bytes),
                "bytes");
    report->Set("store_mb", double(builds.back().image_bytes) / 1e6, "MB");
  }
}

void ServiceStats::SetMetrics(Report* report) const {
  report->Set("service.queue_wait_us.p50", queue_wait_p50_us, "us");
  report->Set("service.queue_wait_us.p99", queue_wait_p99_us, "us");
  report->Set("service.plan_cache_hit_ratio", plan_cache_hit_ratio, "ratio");
  report->Set("service.sheds", double(sheds), "count");
  report->Set("service.rejected", double(rejected), "count");
  report->Set("service.failed", double(failed), "count");
  report->Set("service.update_p50_us", update_p50_us, "us");
  report->Set("service.update_p99_us", update_p99_us, "us");
  report->Set("service.update_ops_s", update_ops_s, "1/s");
  report->Set("service.update_share", update_share, "ratio");
}

void WalStats::SetMetrics(Report* report) const {
  report->Set("wal.fsync_us.p50", fsync_p50_us, "us");
  report->Set("wal.fsync_us.p99", fsync_p99_us, "us");
  report->Set("wal.appends", double(appends), "count");
  report->Set("wal.fsyncs_per_update",
              appends == 0 ? 0.0 : double(fsyncs) / double(appends),
              "fsyncs/append");
  report->Set("wal.bytes_per_update", bytes_per_update, "bytes/update");
  report->Set("wal.checkpoints", double(checkpoints), "count");
  report->Set("wal.checkpoints_min_store", double(checkpoints_min_store),
              "count");
  report->Set("wal.checkpoints_gap_pressure", double(gap_checkpoints),
              "count");
  report->Set("wal.checkpoint_s", checkpoint_s, "s");
  report->Set("wal.write_stalls", double(write_stalls), "count");
  report->Set("wal.rebases", double(rebases), "count");
  report->Set("wal.open_s", open_s, "s");
}

}  // namespace perfbench
