#include "bench/report.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.h"
#include "common/log.h"
#include "common/string_util.h"
#include "obs/trace_export.h"

namespace mctdb::bench {

namespace {

void AppendNumber(std::string* out, double v) {
  // Integral values print bare so counters round-trip exactly.
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    *out += buf;
  } else {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    *out += buf;
  }
}

const double* FindExtra(const QueryRecord& r, const std::string& name) {
  for (const auto& [n, v] : r.extra) {
    if (n == name) return &v;
  }
  return nullptr;
}

void AppendRecord(std::string* out, const QueryRecord& r) {
  *out += "{\"schema\":\"" + obs::JsonEscape(r.schema) + "\"";
  *out += ",\"query\":\"" + obs::JsonEscape(r.query) + "\"";
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"median_seconds\":%.9f",
                r.median_seconds);
  *out += buf;
  std::snprintf(buf, sizeof(buf), ",\"page_hits\":%llu,\"page_misses\":%llu",
                static_cast<unsigned long long>(r.page_hits),
                static_cast<unsigned long long>(r.page_misses));
  *out += buf;
  std::snprintf(buf, sizeof(buf), ",\"join_pairs\":%llu,\"reps\":%zu",
                static_cast<unsigned long long>(r.join_pairs), r.reps);
  *out += buf;
  if (!r.extra.empty()) {
    *out += ",\"extra\":{";
    bool first = true;
    for (const auto& [name, value] : r.extra) {
      if (!first) *out += ',';
      first = false;
      *out += "\"" + obs::JsonEscape(name) + "\":";
      AppendNumber(out, value);
    }
    *out += '}';
  }
  *out += '}';
}

Result<QueryRecord> RecordFromJson(const json::Value& v) {
  if (!v.is_object()) {
    return Status::InvalidArgument("bench record is not an object");
  }
  QueryRecord r;
  r.schema = v.StringOr("schema", "");
  r.query = v.StringOr("query", "");
  if (r.schema.empty() || r.query.empty()) {
    return Status::InvalidArgument(
        "bench record missing schema/query keys");
  }
  r.median_seconds = v.NumberOr("median_seconds", 0.0);
  r.page_hits = static_cast<uint64_t>(v.NumberOr("page_hits", 0));
  r.page_misses = static_cast<uint64_t>(v.NumberOr("page_misses", 0));
  r.join_pairs = static_cast<uint64_t>(v.NumberOr("join_pairs", 0));
  r.reps = static_cast<size_t>(v.NumberOr("reps", 0));
  if (const json::Value* extra = v.Find("extra");
      extra != nullptr && extra->is_object()) {
    for (const auto& [name, value] : extra->members()) {
      if (value.is_number()) r.extra.emplace_back(name, value.number());
    }
  }
  return r;
}

Result<BenchReport> ReportFromJson(const json::Value& v) {
  if (!v.is_object()) {
    return Status::InvalidArgument("bench report is not a JSON object");
  }
  BenchReport report;
  report.bench = v.StringOr("bench", "");
  if (report.bench.empty()) {
    return Status::InvalidArgument("bench report missing \"bench\" name");
  }
  report.scale = v.NumberOr("scale", 0.0);
  report.reps = static_cast<size_t>(v.NumberOr("reps", 1));
  const json::Value* records = v.Find("records");
  if (records == nullptr || !records->is_array()) {
    return Status::InvalidArgument(
        "bench report missing \"records\" array");
  }
  for (const json::Value& rec : records->array()) {
    MCTDB_ASSIGN_OR_RETURN(QueryRecord r, RecordFromJson(rec));
    report.records.push_back(std::move(r));
  }
  return report;
}

std::string RecordKey(const QueryRecord& r) {
  return r.schema + "/" + r.query;
}

}  // namespace

const QueryRecord* BenchReport::Find(const std::string& schema,
                                     const std::string& query) const {
  for (const QueryRecord& r : records) {
    if (r.schema == schema && r.query == query) return &r;
  }
  return nullptr;
}

std::string BenchReport::ToJson() const {
  std::string out = "{\"bench\":\"" + obs::JsonEscape(bench) + "\"";
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"scale\":%g,\"reps\":%zu", scale,
                reps);
  out += buf;
  out += ",\"records\":[";
  bool first = true;
  for (const QueryRecord& r : records) {
    if (!first) out += ',';
    first = false;
    AppendRecord(&out, r);
  }
  out += "]}";
  return out;
}

JsonReporter::JsonReporter(std::string bench_name, double scale,
                           size_t reps) {
  report_.bench = std::move(bench_name);
  report_.scale = scale;
  report_.reps = reps;
}

QueryRecord& JsonReporter::Add(std::string schema, std::string query) {
  QueryRecord r;
  r.schema = std::move(schema);
  r.query = std::move(query);
  r.reps = report_.reps;
  report_.records.push_back(std::move(r));
  return report_.records.back();
}

Status JsonReporter::WriteTo(const std::string& path) const {
  std::string text = report_.ToJson();
  text += '\n';
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return Status::OK();
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << text;
  out.flush();
  if (!out) return Status::IoError("short write to " + path);
  MCTDB_LOG(kInfo, "bench", "report written",
            {{"bench", report_.bench},
             {"path", path},
             {"records", uint64_t(report_.records.size())},
             {"scale", report_.scale}});
  return Status::OK();
}

Result<BenchReport> ParseBenchReport(std::string_view json_text) {
  MCTDB_ASSIGN_OR_RETURN(json::Value v, json::Parse(json_text));
  return ReportFromJson(v);
}

Result<BenchReport> LoadBenchReport(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto parsed = ParseBenchReport(buffer.str());
  if (!parsed.ok()) {
    return Status::InvalidArgument(path + ": " +
                                   parsed.status().ToString());
  }
  return parsed;
}

std::string CombineReports(const std::vector<BenchReport>& reports) {
  std::string out = "{\"benches\":[";
  bool first = true;
  for (const BenchReport& r : reports) {
    if (!first) out += ',';
    first = false;
    out += r.ToJson();
  }
  out += "]}";
  return out;
}

CheckResult CheckAgainstBaseline(const BenchReport& current,
                                 const BenchReport& baseline,
                                 const CheckOptions& options) {
  CheckResult result;
  if (current.bench != baseline.bench) {
    result.regressions.push_back(StringPrintf(
        "bench name mismatch: current '%s' vs baseline '%s'",
        current.bench.c_str(), baseline.bench.c_str()));
    return result;
  }
  if (std::fabs(current.scale - baseline.scale) > 1e-9) {
    result.regressions.push_back(StringPrintf(
        "%s: scale mismatch: current %g vs baseline %g (re-run at the "
        "baseline scale or regenerate bench/baselines)",
        current.bench.c_str(), current.scale, baseline.scale));
    return result;
  }

  auto gate_counter = [&](std::string line) {
    if (options.gate_counters) {
      result.regressions.push_back(std::move(line));
    } else {
      result.notes.push_back(std::move(line));
    }
  };
  auto check_counter = [&](const QueryRecord& cur, const char* name,
                           double cur_v, double base_v) {
    if (cur_v > base_v) {
      gate_counter(StringPrintf(
          "%s %s/%s: %s increased %.0f -> %.0f", current.bench.c_str(),
          cur.schema.c_str(), cur.query.c_str(), name, base_v, cur_v));
    } else if (cur_v < base_v) {
      result.notes.push_back(StringPrintf(
          "%s %s/%s: %s improved %.0f -> %.0f", current.bench.c_str(),
          cur.schema.c_str(), cur.query.c_str(), name, base_v, cur_v));
    }
  };
  // Extras are answers and plan shapes, not costs: they must match
  // exactly, name for name.
  auto check_extras = [&](const QueryRecord& cur, const QueryRecord& base) {
    for (const auto& [name, base_v] : base.extra) {
      const double* cur_v = FindExtra(cur, name);
      if (cur_v == nullptr) {
        result.regressions.push_back(StringPrintf(
            "%s %s/%s: extra %s missing from the current run (baseline %g)",
            current.bench.c_str(), cur.schema.c_str(), cur.query.c_str(),
            name.c_str(), base_v));
      } else if (*cur_v != base_v) {
        gate_counter(StringPrintf(
            "%s %s/%s: %s changed %g -> %g", current.bench.c_str(),
            cur.schema.c_str(), cur.query.c_str(), name.c_str(), base_v,
            *cur_v));
      }
    }
    for (const auto& [name, cur_v] : cur.extra) {
      if (FindExtra(base, name) == nullptr) {
        result.regressions.push_back(StringPrintf(
            "%s %s/%s: extra %s=%g has no baseline", current.bench.c_str(),
            cur.schema.c_str(), cur.query.c_str(), name.c_str(), cur_v));
      }
    }
  };

  for (const QueryRecord& base : baseline.records) {
    const QueryRecord* cur = current.Find(base.schema, base.query);
    if (cur == nullptr) {
      result.regressions.push_back(StringPrintf(
          "%s: record %s missing from the current run",
          current.bench.c_str(), RecordKey(base).c_str()));
      continue;
    }
    // Timing gate: relative headroom plus an absolute floor.
    double limit = base.median_seconds * (1.0 + options.tolerance);
    double growth = cur->median_seconds - base.median_seconds;
    if (cur->median_seconds > limit && growth > options.min_abs_seconds) {
      result.regressions.push_back(StringPrintf(
          "%s %s/%s: median %.6fs exceeds baseline %.6fs by more than "
          "%.0f%% (+%.6fs)",
          current.bench.c_str(), cur->schema.c_str(), cur->query.c_str(),
          cur->median_seconds, base.median_seconds,
          options.tolerance * 100.0, growth));
    }
    check_counter(*cur, "page_misses", double(cur->page_misses),
                  double(base.page_misses));
    check_counter(*cur, "join_pairs", double(cur->join_pairs),
                  double(base.join_pairs));
    check_extras(*cur, base);
  }
  for (const QueryRecord& cur : current.records) {
    if (baseline.Find(cur.schema, cur.query) == nullptr) {
      std::string line = StringPrintf(
          "%s: new record %s (no baseline yet%s)", current.bench.c_str(),
          RecordKey(cur).c_str(),
          options.strict_new_records
              ? "; strict mode fails on ungated records — regenerate "
                "bench/baselines"
              : "");
      if (options.strict_new_records) {
        result.regressions.push_back(std::move(line));
      } else {
        result.notes.push_back(std::move(line));
      }
    }
  }
  return result;
}

}  // namespace mctdb::bench
