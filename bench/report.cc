#include "bench/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/json.h"
#include "common/string_util.h"
#include "obs/trace_export.h"

namespace mctdb::bench {

namespace {

/// The one form a number takes in a report: integral values print bare
/// so counters round-trip exactly, others with 9 significant digits. The
/// gate compares extras in this form, so a value equals its written and
/// re-parsed copy.
std::string FormatNumber(double v) {
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    return StringPrintf("%.0f", v);
  }
  return StringPrintf("%.9g", v);
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
      *out += "\"" + obs::JsonEscape(name) + "\":" + FormatNumber(value);
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
  if (const json::Value* problems = v.Find("problems");
      problems != nullptr && problems->is_array()) {
    for (const json::Value& p : problems->array()) {
      if (p.is_string()) report.problems.push_back(p.str());
    }
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

QueryRecord& BenchReport::Add(std::string schema, std::string query) {
  QueryRecord& r = records.emplace_back();
  r.schema = std::move(schema);
  r.query = std::move(query);
  r.reps = reps;
  return r;
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
  out += ']';
  if (!problems.empty()) {
    out += ",\"problems\":[";
    for (size_t i = 0; i < problems.size(); ++i) {
      if (i > 0) out += ',';
      out += "\"" + obs::JsonEscape(problems[i]) + "\"";
    }
    out += ']';
  }
  out += '}';
  return out;
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

std::string RenderText(const BenchReport& report) {
  // Rows and columns in first-appearance order.
  std::vector<std::string> queries, schemas, extras;
  auto note = [](std::vector<std::string>* seen, const std::string& name) {
    if (std::find(seen->begin(), seen->end(), name) == seen->end()) {
      seen->push_back(name);
    }
  };
  for (const QueryRecord& r : report.records) {
    note(&queries, r.query);
    note(&schemas, r.schema);
    for (const auto& [name, value] : r.extra) note(&extras, name);
  }
  std::string out =
      StringPrintf("%s: scale %g, reps %zu, %zu records\n",
                   report.bench.c_str(), report.scale, report.reps,
                   report.records.size());
  // `cell` renders one record's value, or nullopt when it has none. Rows
  // and columns without any value are left out.
  auto grid = [&](const std::string& title, auto cell) {
    std::vector<std::string> labels = {title};
    std::vector<std::vector<std::string>> rows = {{}};
    for (const std::string& q : queries) {
      std::vector<std::string> row;
      bool any = false;
      for (const std::string& s : schemas) {
        const QueryRecord* r = report.Find(s, q);
        std::optional<std::string> text;
        if (r != nullptr) text = cell(*r);
        row.push_back(text.value_or(""));
        any |= text.has_value();
      }
      if (!any) continue;
      labels.push_back(q);
      rows.push_back(std::move(row));
    }
    std::vector<size_t> columns;
    std::vector<size_t> widths;
    for (size_t j = 0; j < schemas.size(); ++j) {
      size_t width = 0;
      for (size_t i = 1; i < rows.size(); ++i) {
        width = std::max(width, rows[i][j].size());
      }
      if (width == 0) continue;
      columns.push_back(j);
      widths.push_back(std::max(width, schemas[j].size()));
      rows[0].push_back(schemas[j]);
    }
    size_t label_width = 0;
    for (const std::string& label : labels) {
      label_width = std::max(label_width, label.size());
    }
    out += '\n';
    for (size_t i = 0; i < rows.size(); ++i) {
      std::string line = StringPrintf("%-*s", int(label_width),
                                      labels[i].c_str());
      for (size_t k = 0; k < columns.size(); ++k) {
        const std::string& text = i == 0 ? rows[0][k] : rows[i][columns[k]];
        line += StringPrintf("  %*s", int(widths[k]), text.c_str());
      }
      line.erase(line.find_last_not_of(' ') + 1);
      out += line + '\n';
    }
  };
  auto counter_grid = [&](const char* title, uint64_t QueryRecord::*field) {
    for (const QueryRecord& r : report.records) {
      if (r.*field != 0) {
        grid(title, [&](const QueryRecord& rec) {
          return std::optional<std::string>(FormatNumber(double(rec.*field)));
        });
        return;
      }
    }
  };
  for (const QueryRecord& r : report.records) {
    if (r.median_seconds != 0) {
      grid("median_us", [](const QueryRecord& rec) {
        return std::optional<std::string>(
            StringPrintf("%.1f", rec.median_seconds * 1e6));
      });
      break;
    }
  }
  counter_grid("page_hits", &QueryRecord::page_hits);
  counter_grid("page_misses", &QueryRecord::page_misses);
  counter_grid("join_pairs", &QueryRecord::join_pairs);
  for (const std::string& name : extras) {
    grid(name, [&](const QueryRecord& rec) -> std::optional<std::string> {
      const double* v = FindExtra(rec, name);
      if (v == nullptr) return std::nullopt;
      return FormatNumber(*v);
    });
  }
  for (const std::string& problem : report.problems) {
    out += "problem: " + problem + "\n";
  }
  return out;
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

  for (const std::string& problem : current.problems) {
    result.regressions.push_back(current.bench + ": " + problem);
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
  // exactly, name for name, in the form the report writes them.
  auto check_extras = [&](const QueryRecord& cur, const QueryRecord& base) {
    for (const auto& [name, base_v] : base.extra) {
      const double* cur_v = FindExtra(cur, name);
      if (cur_v == nullptr) {
        result.regressions.push_back(StringPrintf(
            "%s %s/%s: extra %s missing from the current run (baseline %s)",
            current.bench.c_str(), cur.schema.c_str(), cur.query.c_str(),
            name.c_str(), FormatNumber(base_v).c_str()));
      } else if (FormatNumber(*cur_v) != FormatNumber(base_v)) {
        gate_counter(StringPrintf(
            "%s %s/%s: %s changed %s -> %s", current.bench.c_str(),
            cur.schema.c_str(), cur.query.c_str(), name.c_str(),
            FormatNumber(base_v).c_str(), FormatNumber(*cur_v).c_str()));
      }
    }
    for (const auto& [name, cur_v] : cur.extra) {
      if (FindExtra(base, name) == nullptr) {
        result.regressions.push_back(StringPrintf(
            "%s %s/%s: extra %s=%s has no baseline", current.bench.c_str(),
            cur.schema.c_str(), cur.query.c_str(), name.c_str(),
            FormatNumber(cur_v).c_str()));
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
