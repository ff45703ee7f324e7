#include "spans.h"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <vector>

namespace perfbench {

namespace {

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  const char* name = "";
  std::string detail;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
const Clock::time_point g_epoch = Clock::now();
std::mutex g_mu;
std::vector<SpanRecord> g_spans;  // guarded by g_mu

/// Open Timers of this thread, innermost last.
thread_local std::vector<uint64_t> t_open;

int64_t SinceEpochNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_epoch)
      .count();
}

void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out->push_back(' ');
    } else {
      out->push_back(c);
    }
  }
}

}  // namespace

void EnableSpans() { g_enabled.store(true, std::memory_order_relaxed); }

bool SpansEnabled() { return g_enabled.load(std::memory_order_relaxed); }

mctdb::Status WriteSpans(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return mctdb::Status::IoError("cannot write " + path);
  std::string line;
  std::fputs("{\"spans\":[\n", f);
  for (size_t i = 0; i < g_spans.size(); ++i) {
    const SpanRecord& r = g_spans[i];
    line = "{\"id\":" + std::to_string(r.id) +
           ",\"parent\":" + std::to_string(r.parent) + ",\"name\":\"";
    AppendEscaped(&line, r.name);
    line += "\",\"detail\":\"";
    AppendEscaped(&line, r.detail);
    line += "\",\"start_ns\":" + std::to_string(r.start_ns) +
            ",\"end_ns\":" + std::to_string(r.end_ns) + "}";
    if (i + 1 < g_spans.size()) line += ",";
    line += "\n";
    std::fputs(line.c_str(), f);
  }
  std::fputs("]}\n", f);
  if (std::fclose(f) != 0) return mctdb::Status::IoError("cannot close " + path);
  return mctdb::Status::OK();
}

Timer::Timer(const char* name, std::string detail)
    : Timer(name, std::move(detail), t_open.empty() ? 0 : t_open.back()) {}

Timer::Timer(const char* name, std::string detail, uint64_t parent)
    : name_(name), detail_(std::move(detail)), parent_(parent) {
  if (SpansEnabled()) {
    id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
    t_open.push_back(id_);
  }
  start_ = Clock::now();
}

Timer::~Timer() { Stop(); }

double Timer::Stop() {
  if (seconds_ >= 0) return seconds_;
  Clock::time_point end = Clock::now();
  seconds_ = SecondsBetween(start_, end);
  if (id_ != 0) {
    if (!t_open.empty() && t_open.back() == id_) t_open.pop_back();
    SpanRecord r;
    r.id = id_;
    r.parent = parent_;
    r.name = name_;
    r.detail = std::move(detail_);
    r.start_ns = SinceEpochNs(start_);
    r.end_ns = SinceEpochNs(end);
    std::lock_guard<std::mutex> lock(g_mu);
    g_spans.push_back(std::move(r));
  }
  return seconds_;
}

}  // namespace perfbench
