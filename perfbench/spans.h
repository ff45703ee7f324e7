// In-memory span recording for the traced benchmark run.
//
// Every call the benchmark makes into a layer's public function is wrapped
// in a Timer. A Timer always measures (the end-to-end metrics need the
// durations), but it records a span — name, detail, start, end, parent —
// only while recording is enabled (`--trace 1`). Spans stay in memory and
// are written out once, when the benchmark ends, so the traced run pays a
// vector append per call and nothing else.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Turns span recording on for the rest of the process.
void EnableSpans();
bool SpansEnabled();

/// Writes every recorded span as one JSON document to `path`.
mctdb::Status WriteSpans(const std::string& path);

/// Times one call. The parent defaults to the innermost open Timer on this
/// thread; threads that serve a phase opened elsewhere name it explicitly.
class Timer {
 public:
  explicit Timer(const char* name, std::string detail = {});
  Timer(const char* name, std::string detail, uint64_t parent);
  ~Timer();
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Ends the span (idempotent) and returns its duration in seconds.
  double Stop();
  uint64_t id() const { return id_; }

 private:
  const char* name_;
  std::string detail_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  Clock::time_point start_;
  double seconds_ = -1.0;
};

}  // namespace perfbench
