// perfbench — the mctdb end-to-end benchmark binary.
//
//   perfbench --workload build|read_cold|mixed [--seed N] [--seconds S]
//             [--trace 0|1] [--out DIR] [--instance-seed N]
//
// Runs one workload over TPC-W, checks every answer, and prints each metric
// it measured with its unit, then one JSON line with every metric. A wrong
// answer makes it exit 3 without printing numbers; a setup error exits 1,
// bad arguments 2. With --trace 1 it also keeps a span around every call
// into a layer and writes them to DIR/spans-<workload>-<seed>.json.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "spans.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload build|read_cold|mixed [--seed N] "
               "[--seconds S] [--trace 0|1] [--out DIR] "
               "[--instance-seed N]\n");
  return 2;
}

bool ParseDouble(const char* s, double* out) {
  char* end = nullptr;
  double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !(v > 0) || v > 3600) return false;
  *out = v;
  return true;
}

bool ParseU64(const char* s, uint64_t* out) {
  if (*s == '\0' || *s == '-') return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    bool ok = true;
    if (!std::strcmp(flag, "--workload")) {
      args.workload = value;
    } else if (!std::strcmp(flag, "--seed")) {
      ok = ParseU64(value, &args.seed);
    } else if (!std::strcmp(flag, "--seconds")) {
      ok = ParseDouble(value, &args.seconds);
    } else if (!std::strcmp(flag, "--trace")) {
      ok = !std::strcmp(value, "0") || !std::strcmp(value, "1");
      args.trace = !std::strcmp(value, "1");
    } else if (!std::strcmp(flag, "--out")) {
      args.out_dir = value;
    } else if (!std::strcmp(flag, "--instance-seed")) {
      ok = ParseU64(value, &args.instance_seed);
    } else {
      ok = false;
    }
    if (!ok) return Usage();
  }
  mctdb::Status (*run)(const perfbench::Args&, perfbench::Report*) = nullptr;
  if (args.workload == "build") run = perfbench::RunBuild;
  if (args.workload == "read_cold") run = perfbench::RunReadCold;
  if (args.workload == "mixed") run = perfbench::RunMixed;
  if (run == nullptr) return Usage();

  if (args.trace) perfbench::EnableSpans();
  std::filesystem::create_directories(args.out_dir);
  perfbench::Report report;
  mctdb::Status status = run(args, &report);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  if (!report.correct()) {
    std::fprintf(stderr, "perfbench: %s gave wrong answers; no numbers\n",
                 args.workload.c_str());
    return 3;
  }
  report.Set("peak_rss_mb", perfbench::PeakRssMb(), "MB");
  report.SetFailureMetrics();
  if (args.trace) {
    // The end-to-end numbers as the traced run saw them: their distance to
    // the untraced run's is the cost of tracing.
    for (const char* name : {"setup_s", "build_s", "query_p50_us",
                             "query_p99_us", "query_qps", "op_p99_us"}) {
      report.Alias("traced.", name);
    }
    mctdb::Status written = perfbench::WriteSpans(
        args.out_dir + "/spans-" + args.workload + "-" +
        std::to_string(args.seed) + ".json");
    if (!written.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
      return 1;
    }
  }
  report.Print(args);
  return 0;
}
