// The three perfbench workloads. Each fills `report` with every metric it
// measures; the caller prints the report and picks the end-to-end or the
// per-layer set from it.
#pragma once

#include "common.h"

namespace perfbench {

/// build: full store builds, repeated for the measured seconds.
mctdb::Status RunBuild(const Args& args, Report* report);

/// read_cold: closed-loop read-only traffic against a QueryService whose
/// per-store pool is far smaller than the stores.
mctdb::Status RunReadCold(const Args& args, Report* report);

/// mixed: closed-loop traffic from 7 reading clients and 1 writing client
/// (about 5% updates) against seven durable stores with background
/// maintenance.
mctdb::Status RunMixed(const Args& args, Report* report);

}  // namespace perfbench
