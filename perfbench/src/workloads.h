// The benchmark's workloads. Each runs whole rounds of its fixed
// operations until --seconds have passed (--trace 0: end-to-end metrics),
// or its traced pass with checkpoints and witnesses (--trace 1: per-layer
// metrics), checking the program's outputs as it goes.
#pragma once

#include "report.h"

namespace perfbench {

void run_metro_fleet(const Args& args, Report& report);
void run_churn_crash(const Args& args, Report& report);
void run_live_discovery(const Args& args, Report& report);

}  // namespace perfbench
