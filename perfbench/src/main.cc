// perfbench: EDEN's end-to-end benchmark program.
//
//   perfbench --workload metro_fleet|churn_crash|live_discovery
//             --seed N --seconds S --trace 0|1
//
// Prints the workload's human-readable notes first and, as the last line
// of stdout, one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. Exits non-zero when an output
// check failed or the arguments were bad.
#include <cstdio>
#include <exception>
#include <string>

#include "report.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) return 2;
  perfbench::Report report(args.trace);
  try {
    if (args.workload == "metro_fleet") {
      perfbench::run_metro_fleet(args, report);
    } else if (args.workload == "churn_crash") {
      perfbench::run_churn_crash(args, report);
    } else if (args.workload == "live_discovery") {
      perfbench::run_live_discovery(args, report);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.print();
  return report.correct() ? 0 : 1;
}
