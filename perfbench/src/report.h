// Run plumbing shared by the three workloads: command-line arguments, the
// result record printed as the last line of stdout, host-time accounting
// by phase and layer, and process-level probes (peak RSS).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
};

// Parses --workload/--seed/--seconds/--trace; returns false (with a
// message on stderr) on anything malformed or missing.
bool parse_args(int argc, char** argv, Args& out);

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Result of one run. End-to-end runs (--trace 0) carry every end-to-end
// metric; traced runs (--trace 1) every per-layer metric, which start at 0
// so a layer that does no work on a workload still reports (as 0).
class Report {
 public:
  explicit Report(bool traced);

  void set(const std::string& name, double value);
  // Records a failed output check; the run then reports correct = false
  // and exits non-zero.
  void check(bool ok, const std::string& what);
  [[nodiscard]] bool correct() const { return failures_.empty(); }

  std::uint64_t attempted{0};
  std::uint64_t failed{0};

  // Prints the check failures (stderr) and the one-line JSON result
  // (stdout, last line).
  void print() const;

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value{0.0};
    bool set{false};
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

// Host time spent inside the calls the benchmark makes, keyed by the run
// phase and the layer the call enters. print() ranks the entries, so the
// top line names the next performance target.
class CostTable {
 public:
  void add(const std::string& phase, const std::string& layer,
           double seconds);
  template <typename Fn>
  void time(const std::string& phase, const std::string& layer, Fn&& fn) {
    const Stopwatch watch;
    fn();
    add(phase, layer, watch.seconds());
  }
  void print(std::FILE* out) const;

 private:
  struct Entry {
    std::string phase;
    std::string layer;
    double seconds{0.0};
  };
  std::vector<Entry> entries_;
};

// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

// Cores this process may run on (sched affinity), at least 1.
[[nodiscard]] unsigned usable_cores();

}  // namespace perfbench
