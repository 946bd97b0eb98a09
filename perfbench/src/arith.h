// The benchmark's own arithmetic, kept free of any EDEN type so that
// tests/arith_test.cc can pin it: order statistics, outage-gap extraction
// from a client's latency series, and open-loop schedule/lateness
// accounting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

// Simulated or host time in microseconds (matches eden::SimTime).
using Micros = std::int64_t;

// p in [0, 100], linear interpolation between order statistics — the same
// rule eden::Samples uses, so simulated percentiles agree with the
// harness's FleetStats. `sorted` must be ascending; 0 when empty.
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted,
                                       double p);
// Sorts a copy, then percentile_sorted().
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);

// Samples that lie strictly beyond the p-th percentile's interpolation
// point among n samples: n - 1 - floor(p/100 * (n - 1)). A tail percentile
// is reported only when at least ten samples lie beyond it.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);
inline constexpr std::size_t kMinTailSamples = 10;
[[nodiscard]] inline bool tail_supported(std::size_t n, double p) {
  return n > 0 && samples_beyond(n, p) >= kMinTailSamples;
}

// Outage gaps of one client: given the completion times of its frames (in
// non-decreasing order, as eden::TimeSeries stores them), append every
// interval between consecutive completions that is longer than
// `threshold` to `out_ms`, in milliseconds.
void append_outage_gaps(const std::vector<Micros>& completions,
                        Micros threshold, std::vector<double>& out_ms);

// Open-loop generator schedule: call i is due at start + i * period (the
// product is rounded to the nearest microsecond, so rounding never
// accumulates). Latency is timed from the due time, so a stalled
// generator's lateness lands in every later call's latency.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(Micros start, double period_us, std::uint64_t calls)
      : start_(start), period_us_(period_us), calls_(calls) {}

  [[nodiscard]] Micros due(std::uint64_t i) const;
  // Number of calls due at or before `now`, capped at the call count.
  [[nodiscard]] std::uint64_t due_by(Micros now) const;

 private:
  Micros start_;
  double period_us_;
  std::uint64_t calls_;
};

// How late an open-loop generator ran: for each call, send time minus due
// time (never negative — a call is never sent early).
class LatenessLog {
 public:
  void record(Micros due, Micros sent);
  [[nodiscard]] const std::vector<double>& lateness_us() const {
    return lateness_us_;
  }
  [[nodiscard]] double p99_us() const { return percentile(lateness_us_, 99.0); }

 private:
  std::vector<double> lateness_us_;
};

}  // namespace perfbench
