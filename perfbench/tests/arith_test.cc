// Tests of the benchmark's own arithmetic: the tail percentile rule (ten
// samples beyond it), outage-gap extraction from a latency series, and the
// open-loop schedule / lateness accounting. Run with
// `python3 perfbench/run.py --selftest`; exit code 0 means every check held.
#include <cmath>
#include <cstdio>
#include <vector>

#include "arith.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "arith_test:%d: FAILED: %s\n", line, what);
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentiles() {
  using perfbench::percentile;
  // Linear interpolation between order statistics (eden::Samples' rule).
  EXPECT(near(percentile({1, 2, 3, 4}, 50.0), 2.5));
  EXPECT(near(percentile({4, 1, 3, 2}, 0.0), 1.0));
  EXPECT(near(percentile({4, 1, 3, 2}, 100.0), 4.0));
  EXPECT(near(percentile({7}, 99.0), 7.0));
  EXPECT(percentile({}, 50.0) == 0.0);
  EXPECT(near(perfbench::median({5, 1, 9}), 5.0));

  // p99 of 1..1000: rank 0.99 * 999 = 989.01 -> 990 + 0.01.
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT(near(percentile(v, 99.0), 990.01));
}

void test_tail_support() {
  using perfbench::samples_beyond;
  using perfbench::tail_supported;
  // 1000 samples: the p99 point sits at rank 989.01, so ranks 990..999
  // (ten samples) lie beyond it — just enough.
  EXPECT(samples_beyond(1000, 99.0) == 10);
  EXPECT(tail_supported(1000, 99.0));
  // 999 samples: rank 988.02, ranks 989..998 — still ten.
  EXPECT(samples_beyond(999, 99.0) == 10);
  // 900 samples: rank 890.01, ranks 891..899 — nine, not enough.
  EXPECT(samples_beyond(900, 99.0) == 9);
  EXPECT(!tail_supported(900, 99.0));
  // An exact rank: 101 samples at p90 -> rank 90, ten beyond.
  EXPECT(samples_beyond(101, 90.0) == 10);
  EXPECT(samples_beyond(0, 99.0) == 0);
  EXPECT(!tail_supported(0, 50.0));
  EXPECT(samples_beyond(5, 50.0) == 2);
}

void test_outage_gaps() {
  std::vector<double> gaps;
  // 5 fps frames (200 ms period), threshold two periods = 400 ms.
  const perfbench::Micros threshold = 400'000;
  // Steady stream, one 1.2 s hole (failover), one gap exactly at the
  // threshold (not an outage: must be longer than two periods).
  const std::vector<perfbench::Micros> completions = {
      0, 200'000, 400'000, 1'600'000, 1'800'000, 2'200'000, 2'400'000};
  perfbench::append_outage_gaps(completions, threshold, gaps);
  EXPECT(gaps.size() == 1);
  EXPECT(!gaps.empty() && near(gaps[0], 1200.0));
  // Appends, never clears; empty and single-point series add nothing.
  perfbench::append_outage_gaps({}, threshold, gaps);
  perfbench::append_outage_gaps({5}, threshold, gaps);
  perfbench::append_outage_gaps({0, 500'000}, threshold, gaps);
  EXPECT(gaps.size() == 2);
  EXPECT(gaps.size() == 2 && near(gaps[1], 500.0));
}

void test_open_loop() {
  // 3 calls per millisecond: due at 1000 + round(i * 333.33) us.
  const perfbench::OpenLoopSchedule s(1000, 1000.0 / 3.0, 7);
  EXPECT(s.due(0) == 1000);
  EXPECT(s.due(1) == 1333);
  EXPECT(s.due(2) == 1667);
  EXPECT(s.due(3) == 2000);  // no accumulated rounding drift
  EXPECT(s.due_by(999) == 0);
  EXPECT(s.due_by(1000) == 1);
  EXPECT(s.due_by(1332) == 1);
  EXPECT(s.due_by(1333) == 2);
  EXPECT(s.due_by(2000) == 4);
  EXPECT(s.due_by(1'000'000) == 7);  // capped at the call count

  // Lateness: send minus due, never negative.
  perfbench::LatenessLog log;
  for (int i = 0; i < 99; ++i) log.record(1000 * i, 1000 * i + 10);
  log.record(500'000, 503'000);  // one 3 ms stall
  log.record(600'000, 599'000);  // sent "early" counts as on time
  EXPECT(log.lateness_us().size() == 101);
  EXPECT(near(perfbench::percentile(log.lateness_us(), 100.0), 3000.0));
  EXPECT(log.lateness_us().back() == 0.0);
  // 101 samples, p99 at rank exactly 99: sorted they are one 0, 99 tens
  // and the stall, so rank 99 is still a 10.
  EXPECT(near(log.p99_us(), 10.0));
}

}  // namespace

int main() {
  test_percentiles();
  test_tail_support();
  test_outage_gaps();
  test_open_loop();
  if (failures == 0) std::printf("arith_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
