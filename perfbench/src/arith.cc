#include "arith.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank =
      clamped / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, p);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(n - 1);
  return n - 1 - static_cast<std::size_t>(std::floor(rank));
}

void append_outage_gaps(const std::vector<Micros>& completions,
                        Micros threshold, std::vector<double>& out_ms) {
  for (std::size_t i = 1; i < completions.size(); ++i) {
    const Micros gap = completions[i] - completions[i - 1];
    if (gap > threshold) out_ms.push_back(static_cast<double>(gap) / 1000.0);
  }
}

Micros OpenLoopSchedule::due(std::uint64_t i) const {
  return start_ +
         static_cast<Micros>(std::llround(static_cast<double>(i) * period_us_));
}

std::uint64_t OpenLoopSchedule::due_by(Micros now) const {
  if (now < start_) return 0;
  // First estimate from the rate, then correct for rounding at the edges.
  auto n = static_cast<std::uint64_t>(
      static_cast<double>(now - start_) / period_us_) + 1;
  while (n > 0 && due(n - 1) > now) --n;
  while (n < calls_ && due(n) <= now) ++n;
  return std::min(n, calls_);
}

void LatenessLog::record(Micros due, Micros sent) {
  lateness_us_.push_back(static_cast<double>(std::max<Micros>(0, sent - due)));
}

}  // namespace perfbench
