#include "report.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every end-to-end metric, printed by every workload with --trace 0. Keep
// in step with BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},        {"run_s", "s"},
    {"peak_rss_mb", "MB"},   {"latency_p50_ms", "ms"},
};

// Every per-layer metric, printed by every workload with --trace 1.
constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.allocs_per_event", "allocs/event"},
    {"net.cross_shard_msgs", "count"},
    {"net.rpc_slots_peak", "count"},
    {"harness.windows", "count"},
    {"harness.window_ms", "ms"},
    {"harness.stall_frac", "ratio"},
    {"harness.domain_imbalance", "ratio"},
    {"harness.pool_speedup", "ratio"},
    {"harness.ramp_s", "s"},
    {"harness.steady_s", "s"},
    {"client.frames_sent", "count"},
    {"client.frames_ok", "count"},
    {"client.frames_failed", "count"},
    {"client.frame_p99_ms", "ms"},
    {"client.discoveries", "count"},
    {"client.probes", "count"},
    {"client.switches", "count"},
    {"client.failovers", "count"},
    {"client.hard_failures", "count"},
    {"client.join_ms_p50", "ms"},
    {"client.failover_ms_p50", "ms"},
    {"client.failover_ms_p99", "ms"},
    {"client.probe_cycle_ms_p50", "ms"},
    {"client.outage_gaps", "count"},
    {"client.outage_p50_ms", "ms"},
    {"client.outage_p99_ms", "ms"},
    {"node.frames_processed", "count"},
    {"node.frames_shed", "count"},
    {"node.joins_rejected", "count"},
    {"node.evictions", "count"},
    {"node.util_p99", "ratio"},
    {"node.queue_peak", "count"},
    {"manager.discoveries", "count"},
    {"manager.registrations", "count"},
    {"manager.heartbeats", "count"},
    {"manager.expirations", "count"},
    {"manager.rejoins", "count"},
    {"manager.overload_enters", "count"},
    {"manager.cell_sheds", "count"},
    {"manager.discover_ns", "ns"},
    {"manager.candidates_per_query", "count"},
    {"journal.records", "count"},
    {"journal.batches", "count"},
    {"journal.bytes", "bytes"},
    {"journal.records_per_batch", "count"},
    {"journal.replay_ns_per_record", "ns"},
    {"journal.takeover_ms", "ms"},
    {"journal.readmission_ms", "ms"},
    {"rpc.allocs_per_op", "allocs/op"},
    {"rpc.connections", "count"},
    {"rpc.pool_chunks_peak", "count"},
    {"rpc.gen_lag_p99_us", "us"},
    {"rpc.heartbeats_sent", "count"},
    {"rpc.discover_qps", "1/s"},
    {"rpc.discover_p50_us", "us"},
    {"rpc.discover_p99_us", "us"},
    {"obs.trace_events", "count"},
    {"obs.trace_overhead", "ratio"},
};

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') return false;
  out = v;
  return true;
}

}  // namespace

bool parse_args(int argc, char** argv, Args& out) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag);
      return false;
    }
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      out.workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      if (!parse_u64(value, out.seed)) {
        std::fprintf(stderr, "perfbench: bad --seed %s\n", value);
        return false;
      }
    } else if (std::strcmp(flag, "--seconds") == 0) {
      char* end = nullptr;
      out.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(out.seconds > 0.0)) {
        std::fprintf(stderr, "perfbench: bad --seconds %s\n", value);
        return false;
      }
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        std::fprintf(stderr, "perfbench: --trace takes 0 or 1\n");
        return false;
      }
      out.trace = value[0] == '1';
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag);
      return false;
    }
  }
  if (!have_workload) {
    std::fprintf(stderr, "perfbench: --workload is required\n");
    return false;
  }
  return true;
}

Report::Report(bool traced) {
  if (traced) {
    for (const MetricDef& def : kPerLayer) {
      metrics_.push_back({def.name, def.unit, 0.0, true});
    }
  } else {
    for (const MetricDef& def : kEndToEnd) {
      metrics_.push_back({def.name, def.unit, 0.0, false});
    }
  }
}

void Report::set(const std::string& name, double value) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.set = true;
      return;
    }
  }
  // Metrics of the other run kind are computed along the way and dropped;
  // a name in neither catalog is a typo.
  const auto known = [&name](const auto& catalog) {
    for (const MetricDef& def : catalog) {
      if (name == def.name) return true;
    }
    return false;
  };
  check(known(kEndToEnd) || known(kPerLayer), "unknown metric " + name);
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void Report::print() const {
  for (const std::string& f : failures_) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!m.set) {
      std::fprintf(stderr, "perfbench: metric %s was never measured\n",
                   m.name.c_str());
    }
    char value[64];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::fflush(stderr);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void CostTable::add(const std::string& phase, const std::string& layer,
                    double seconds) {
  for (Entry& e : entries_) {
    if (e.phase == phase && e.layer == layer) {
      e.seconds += seconds;
      return;
    }
  }
  entries_.push_back({phase, layer, seconds});
}

void CostTable::print(std::FILE* out) const {
  std::vector<Entry> sorted = entries_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.seconds > b.seconds;
                   });
  double total = 0.0;
  for (const Entry& e : sorted) total += e.seconds;
  std::fprintf(out, "host time by phase and layer (ranked)\n");
  std::fprintf(out, "  %-4s %-26s %-10s %10s %7s\n", "rank", "phase", "layer",
               "host s", "share");
  int rank = 1;
  for (const Entry& e : sorted) {
    std::fprintf(out, "  %-4d %-26s %-10s %10.4f %6.1f%%\n", rank++,
                 e.phase.c_str(), e.layer.c_str(), e.seconds,
                 total > 0 ? 100.0 * e.seconds / total : 0.0);
  }
  std::fprintf(out, "  %-4s %-26s %-10s %10.4f\n", "", "total", "", total);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KB
}

unsigned usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace perfbench
