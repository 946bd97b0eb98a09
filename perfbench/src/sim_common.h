// Pieces shared by the workloads, mostly the two simulated ones
// (metro_fleet on harness::ShardedScenario, churn_crash on
// harness::Scenario). Both harnesses expose the same read-only client/node
// accessors, so the end-of-run checks and per-layer readers are written
// once as templates; live_discovery reuses the manager-layer reader.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "arith.h"
#include "client/edge_client.h"
#include "common/types.h"
#include "harness/fleet.h"
#include "manager/central_manager.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "report.h"

namespace perfbench {

// What one finished simulated round measured, for the end-to-end report
// and the cross-round determinism check.
struct SimOutcome {
  std::uint64_t sessions{0};
  std::uint64_t failed_sessions{0};
  std::uint64_t unattached{0};  // failed: no current node at the horizon
  eden::client::ClientStats totals;
  double p50_ms{0.0};
  double p99_ms{0.0};
  std::size_t latency_count{0};
  std::vector<double> outage_gaps_ms;
};

// Approximate percentile of a log2-bucket histogram: linear inside the
// bucket that holds the rank, clamped to the observed min/max.
inline double histogram_percentile(const eden::obs::HistogramData& h,
                                   double p) {
  const std::uint64_t n = h.stats.count();
  if (n == 0) return 0.0;
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(n);
  double seen = 0.0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const auto c = static_cast<double>(h.buckets[i]);
    if (c == 0.0) continue;
    if (seen + c >= rank) {
      const auto [lo, hi] = eden::obs::histogram_bucket_bounds(i);
      const double frac = (rank - seen) / c;
      return std::clamp(lo + (hi - lo) * frac, h.stats.min(), h.stats.max());
    }
    seen += c;
  }
  return h.stats.max();
}

inline double snapshot_percentile(const eden::obs::MetricsSnapshot& s,
                                  const std::string& name, double p) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0.0 : histogram_percentile(it->second, p);
}

inline double snapshot_counter(const eden::obs::MetricsSnapshot& s,
                               const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
}

// Host times of one simulated round: build, then run_until split at the
// end of the join ramp.
struct Timed {
  double setup_s{0};
  double ramp_s{0};
  double steady_s{0};
  [[nodiscard]] double run_s() const { return ramp_s + steady_s; }
};

// End-of-run checks shared by both simulated workloads, against the
// benchmark's own inputs (client start times, frame rate, the node specs)
// and properties the protocol must have. Also tallies sessions: a session
// fails when its client ends the run unattached or completes no frame in
// [quiet_from, horizon].
template <typename World>
SimOutcome check_fleet(World& world,
                       const std::vector<eden::SimTime>& starts,
                       double fps, eden::SimDuration frame_timeout,
                       eden::SimTime quiet_from, eden::SimTime horizon,
                       Report& report) {
  SimOutcome out;
  // Node facts: id -> (running, attached clients, base_frame_ms).
  std::unordered_map<std::uint32_t, std::size_t> node_by_id;
  double min_base_ms = 1e300;
  for (std::size_t i = 0; i < world.node_count(); ++i) {
    node_by_id[world.node_id(i).value] = i;
    min_base_ms = std::min(min_base_ms, world.node_spec(i).base_frame_ms);
  }
  std::unordered_map<std::uint32_t, std::unordered_set<std::uint32_t>>
      attached;
  for (std::size_t i = 0; i < world.node_count(); ++i) {
    auto& node = world.node(i);
    if (!node.running()) continue;
    auto& set = attached[node.id().value];
    for (const eden::ClientId c : node.attached_ids()) set.insert(c.value);
  }

  const eden::SimDuration interval = eden::sec(1.0 / fps);
  const auto max_in_flight = static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(frame_timeout) /
                static_cast<double>(interval)) + 1);
  const eden::SimDuration gap_threshold = 2 * interval;
  std::vector<Micros> completions;
  std::uint64_t bad_node = 0, bad_offer = 0, bad_conservation = 0,
                bad_floor = 0;
  for (std::size_t i = 0; i < world.edge_client_count(); ++i) {
    const eden::client::EdgeClient& c = world.edge_client(i);
    const eden::client::ClientStats& s = c.stats();
    ++out.sessions;
    out.totals += s;

    // Offered frames: the fixed-rate timer fires at start + k * interval.
    const eden::SimTime start = starts[i];
    const std::uint64_t offered =
        horizon > start ? static_cast<std::uint64_t>((horizon - start) /
                                                     interval)
                        : 0;
    if (s.frames_sent > offered || s.frames_ok > offered) ++bad_offer;
    // sent = ok + failed + in flight, with in flight bounded by the frames
    // the rpc timeout can still hold open.
    const std::uint64_t settled = s.frames_ok + s.frames_failed;
    if (settled > s.frames_sent ||
        s.frames_sent - settled > max_in_flight) {
      ++bad_conservation;
    }
    // No frame completes faster than the fastest node's idle service time.
    if (!c.latency_samples().empty() &&
        c.latency_samples().min() < min_base_ms) {
      ++bad_floor;
    }

    bool ok = false;
    const auto current = c.current_node();
    if (!current) ++out.unattached;
    if (current) {
      const auto it = node_by_id.find(current->value);
      const bool lists =
          it != node_by_id.end() && world.node(it->second).running() &&
          attached[current->value].count(c.id().value) > 0;
      if (!lists) ++bad_node;
      const auto& points = c.latency_series().points();
      ok = lists && !points.empty() && points.back().first >= quiet_from;
    }
    if (!ok) ++out.failed_sessions;

    completions.clear();
    for (const auto& [at, ms] : c.latency_series().points()) {
      (void)ms;
      completions.push_back(at);
    }
    append_outage_gaps(completions, gap_threshold, out.outage_gaps_ms);
  }
  report.check(bad_node == 0,
               std::to_string(bad_node) +
                   " clients end attached to a node that is not running or "
                   "does not list them");
  report.check(bad_offer == 0, std::to_string(bad_offer) +
                                   " clients sent or completed more frames "
                                   "than their fixed rate offers");
  report.check(bad_conservation == 0,
               std::to_string(bad_conservation) +
                   " clients break sent = ok + failed + in flight");
  report.check(bad_floor == 0,
               std::to_string(bad_floor) +
                   " clients saw a frame faster than any node's "
                   "base_frame_ms");
  report.check(out.totals.frames_ok > 0, "no frame completed");
  return out;
}

// Traced-run witness: per frame, the completion is no faster than the
// serving node's base_frame_ms, every completion matches a send, and per
// client sent = ok + failed + in flight holds exactly.
template <typename World>
void check_trace_frames(World& world,
                        const std::vector<eden::obs::TraceEvent>& events,
                        Report& report) {
  std::unordered_map<std::uint32_t, double> base_ms;
  for (std::size_t i = 0; i < world.node_count(); ++i) {
    base_ms[world.node_id(i).value] = world.node_spec(i).base_frame_ms;
  }
  struct Counts {
    std::unordered_set<std::uint64_t> open;
    std::uint64_t sent{0}, ok{0}, failed{0};
  };
  std::unordered_map<std::uint32_t, Counts> by_client;
  std::uint64_t too_fast = 0, orphan = 0;
  for (const eden::obs::TraceEvent& e : events) {
    switch (e.kind) {
      case eden::obs::EventKind::kFrameSend: {
        Counts& c = by_client[e.actor.value];
        ++c.sent;
        c.open.insert(e.span);
        break;
      }
      case eden::obs::EventKind::kFrameOk: {
        Counts& c = by_client[e.actor.value];
        ++c.ok;
        if (c.open.erase(e.span) == 0) ++orphan;
        const auto it = base_ms.find(e.subject.value);
        if (it == base_ms.end() || e.value < it->second) ++too_fast;
        break;
      }
      case eden::obs::EventKind::kFrameDrop: {
        Counts& c = by_client[e.actor.value];
        ++c.failed;
        c.open.erase(static_cast<std::uint64_t>(std::llround(e.value)));
        break;
      }
      default:
        break;
    }
  }
  std::uint64_t mismatched = 0;
  for (std::size_t i = 0; i < world.edge_client_count(); ++i) {
    const eden::client::EdgeClient& cl = world.edge_client(i);
    const Counts& c = by_client[cl.id().value];
    const eden::client::ClientStats& s = cl.stats();
    if (c.sent != s.frames_sent || c.ok != s.frames_ok ||
        c.failed != s.frames_failed ||
        c.sent != c.ok + c.failed + c.open.size()) {
      ++mismatched;
    }
  }
  report.check(too_fast == 0, std::to_string(too_fast) +
                                  " traced frames completed faster than "
                                  "their node's base_frame_ms");
  report.check(orphan == 0, std::to_string(orphan) +
                                " traced frame completions match no send");
  report.check(mismatched == 0,
               std::to_string(mismatched) +
                   " clients' traced frames disagree with their stats or "
                   "break sent = ok + failed + in flight");
}

// Node-layer counters summed over the fleet.
template <typename World>
void report_node_layer(World& world, Report& report) {
  double processed = 0, shed = 0, rejected = 0, evictions = 0;
  for (std::size_t i = 0; i < world.node_count(); ++i) {
    const auto& s = world.node(i).stats();
    processed += static_cast<double>(s.frames_processed);
    shed += static_cast<double>(s.frames_shed);
    rejected += static_cast<double>(s.joins_rejected);
    evictions += static_cast<double>(s.evictions);
  }
  report.set("node.frames_processed", processed);
  report.set("node.frames_shed", shed);
  report.set("node.joins_rejected", rejected);
  report.set("node.evictions", evictions);
}

// Executor occupancy sampled at a checkpoint (read-only accessors).
struct ExecutorSampler {
  std::vector<double> utilization;
  int queue_peak{0};

  template <typename World>
  void sample(World& world) {
    for (std::size_t i = 0; i < world.node_count(); ++i) {
      auto& node = world.node(i);
      if (!node.running()) continue;
      utilization.push_back(node.executor().utilization());
      queue_peak = std::max(queue_peak, node.executor().queued());
    }
  }
  void report_to(Report& report) const {
    report.set("node.util_p99", percentile(utilization, 99.0));
    report.set("node.queue_peak", queue_peak);
  }
};

// Client-layer counters plus the MetricsRegistry histograms.
inline void report_client_layer(const SimOutcome& outcome,
                                const eden::obs::MetricsSnapshot& metrics,
                                Report& report) {
  const eden::client::ClientStats& totals = outcome.totals;
  report.set("client.frames_sent", static_cast<double>(totals.frames_sent));
  report.set("client.frames_ok", static_cast<double>(totals.frames_ok));
  report.set("client.frames_failed",
             static_cast<double>(totals.frames_failed));
  report.set("client.frame_p99_ms", outcome.p99_ms);
  report.set("client.discoveries", static_cast<double>(totals.discoveries));
  report.set("client.probes", static_cast<double>(totals.probes_sent));
  report.set("client.switches", static_cast<double>(totals.switches));
  report.set("client.failovers", static_cast<double>(totals.failovers));
  report.set("client.hard_failures",
             static_cast<double>(totals.hard_failures));
  report.set("client.join_ms_p50",
             snapshot_percentile(metrics, "client.join_ms", 50.0));
  report.set("client.failover_ms_p50",
             snapshot_percentile(metrics, "client.failover_ms", 50.0));
  report.set("client.failover_ms_p99",
             snapshot_percentile(metrics, "client.failover_ms", 99.0));
  report.set("client.probe_cycle_ms_p50",
             snapshot_percentile(metrics, "client.probe_cycle_ms", 50.0));
  report.set("client.outage_gaps",
             static_cast<double>(outcome.outage_gaps_ms.size()));
  report.set("client.outage_p50_ms", percentile(outcome.outage_gaps_ms, 50.0));
  report.set("client.outage_p99_ms", percentile(outcome.outage_gaps_ms, 99.0));
}

inline void report_manager_layer(const eden::manager::ManagerStats& ms,
                                 const eden::obs::MetricsSnapshot& metrics,
                                 Report& report) {
  report.set("manager.discoveries", static_cast<double>(ms.discovery_queries));
  report.set("manager.registrations", static_cast<double>(ms.registrations));
  report.set("manager.heartbeats", static_cast<double>(ms.heartbeats));
  report.set("manager.rejoins", static_cast<double>(ms.rejoins));
  report.set("manager.overload_enters",
             static_cast<double>(ms.overload_enters));
  report.set("manager.cell_sheds", static_cast<double>(ms.cell_sheds));
  report.set("manager.expirations",
             snapshot_counter(metrics, "manager.expirations"));
}

// Host time of CentralManager::handle_discover on the manager's live
// registry, for every client's own request, taken at the horizon after
// every other reading (the calls count as discoveries).
template <typename World>
void time_discover(World& world, eden::manager::CentralManager& manager,
                   CostTable& costs, Report& report) {
  std::vector<eden::net::DiscoveryRequest> requests;
  for (std::size_t i = 0; i < world.edge_client_count(); ++i) {
    const eden::client::ClientConfig& cc = world.edge_client(i).config();
    eden::net::DiscoveryRequest r;
    r.client = cc.id;
    r.geohash = cc.geohash;
    r.network_tag = cc.network_tag;
    r.top_n = cc.top_n;
    requests.push_back(std::move(r));
  }
  const auto n = static_cast<double>(requests.size());
  eden::net::DiscoveryResponse response;
  std::uint64_t candidates = 0;
  const Stopwatch watch;
  for (const eden::net::DiscoveryRequest& r : requests) {
    manager.handle_discover(r, response);
    candidates += response.candidates.size();
  }
  const double seconds = watch.seconds();
  costs.add("handle_discover x clients", "manager", seconds);
  report.set("manager.discover_ns", seconds * 1e9 / n);
  report.set("manager.candidates_per_query",
             static_cast<double>(candidates) / n);
}

// Same seed, same world: every round of a run must reproduce the first
// round's simulated observables exactly.
inline void check_rounds_agree(const SimOutcome& first, const SimOutcome& now,
                               Report& report) {
  report.check(first.totals.frames_sent == now.totals.frames_sent &&
                   first.totals.frames_ok == now.totals.frames_ok &&
                   first.totals.frames_failed == now.totals.frames_failed &&
                   first.p50_ms == now.p50_ms && first.p99_ms == now.p99_ms,
               "a repeated round of the same seed diverged");
}

}  // namespace perfbench
