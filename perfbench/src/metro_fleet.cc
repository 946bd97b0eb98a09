// metro_fleet: bench_scale's Minneapolis metro fleet — 10k clients, 3k
// heterogeneous volunteer nodes, staggered joins then steady state — run
// in harness::ShardedScenario with 4 shard domains on a multi-threaded
// WindowPool. Every client streams frames at a fixed 2 fps (open loop in
// simulated time). The manager idles after the join ramp; no journal.
#include <memory>
#include <string>
#include <vector>

#include "alloc_hook.h"
#include "common/rng.h"
#include "harness/experiments.h"
#include "harness/sharded_scenario.h"
#include "sim_common.h"
#include "workloads.h"

namespace perfbench {

using namespace eden;

namespace {

constexpr geo::GeoPoint kMetroCenter{44.9778, -93.2650};  // Minneapolis
constexpr std::size_t kNodes = 3000;
constexpr std::size_t kClients = 10000;
constexpr double kFps = 2.0;
constexpr unsigned kShards = 4;
// Client starts are staggered evenly over [0, kJoinSpread).
constexpr SimDuration kJoinSpread = sec(5.0);
// run_until is split here: host time before it is the join ramp, after it
// the steady state.
constexpr SimTime kRampEnd = sec(8.0);
constexpr SimTime kHorizon = sec(16.0);
// A session must complete a frame in the final quiet window.
constexpr SimDuration kQuietWindow = sec(4.0);
// Traced-run checkpoint period (executor sampling).
constexpr SimDuration kCheckpoint = sec(1.0);

struct MetroWorld {
  std::unique_ptr<harness::ShardedScenario> scenario;
  std::vector<SimTime> starts;  // per client
};

MetroWorld build_world(std::uint64_t seed, unsigned shards, unsigned threads,
                       bool trace) {
  MetroWorld world;
  harness::ShardedConfig config;
  config.base.seed = seed;
  config.base.trace = trace;
  config.shards = shards;
  config.threads = threads;
  world.scenario = std::make_unique<harness::ShardedScenario>(config);
  harness::ShardedScenario& s = *world.scenario;
  Rng layout = Rng(seed).fork("metro-layout");

  const std::size_t first_node = s.add_nodes(
      harness::NodeSpec{}, kNodes, [&](std::size_t i, harness::NodeSpec& spec) {
        spec.name = "n" + std::to_string(i);
        spec.position = harness::random_point_near(kMetroCenter, 45.0, layout);
        spec.cores = static_cast<int>(layout.uniform_int(2, 8));
        spec.base_frame_ms = layout.uniform(20.0, 45.0);
        spec.network_tag = (i % 3 == 0) ? "isp-a" : "isp-b";
      });
  for (std::size_t i = 0; i < kNodes; ++i) s.start_node(first_node + i);

  const std::size_t first_client = s.add_edge_clients(
      [&](std::size_t i) {
        harness::ClientSpot spot;
        spot.name = "u" + std::to_string(i);
        spot.position = harness::random_point_near(kMetroCenter, 40.0, layout);
        spot.network_tag = (i % 2 == 0) ? "isp-a" : "isp-b";
        return spot;
      },
      [](std::size_t) {
        client::ClientConfig cc;
        cc.top_n = 3;
        cc.app.max_fps = kFps;
        cc.app.min_fps = kFps;
        cc.app.adaptive_rate = false;
        return cc;
      },
      kClients);
  world.starts.resize(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    const SimTime at = kJoinSpread * static_cast<SimDuration>(i) /
                       static_cast<SimDuration>(kClients);
    world.starts[i] = at;
    s.schedule_at_client(first_client + i, at,
                         [](client::EdgeClient& c) { c.start(); });
  }
  return world;
}

unsigned pool_threads() { return std::min(2u, usable_cores()); }

// Fleet-level results and checks of a finished world.
SimOutcome finish(MetroWorld& world, Report& report) {
  const harness::FleetStats fleet = world.scenario->fleet_stats();
  SimOutcome out = check_fleet(*world.scenario, world.starts, kFps,
                               harness::StubTimeouts{}.frame,
                               kHorizon - kQuietWindow, kHorizon, report);
  out.p50_ms = fleet.latency_p50_ms;
  out.p99_ms = fleet.latency_p99_ms;
  out.latency_count = fleet.latency_count;
  report.check(fleet.totals.frames_ok == out.totals.frames_ok,
               "fleet_stats disagrees with the per-client frame counts");
  report.check(tail_supported(fleet.latency_count, 99.0),
               "frame p99 has fewer than ten samples beyond it");
  return out;
}

// Build and run one untraced world, recording host times.
MetroWorld timed_round(std::uint64_t seed, unsigned shards, unsigned threads,
                       Timed& t) {
  const Stopwatch setup;
  MetroWorld world = build_world(seed, shards, threads, /*trace=*/false);
  t.setup_s = setup.seconds();
  const Stopwatch ramp;
  world.scenario->run_until(kRampEnd);
  t.ramp_s = ramp.seconds();
  const Stopwatch steady;
  world.scenario->run_until(kHorizon);
  t.steady_s = steady.seconds();
  return world;
}

void run_end_to_end(const Args& args, Report& report) {
  const unsigned threads = pool_threads();
  std::vector<double> setups, runs;
  SimOutcome first;
  const Stopwatch total;
  do {
    Timed t;
    MetroWorld world = timed_round(args.seed, kShards, threads, t);
    const SimOutcome out = finish(world, report);
    if (setups.empty()) {
      first = out;
    } else {
      check_rounds_agree(first, out, report);
    }
    setups.push_back(t.setup_s);
    runs.push_back(t.run_s());
    report.attempted += out.sessions;
    report.failed += out.failed_sessions;
  } while (total.seconds() < args.seconds);
  std::fprintf(stderr,
               "metro_fleet: %zu rounds, %u threads, frames_ok %llu, "
               "failed sessions %llu (%llu unattached)\n",
               runs.size(), threads,
               static_cast<unsigned long long>(first.totals.frames_ok),
               static_cast<unsigned long long>(first.failed_sessions),
               static_cast<unsigned long long>(first.unattached));
  report.set("setup_s", median(setups));
  report.set("run_s", median(runs));
  report.set("peak_rss_mb", peak_rss_mb());
  report.set("latency_p50_ms", first.p50_ms);
}

void run_traced(const Args& args, Report& report) {
  CostTable costs;
  const unsigned threads = pool_threads();

  // 1. Untraced at the workload's thread count: engine and barrier costs.
  Timed base;
  SimOutcome reference;
  std::uint64_t reference_discoveries = 0;
  {
    const std::uint64_t allocs_before = allocation_count();
    MetroWorld world = timed_round(args.seed, kShards, threads, base);
    const std::uint64_t allocs = allocation_count() - allocs_before;
    costs.add("build world", "harness", base.setup_s);
    costs.add("run_until join ramp", "harness", base.ramp_s);
    costs.add("run_until steady", "harness", base.steady_s);
    const harness::ShardStats st = world.scenario->shard_stats();
    std::uint64_t events = 0, peak = 0;
    for (const std::uint64_t e : st.events_per_domain) {
      events += e;
      peak = std::max(peak, e);
    }
    report.set("sim.events", static_cast<double>(events));
    report.set("sim.ns_per_event",
               base.run_s() * 1e9 / static_cast<double>(events));
    // Allocations over setup + run per event: the fleet build is part of
    // the world's cost, and the run itself should allocate almost nothing.
    report.set("sim.allocs_per_event",
               static_cast<double>(allocs) / static_cast<double>(events));
    report.set("net.cross_shard_msgs",
               static_cast<double>(st.cross_shard_messages));
    report.set("harness.windows", static_cast<double>(st.windows));
    report.set("harness.window_ms", to_ms(st.window_length));
    report.set("harness.stall_frac",
               static_cast<double>(st.stalled_domain_windows) /
                   static_cast<double>(std::max<std::uint64_t>(
                       1, st.windows * st.events_per_domain.size())));
    report.set("harness.domain_imbalance",
               static_cast<double>(peak) * static_cast<double>(
                   st.events_per_domain.size()) /
                   static_cast<double>(std::max<std::uint64_t>(1, events)));
    report.set("harness.ramp_s", base.ramp_s);
    report.set("harness.steady_s", base.steady_s);
    costs.time("fleet_stats + checks", "harness",
               [&] { reference = finish(world, report); });
    reference_discoveries =
        world.scenario->central_manager().stats().discovery_queries;
    report.attempted += reference.sessions;
    report.failed += reference.failed_sessions;
  }

  // 2. The same world on one pool thread.
  {
    Timed single;
    MetroWorld world = timed_round(args.seed, kShards, 1, single);
    costs.add("run_until 1 thread", "harness", single.run_s());
    report.set("harness.pool_speedup", single.run_s() / base.run_s());
  }

  // 3. Traced, with checkpoints.
  {
    const Stopwatch setup;
    MetroWorld world = build_world(args.seed, kShards, threads, true);
    costs.add("build world (traced)", "harness", setup.seconds());
    harness::ShardedScenario& s = *world.scenario;
    ExecutorSampler executors;
    const Stopwatch run;
    for (SimTime t = kCheckpoint; t <= kHorizon; t += kCheckpoint) {
      s.run_until(t);
      executors.sample(s);
    }
    const double traced_run_s = run.seconds();
    costs.add("run_until (traced)", "harness", traced_run_s);
    report.set("obs.trace_overhead", traced_run_s / base.run_s());
    executors.report_to(report);

    std::vector<obs::TraceEvent> trace;
    costs.time("canonical_trace", "obs", [&] { trace = s.canonical_trace(); });
    report.set("obs.trace_events", static_cast<double>(trace.size()));
    costs.time("trace frame witness", "perfbench",
               [&] { check_trace_frames(s, trace, report); });
    trace.clear();
    trace.shrink_to_fit();

    const SimOutcome traced = finish(world, report);
    report.check(traced.totals.frames_ok == reference.totals.frames_ok &&
                     traced.p50_ms == reference.p50_ms &&
                     traced.p99_ms == reference.p99_ms,
                 "tracing changed the simulated outcome");
    const obs::MetricsSnapshot metrics = s.metrics_snapshot();
    report_client_layer(traced, metrics, report);
    report_node_layer(s, report);
    report_manager_layer(s.central_manager().stats(), metrics, report);
    time_discover(s, s.central_manager(), costs, report);
  }

  // 4. Conservative-lookahead witness: one windowless domain must produce
  // exactly the sharded run's observables.
  {
    Timed single_domain;
    MetroWorld world = timed_round(args.seed, 1, 1, single_domain);
    costs.add("run_until 1 domain (witness)", "harness",
              single_domain.run_s());
    const SimOutcome witness = finish(world, report);
    report.check(witness.totals.frames_ok == reference.totals.frames_ok &&
                     witness.p50_ms == reference.p50_ms &&
                     witness.p99_ms == reference.p99_ms &&
                     world.scenario->central_manager()
                             .stats()
                             .discovery_queries == reference_discoveries,
                 "one windowless domain disagrees with the sharded run "
                 "(conservative lookahead broken)");
  }
  costs.print(stdout);
}

}  // namespace

void run_metro_fleet(const Args& args, Report& report) {
  if (args.trace) {
    run_traced(args, report);
  } else {
    run_end_to_end(args, report);
  }
}

}  // namespace perfbench
