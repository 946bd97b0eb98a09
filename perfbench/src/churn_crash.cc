// churn_crash: the sequential harness::Scenario with the durable manager
// on — journal on the in-memory backend, warm standby — and load feedback.
// A few hundred volunteer nodes follow the §V-D2 churn model scaled up to
// 120 joins per 30 s period, beside 60 nodes that never churn; 1,000
// clients stream at a fixed 5 fps, 200 of them arriving as a flash crowd;
// the primary manager crashes once at a fixed point and the standby takes
// over. The last 12 simulated seconds are quiet (no churn, no crash), so
// the end of the run observes a settled system.
#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "alloc_hook.h"
#include "check/oracle.h"
#include "check/spec.h"
#include "churn/churn.h"
#include "common/rng.h"
#include "harness/experiments.h"
#include "harness/scenario.h"
#include "journal/backend.h"
#include "journal/image.h"
#include "journal/manager_journal.h"
#include "journal/record.h"
#include "sim_common.h"
#include "workloads.h"

namespace perfbench {

using namespace eden;

namespace {

constexpr geo::GeoPoint kCenter{44.9778, -93.2650};  // Minneapolis
constexpr double kAreaKm = 30.0;
constexpr std::size_t kAnchors = 60;
constexpr std::size_t kBaseClients = 800;
constexpr std::size_t kFlashClients = 200;
constexpr double kFps = 5.0;
constexpr double kHorizonSec = 55.0;
constexpr double kCooldownSec = 12.0;
constexpr SimTime kHorizon = sec(kHorizonSec);
constexpr SimTime kQuietStart = sec(kHorizonSec - kCooldownSec);
constexpr SimDuration kBaseSpread = sec(3.0);
constexpr SimTime kFlashAt = sec(18.0);
constexpr SimDuration kFlashSpread = sec(1.0);
constexpr double kCrashAtSec = 25.0;
constexpr journal::CrashPoint kCrashPoint = journal::CrashPoint::kAfterAppend;
constexpr double kTakeoverDelaySec = 0.5;
constexpr SimDuration kHeartbeatTtl = sec(3.0);
constexpr double kJitterSigma = 0.05;
// run_until split (host time of the client ramp vs the rest).
constexpr SimTime kRampEnd = sec(5.0);
// A session must complete a frame in the final quiet window.
constexpr SimDuration kQuietWindow = sec(4.0);

churn::ChurnConfig churn_config() {
  churn::ChurnConfig c;
  c.horizon = kQuietStart;  // no join or leave inside the quiet tail
  c.join_period = sec(30.0);
  c.joins_per_period = 120.0;
  c.lifetime_mean_sec = 20.0;
  c.lifetime_shape = 1.5;
  c.initial_nodes = 200;
  return c;
}

struct ChurnWorld {
  // Declared before the scenario: the fabric looks faults up until the
  // scenario is gone.
  net::FaultInjector injector;
  std::unique_ptr<harness::Scenario> scenario;
  churn::ChurnSchedule schedule;
  std::vector<SimTime> starts;  // per client
  std::vector<bool> alive_at_horizon;  // per node index, from the schedule
  check::ScenarioSpec spec;            // the same world, for the oracles
};

std::unique_ptr<ChurnWorld> build_world(std::uint64_t seed, bool trace) {
  auto world = std::make_unique<ChurnWorld>();
  harness::ScenarioConfig config;
  config.seed = seed;
  config.heartbeat_ttl = kHeartbeatTtl;
  config.trace = trace;
  config.load_feedback = true;
  config.standby.enabled = true;
  world->scenario = std::make_unique<harness::Scenario>(
      config, harness::NetKind::kGeo, 20.0, 100.0, kJitterSigma);
  harness::Scenario& s = *world->scenario;
  s.fabric().set_fault_injector(&world->injector);
  s.set_crash_fault_injector(&world->injector);

  Rng churn_rng = Rng(seed).fork("churn-crash-schedule");
  world->schedule = churn::generate_churn(churn_config(), churn_rng);
  Rng layout = Rng(seed).fork("churn-crash-layout");

  check::ScenarioSpec& spec = world->spec;
  spec.seed = seed;
  spec.jitter_sigma = kJitterSigma;
  spec.horizon_sec = kHorizonSec;
  spec.cooldown_sec = kCooldownSec;
  spec.heartbeat_ttl_sec = to_sec(kHeartbeatTtl);
  spec.load_feedback = true;
  spec.standby = true;
  spec.crash = {true, static_cast<int>(kCrashPoint), kCrashAtSec,
                kTakeoverDelaySec};

  const std::size_t nodes = kAnchors + world->schedule.total_nodes;
  world->alive_at_horizon.assign(nodes, false);
  for (std::size_t i = 0; i < nodes; ++i) {
    harness::NodeSpec ns;
    ns.name = "n" + std::to_string(i);
    ns.position = harness::random_point_near(kCenter, kAreaKm, layout);
    ns.cores = static_cast<int>(layout.uniform_int(2, 8));
    ns.base_frame_ms = layout.uniform(20.0, 45.0);
    ns.network_tag = (i % 3 == 0) ? "isp-a" : "isp-b";
    s.add_node(ns);
    check::FuzzNode fn;
    fn.lat = ns.position.lat;
    fn.lon = ns.position.lon;
    fn.cores = ns.cores;
    fn.base_frame_ms = ns.base_frame_ms;
    spec.nodes.push_back(fn);
  }
  for (std::size_t i = 0; i < kAnchors; ++i) {
    s.start_node(i);
    world->alive_at_horizon[i] = true;
  }
  for (const churn::ChurnEvent& e : world->schedule.events) {
    const std::size_t index = kAnchors + e.node_index;
    check::FuzzNode& fn = spec.nodes[index];
    if (e.kind == churn::ChurnEventKind::kJoin) {
      s.schedule_node_start(index, e.at);
      fn.start_sec = to_sec(e.at);
      world->alive_at_horizon[index] = true;
    } else {
      s.schedule_node_stop(index, e.at, /*graceful=*/false);
      fn.stop_sec = to_sec(e.at);
      world->alive_at_horizon[index] = false;
    }
  }

  const std::size_t clients = kBaseClients + kFlashClients;
  world->starts.resize(clients);
  for (std::size_t i = 0; i < clients; ++i) {
    harness::ClientSpot spot;
    spot.name = "u" + std::to_string(i);
    spot.position = harness::random_point_near(kCenter, kAreaKm, layout);
    spot.network_tag = (i % 2 == 0) ? "isp-a" : "isp-b";
    client::ClientConfig cc;
    cc.top_n = 3;
    cc.app.max_fps = kFps;
    cc.app.min_fps = kFps;
    cc.app.adaptive_rate = false;
    client::EdgeClient& c = s.add_edge_client(spot, cc);
    const SimTime at =
        i < kBaseClients
            ? kBaseSpread * static_cast<SimDuration>(i) /
                  static_cast<SimDuration>(kBaseClients)
            : kFlashAt + kFlashSpread *
                             static_cast<SimDuration>(i - kBaseClients) /
                             static_cast<SimDuration>(kFlashClients);
    world->starts[i] = at;
    s.simulator().schedule_at(at, [&c] { c.start(); });
    check::FuzzClient fc;
    fc.lat = spot.position.lat;
    fc.lon = spot.position.lon;
    fc.top_n = cc.top_n;
    fc.probing_period_sec = to_sec(cc.probing_period);
    fc.max_fps = kFps;
    fc.start_sec = to_sec(at);
    spec.clients.push_back(fc);
  }
  s.schedule_manager_crash(sec(kCrashAtSec), kCrashPoint,
                           sec(kTakeoverDelaySec));
  return world;
}

// Checks every round makes, plus the session tally.
SimOutcome finish(ChurnWorld& world, Report& report) {
  harness::Scenario& s = *world.scenario;
  report.check(s.manager_crashed() && s.takeover_done(),
               "the manager crash and standby takeover did not both happen");
  report.check(!s.standby_dump().empty() &&
                   s.standby_dump() == s.expected_dump(),
               "standby replay dump differs from a fresh replay of the "
               "journal");
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < s.node_count(); ++i) {
    if (s.node(i).running() != world.alive_at_horizon[i]) ++wrong;
  }
  report.check(wrong == 0, std::to_string(wrong) +
                               " nodes' liveness at the horizon differs from "
                               "the churn schedule");
  const harness::FleetStats fleet = s.fleet_stats();
  SimOutcome out = check_fleet(s, world.starts, kFps,
                               s.config().timeouts.frame,
                               kHorizon - kQuietWindow, kHorizon, report);
  out.p50_ms = fleet.latency_p50_ms;
  out.p99_ms = fleet.latency_p99_ms;
  out.latency_count = fleet.latency_count;
  report.check(fleet.totals.frames_ok == out.totals.frames_ok,
               "fleet_stats disagrees with the per-client frame counts");
  report.check(tail_supported(fleet.latency_count, 99.0),
               "frame p99 has fewer than ten samples beyond it");
  report.check(tail_supported(out.outage_gaps_ms.size(), 99.0),
               "outage p99 has fewer than ten gaps beyond it");
  return out;
}

std::unique_ptr<ChurnWorld> timed_round(std::uint64_t seed, Timed& t) {
  const Stopwatch setup;
  auto world = build_world(seed, /*trace=*/false);
  t.setup_s = setup.seconds();
  const Stopwatch ramp;
  world->scenario->run_until(kRampEnd);
  t.ramp_s = ramp.seconds();
  const Stopwatch steady;
  world->scenario->run_until(kHorizon);
  t.steady_s = steady.seconds();
  return world;
}

// Rounds run on up to two threads at once, each building and running its
// own world of the same seed. The host's speed drifts per vCPU as well as
// machine-wide; pooling the rounds of two vCPUs into one median averages
// out the per-vCPU part. Each world stays sequential, and its run_until is
// timed on the thread that runs it.
void run_end_to_end(const Args& args, Report& report) {
  const unsigned workers = std::min(2u, usable_cores());
  std::mutex mu;  // guards report, the round lists and first
  std::vector<double> setups, runs;
  SimOutcome first;
  const Stopwatch total;
  const auto rounds = [&] {
    do {
      Timed t;
      auto world = timed_round(args.seed, t);
      const std::lock_guard<std::mutex> lock(mu);
      const SimOutcome out = finish(*world, report);
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
  };
  std::vector<std::thread> threads;
  for (unsigned i = 1; i < workers; ++i) threads.emplace_back(rounds);
  rounds();
  for (std::thread& t : threads) t.join();
  std::fprintf(stderr,
               "churn_crash: %zu rounds on %u threads, frames_ok %llu, "
               "failed sessions %llu (%llu unattached), outage gaps %zu\n",
               runs.size(), workers,
               static_cast<unsigned long long>(first.totals.frames_ok),
               static_cast<unsigned long long>(first.failed_sessions),
               static_cast<unsigned long long>(first.unattached),
               first.outage_gaps_ms.size());
  report.set("setup_s", median(setups));
  report.set("run_s", median(runs));
  report.set("peak_rss_mb", peak_rss_mb());
  report.set("latency_p50_ms", first.p50_ms);
}

// Forwards every registry mutation to the scenario's own journal and to a
// benchmark-owned copy, so the traced run can time a scan + replay of this
// run's mutation stream through the public journal API.
class TeeSink final : public manager::RegistryMutationSink {
 public:
  TeeSink(manager::RegistryMutationSink& a, manager::RegistryMutationSink& b)
      : a_(&a), b_(&b) {}
  void on_register(const net::NodeStatus& status, SimTime now,
                   bool rejoin) override {
    a_->on_register(status, now, rejoin);
    b_->on_register(status, now, rejoin);
  }
  void on_heartbeat(const net::NodeStatus& status, SimTime now) override {
    a_->on_heartbeat(status, now);
    b_->on_heartbeat(status, now);
  }
  void on_leave(NodeId node, SimTime now) override {
    a_->on_leave(node, now);
    b_->on_leave(node, now);
  }
  void on_expire(NodeId node, SimTime now) override {
    a_->on_expire(node, now);
    b_->on_expire(node, now);
  }
  void on_epoch(NodeId node, std::uint64_t epoch, bool overloaded,
                SimTime now) override {
    a_->on_epoch(node, epoch, overloaded, now);
    b_->on_epoch(node, epoch, overloaded, now);
  }
  void commit(SimTime now) override {
    a_->commit(now);
    b_->commit(now);
  }

 private:
  manager::RegistryMutationSink* a_;
  manager::RegistryMutationSink* b_;
};

bool registry_live(manager::CentralManager& m, NodeId id, SimTime now) {
  const manager::RegistryEntry* e = m.registry().find(id);
  return e != nullptr && now - e->last_heartbeat <= kHeartbeatTtl;
}

void run_traced(const Args& args, Report& report) {
  CostTable costs;

  // 1. Untraced round: engine cost and the reference outcome.
  Timed base;
  SimOutcome reference;
  {
    const std::uint64_t allocs_before = allocation_count();
    auto world = timed_round(args.seed, base);
    const std::uint64_t allocs = allocation_count() - allocs_before;
    costs.add("build world", "harness", base.setup_s);
    costs.add("run_until client ramp", "harness", base.ramp_s);
    costs.add("run_until churn + crash", "harness", base.steady_s);
    const auto events =
        static_cast<double>(world->scenario->simulator().events_processed());
    report.set("sim.events", events);
    report.set("sim.ns_per_event", base.run_s() * 1e9 / events);
    report.set("sim.allocs_per_event", static_cast<double>(allocs) / events);
    report.set("harness.ramp_s", base.ramp_s);
    report.set("harness.steady_s", base.steady_s);
    reference = finish(*world, report);
    report.attempted += reference.sessions;
    report.failed += reference.failed_sessions;
  }

  // 2. Traced round with checkpoints, oracles and the journal tee.
  const Stopwatch setup;
  auto world = build_world(args.seed, /*trace=*/true);
  harness::Scenario& s = *world->scenario;
  journal::MemoryBackend copy_backend;
  journal::ManagerJournal copy_journal(copy_backend, nullptr,
                                       {64, /*group_commit_interval=*/0});
  TeeSink tee(*s.manager_journal(), copy_journal);
  s.central_manager().set_mutation_sink(&tee);
  costs.add("build world (traced)", "harness", setup.seconds());

  ExecutorSampler executors;
  std::size_t slots_peak = 0;
  SimTime takeover_at = -1;
  SimTime readmitted_at = -1;
  const SimTime fine_from = sec(kCrashAtSec);
  const SimTime fine_until = sec(kCrashAtSec + 6.0);
  const Stopwatch run;
  for (SimTime t = 0; t < kHorizon;) {
    t = std::min(kHorizon,
                 t + (t >= fine_from && t < fine_until ? msec(50.0) : sec(1.0)));
    s.run_until(t);
    executors.sample(s);
    slots_peak = std::max(slots_peak, s.fabric().rpc_slots_in_use());
    if (s.takeover_done() && takeover_at < 0) takeover_at = t;
    if (takeover_at >= 0 && readmitted_at < 0) {
      bool all = true;
      for (std::size_t i = 0; i < s.node_count() && all; ++i) {
        if (s.node(i).running() && world->alive_at_horizon[i]) {
          all = registry_live(s.active_manager(), s.node_id(i), t);
        }
      }
      if (all) readmitted_at = t;
    }
  }
  const double traced_run_s = run.seconds();
  costs.add("run_until (traced, checkpoints)", "harness", traced_run_s);
  s.central_manager().set_mutation_sink(nullptr);
  report.set("obs.trace_overhead", traced_run_s / base.run_s());
  executors.report_to(report);
  report.set("net.rpc_slots_peak", static_cast<double>(slots_peak));

  const SimOutcome traced = finish(*world, report);
  report.check(traced.totals.frames_ok == reference.totals.frames_ok &&
                   traced.p50_ms == reference.p50_ms &&
                   traced.p99_ms == reference.p99_ms,
               "tracing changed the simulated outcome");

  // Oracles over the trace at the horizon (no teardown).
  const std::vector<obs::TraceEvent>& trace = s.trace_recorder()->events();
  report.set("obs.trace_events", static_cast<double>(trace.size()));
  check::EndState end;
  for (std::size_t i = 0; i < s.node_count(); ++i) {
    node::EdgeNode& n = s.node(i);
    end.nodes.push_back({n.id(), n.running(), n.attached_ids(),
                         n.executor().utilization(), n.executor().queued(),
                         n.executor().throttled(),
                         s.active_manager().overloaded(n.id())});
  }
  for (std::size_t i = 0; i < s.edge_client_count(); ++i) {
    client::EdgeClient& c = s.edge_client(i);
    end.clients.push_back({c.id(), c.current_node(), c.stats()});
  }
  s.active_manager().registry().for_each_live(
      "", kHorizon,
      [&end](const manager::RegistryEntry& entry,
             const std::optional<geo::GeoPoint>&) {
        end.registry_live.push_back(entry.status.node);
      });
  std::sort(end.registry_live.begin(), end.registry_live.end(),
            [](NodeId a, NodeId b) { return a.value < b.value; });
  for (const auto& c : end.clients) {
    for (const auto& n : end.nodes) {
      end.base_rtt.push_back(
          {c.id, n.id, to_ms(s.network_model().base_rtt(c.id, n.id))});
    }
  }
  std::vector<check::Violation> violations;
  costs.time("default_oracles", "check", [&] {
    const check::RunView view{world->spec, trace, end, s.config().timeouts,
                              kHorizon};
    for (const check::Oracle* oracle : check::default_oracles()) {
      oracle->check(view, violations);
    }
  });
  for (const check::Violation& v : violations) {
    report.check(false, "oracle " + v.oracle + ": " + v.message);
  }
  costs.time("trace frame witness", "perfbench",
             [&] { check_trace_frames(s, trace, report); });

  std::size_t crashes = 0, takeovers = 0;
  SimTime crash_at = -1, takeover_trace_at = -1;
  for (const obs::TraceEvent& e : trace) {
    if (e.kind == obs::EventKind::kManagerCrash) {
      ++crashes;
      crash_at = e.at;
    } else if (e.kind == obs::EventKind::kManagerTakeover) {
      ++takeovers;
      takeover_trace_at = e.at;
    }
  }
  report.check(crashes == 1 && takeovers == 1,
               "expected exactly one manager crash and one takeover");
  report.set("journal.takeover_ms", to_ms(takeover_trace_at - crash_at));
  report.check(readmitted_at >= 0,
               "surviving nodes never all became registry-live again");
  report.set("journal.readmission_ms",
             readmitted_at >= 0 ? to_ms(readmitted_at - takeover_trace_at)
                                : 0.0);

  // Journal: the primary's group-commit counters, then a timed scan +
  // replay of the copied mutation stream.
  const journal::JournalStats& js = s.manager_journal()->stats();
  report.set("journal.records", static_cast<double>(js.records));
  report.set("journal.batches", static_cast<double>(js.batches));
  report.set("journal.bytes", static_cast<double>(js.bytes));
  report.set("journal.records_per_batch",
             static_cast<double>(js.records) /
                 static_cast<double>(std::max<std::uint64_t>(1, js.batches)));
  std::string bytes;
  copy_backend.read_all(bytes);
  std::size_t replayed = 0;
  const Stopwatch replay;
  {
    const journal::ScanResult scanned = journal::scan(bytes);
    journal::RegistryImage image;
    for (const journal::JournalRecord& r : scanned.records) image.apply(r);
    replayed = scanned.records.size();
    report.check(!scanned.torn && scanned.valid_bytes == bytes.size(),
                 "the copied journal does not scan clean");
  }
  const double replay_s = replay.seconds();
  costs.add("journal scan + replay", "journal", replay_s);
  report.set("journal.replay_ns_per_record",
             replay_s * 1e9 / static_cast<double>(std::max<std::size_t>(
                                  1, replayed)));

  // Client, node and manager layers (both managers' counters).
  const obs::MetricsSnapshot metrics = s.metrics_snapshot();
  report_client_layer(traced, metrics, report);
  report_node_layer(s, report);
  manager::ManagerStats ms = s.central_manager().stats();
  if (&s.active_manager() != &s.central_manager()) {
    const manager::ManagerStats& st = s.active_manager().stats();
    ms.discovery_queries += st.discovery_queries;
    ms.registrations += st.registrations;
    ms.heartbeats += st.heartbeats;
    ms.rejoins += st.rejoins;
    ms.overload_enters += st.overload_enters;
    ms.cell_sheds += st.cell_sheds;
  }
  report_manager_layer(ms, metrics, report);
  time_discover(s, s.active_manager(), costs, report);
  costs.print(stdout);
}

}  // namespace

void run_churn_crash(const Args& args, Report& report) {
  if (args.trace) {
    run_traced(args, report);
  } else {
    run_end_to_end(args, report);
  }
}

}  // namespace perfbench
