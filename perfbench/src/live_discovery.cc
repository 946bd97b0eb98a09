// live_discovery: one rpc::LiveManager with a file-backed journal (fsync
// off), driven over loopback by the benchmark's own single EventLoop — two
// threads in all. N nodes register in one geohash cell, then heartbeat
// open loop (every heartbeat is a journaled write) while kDiscover reads
// run beside them: first open loop at a fixed rate well below saturation,
// each call timed from when it was due, then closed loop with a fixed
// number of calls in flight. Reads and writes hit the same registry.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "alloc_hook.h"
#include "arith.h"
#include "common/rng.h"
#include "geo/geohash.h"
#include "journal/image.h"
#include "journal/record.h"
#include "rpc/connection.h"
#include "rpc/event_loop.h"
#include "rpc/live_runtime.h"
#include "rpc/messages.h"
#include "rpc/rpc_client.h"
#include "rpc/serialize.h"
#include "sim_common.h"
#include "workloads.h"

namespace perfbench {

using namespace eden;

namespace {

constexpr std::uint32_t kNodes = 256;
constexpr std::uint32_t kFirstNodeId = 1000;
constexpr int kTopN = 3;
constexpr double kHeartbeatHz = 2.0;       // per node: 512 writes/s
// Discovers/s, about a quarter of the closed-loop rate: busy enough that the
// manager thread rarely idles between calls, well below saturation.
constexpr double kOpenLoopRate = 8000.0;
constexpr double kOpenLoopSec = 1.0;  // 8000 timed calls per round
constexpr std::size_t kInFlightPerConnection = 8;
constexpr std::uint64_t kClosedLoopCalls = 40000;
constexpr SimDuration kCallTimeout = msec(500.0);
constexpr SimDuration kSetupTimeout = sec(5.0);
constexpr geo::GeoPoint kCellCenter{44.9778, -93.2650};

// Where the journal file goes: PERFBENCH_TMPDIR (run.py points it into the
// build directory), else the working directory.
std::string journal_path() {
  const char* dir = std::getenv("PERFBENCH_TMPDIR");
  std::string path = (dir != nullptr && *dir != '\0') ? dir : ".";
  path += "/live_discovery." + std::to_string(::getpid()) + ".journal";
  return path;
}

struct Inputs {
  std::string cell;
  std::vector<std::vector<std::uint8_t>> node_status;  // encoded, per node
  std::vector<std::vector<std::uint8_t>> requests;     // encoded discovers
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.cell = geo::geohash_encode(kCellCenter, 6);
  Rng rng = Rng(seed).fork("live-discovery");
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    net::NodeStatus st;
    st.node = NodeId{kFirstNodeId + i};
    st.geohash = in.cell;
    st.cores = static_cast<int>(rng.uniform_int(2, 8));
    st.base_frame_ms = rng.uniform(20.0, 45.0);
    st.utilization = rng.uniform(0.0, 0.9);
    st.attached_users = static_cast<int>(rng.uniform_int(0, 12));
    st.network_tag = (i % 3 == 0) ? "isp-a" : "isp-b";
    st.endpoint = "127.0.0.1:" + std::to_string(20000 + i);
    rpc::Writer w;
    encode(w, st);
    in.node_status.push_back(w.take());
  }
  for (std::uint32_t i = 0; i < 64; ++i) {
    net::DiscoveryRequest r;
    r.client = ClientId{i + 1};
    r.geohash = in.cell;
    r.network_tag = (i % 2 == 0) ? "isp-a" : "isp-b";
    r.top_n = kTopN;
    rpc::Writer w;
    encode(w, r);
    in.requests.push_back(w.take());
  }
  return in;
}

// Per-round measurements.
struct RoundResult {
  double setup_s{0};
  double open_s{0};
  double closed_s{0};
  std::vector<double> open_latency_ms;    // from the due time
  std::vector<double> closed_latency_ms;  // from the send
  LatenessLog lateness;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::uint64_t heartbeats{0};
  std::uint64_t closed_allocs{0};
  manager::ManagerStats manager;
  journal::JournalStats journal;
  rpc::PoolStats pool;
  double direct_discover_s{0};  // traced rounds only
  double discover_ns{0};
  double candidates_per_query{0};
  double replay_s{0};
  double replay_ns_per_record{0};
};

class Round {
 public:
  Round(const Inputs& inputs, std::size_t connections, Report& report)
      : inputs_(inputs), connections_(connections), report_(report) {}

  RoundResult run(bool traced) {
    RoundResult result;
    const std::string path = journal_path();
    std::remove(path.c_str());
    {
      rpc::LiveManager manager;
      const Stopwatch setup;
      report_.check(manager.attach_journal(path, /*fsync=*/false),
                    "attach_journal failed on " + path);
      report_.check(manager.start(0), "LiveManager did not start");
      rpc::EventLoop loop;
      rpc::ConnectionPool pool(loop);
      std::deque<rpc::RpcClient> clients;
      for (std::size_t c = 0; c < connections_; ++c) {
        clients.emplace_back(loop, pool, manager.endpoint());
      }
      clients_ = &clients;
      loop_ = &loop;
      for (std::uint32_t i = 0; i < kNodes; ++i) {
        const auto& payload = inputs_.node_status[i];
        clients[i % connections_].send_one_way(rpc::MessageType::kRegisterNode,
                                               payload);
      }
      bool registered = false;
      poll_until([&] {
        registered = rpc::run_on_loop(manager.loop(), [&manager] {
                       return manager.manager_unsafe().live_nodes();
                     }) == kNodes;
        return registered || setup.seconds() > to_sec(kSetupTimeout);
      });
      result.setup_s = setup.seconds();
      report_.check(registered, "the registry never held every registered node");

      heartbeat_next_ = 0;
      heartbeat_start_ = loop.now();
      const Stopwatch open;
      open_loop(result);
      result.open_s = open.seconds();
      const std::uint64_t allocs_before = allocation_count();
      const std::uint64_t check_before = check_allocs_;
      const Stopwatch closed;
      closed_loop(result);
      result.closed_s = closed.seconds();
      result.closed_allocs = allocation_count() - allocs_before -
                             (check_allocs_ - check_before);
      drain();

      const std::size_t live = rpc::run_on_loop(manager.loop(), [&manager] {
        return manager.manager_unsafe().live_nodes();
      });
      report_.check(live == kNodes, "registry holds " + std::to_string(live) +
                                        " live nodes, expected " +
                                        std::to_string(kNodes));
      result.manager = rpc::run_on_loop(manager.loop(), [&manager] {
        return manager.manager_unsafe().stats();
      });
      result.journal = rpc::run_on_loop(
          manager.loop(), [&manager] { return manager.journal()->stats(); });
      result.pool = manager.pool_stats();
      if (traced) time_direct_discover(manager, result);
      result.heartbeats = heartbeat_next_;
      clients.clear();
      clients_ = nullptr;
      manager.stop();
      report_.check(manager.leaked_pool_chunks() == 0,
                    "the manager leaked buffer-pool chunks");
    }
    check_journal(path, result);
    std::remove(path.c_str());
    result.attempted = attempted_;
    result.failed = failed_;
    return result;
  }

 private:
  // Send every heartbeat whose due time has passed (open loop: node i of
  // the rotation is due every 1 / (N * rate) seconds).
  void pump_heartbeats() {
    const double period_us = 1e6 / (kHeartbeatHz * kNodes);
    const SimTime now = loop_->now();
    while (heartbeat_start_ +
               static_cast<SimTime>(static_cast<double>(heartbeat_next_) *
                                    period_us) <=
           now) {
      const std::uint32_t node =
          static_cast<std::uint32_t>(heartbeat_next_ % kNodes);
      (*clients_)[node % connections_].send_one_way(
          rpc::MessageType::kHeartbeat, inputs_.node_status[node]);
      ++heartbeat_next_;
    }
  }

  // Validates one discover response; false counts the call as failed.
  bool valid_response(const rpc::RpcResult& r) {
    if (!r.ok) return false;
    // The decode below allocates (the candidate vector); count it apart so
    // rpc.allocs_per_op measures the data plane, not this check.
    const std::uint64_t before = allocation_count();
    rpc::Reader reader(r.data, r.size);
    const net::DiscoveryResponse resp = rpc::decode_discovery_response(reader);
    check_allocs_ += allocation_count() - before;
    if (!reader.ok()) return false;
    const std::size_t want = std::min<std::size_t>(kTopN, kNodes);
    if (resp.candidates.size() != want) {
      bad_shape_ = true;
      return true;  // decoded fine; the shape check fails the run instead
    }
    std::uint32_t ids[kTopN];
    for (std::size_t i = 0; i < want; ++i) {
      ids[i] = resp.candidates[i].node.value;
      if (ids[i] < kFirstNodeId || ids[i] >= kFirstNodeId + kNodes) {
        bad_shape_ = true;
      }
    }
    std::sort(ids, ids + want);
    if (std::adjacent_find(ids, ids + want) != ids + want) bad_shape_ = true;
    return true;
  }

  void call(std::uint64_t index, rpc::RpcClient::ResponseCallback done) {
    const auto& payload = inputs_.requests[index % inputs_.requests.size()];
    (*clients_)[index % connections_].call(rpc::MessageType::kDiscover,
                                           payload.data(), payload.size(),
                                           kCallTimeout, std::move(done));
    ++attempted_;
    ++outstanding_;
  }

  // Busy-polls the benchmark loop: a zero-delay timer re-arms itself, so
  // epoll never sleeps and the generators run within microseconds of their
  // due times. `step` returns true once the phase is complete.
  template <typename Step>
  void poll_until(Step step) {
    bool done = false;
    std::function<void()> tick;
    tick = [&] {
      done = step();
      if (done) {
        loop_->stop();
      } else {
        loop_->schedule_after(0, [&tick] { tick(); });
      }
    };
    loop_->schedule_after(0, [&tick] { tick(); });
    loop_->run();
  }

  void open_loop(RoundResult& result) {
    const auto calls = static_cast<std::uint64_t>(kOpenLoopRate * kOpenLoopSec);
    const OpenLoopSchedule schedule(loop_->now(), 1e6 / kOpenLoopRate, calls);
    result.open_latency_ms.reserve(calls);
    std::uint64_t next = 0;
    poll_until([&] {
      pump_heartbeats();
      const SimTime now = loop_->now();
      for (const std::uint64_t due_by = schedule.due_by(now); next < due_by;
           ++next) {
        const SimTime due = schedule.due(next);
        result.lateness.record(due, now);
        call(next, [this, due, &result](rpc::RpcResult r) {
          --outstanding_;
          if (!valid_response(r)) {
            ++failed_;
            return;
          }
          result.open_latency_ms.push_back(
              static_cast<double>(loop_->now() - due) / 1000.0);
        });
      }
      return next == calls && outstanding_ == 0;
    });
  }

  void closed_loop(RoundResult& result) {
    issued_ = 0;
    closed_latency_ms_ = &result.closed_latency_ms;
    result.closed_latency_ms.reserve(kClosedLoopCalls);
    const std::size_t in_flight = kInFlightPerConnection * connections_;
    for (std::size_t i = 0; i < in_flight; ++i) fire_closed();
    poll_until([this] {
      pump_heartbeats();
      return outstanding_ == 0;
    });
  }

  // One closed-loop call, timed from its send; its completion fires the
  // next until the round's fixed count has been issued.
  void fire_closed() {
    if (issued_ >= kClosedLoopCalls) return;
    const SimTime sent = loop_->now();
    call(issued_++, [this, sent](rpc::RpcResult r) {
      --outstanding_;
      if (valid_response(r)) {
        closed_latency_ms_->push_back(
            static_cast<double>(loop_->now() - sent) / 1000.0);
      } else {
        ++failed_;
      }
      fire_closed();
    });
  }

  // Let one-way heartbeats still queued on the sockets reach the manager.
  void drain() {
    const Stopwatch wait;
    while (wait.seconds() < 0.05) loop_->run_for(msec(1.0));
    report_.check(!bad_shape_,
                  "a discover response did not hold min(top_n, N) distinct "
                  "registered ids");
  }

  // Host time of CentralManager::handle_discover on the live registry,
  // measured on the manager's own loop thread.
  void time_direct_discover(rpc::LiveManager& manager, RoundResult& result) {
    std::vector<net::DiscoveryRequest> requests;
    for (const auto& bytes : inputs_.requests) {
      rpc::Reader r(bytes);
      requests.push_back(rpc::decode_discovery_request(r));
    }
    constexpr int kRepeats = 200;
    const auto [seconds, candidates] = rpc::run_on_loop(
        manager.loop(), [&manager, &requests] {
          net::DiscoveryResponse out;
          std::uint64_t seen = 0;
          const Stopwatch watch;
          for (int k = 0; k < kRepeats; ++k) {
            for (const auto& req : requests) {
              manager.manager_unsafe().handle_discover(req, out);
              seen += out.candidates.size();
            }
          }
          return std::make_pair(watch.seconds(), seen);
        });
    const double n = static_cast<double>(kRepeats * requests.size());
    result.direct_discover_s = seconds;
    result.discover_ns = seconds * 1e9 / n;
    result.candidates_per_query = static_cast<double>(candidates) / n;
  }

  // The journal file must replay to exactly the registered node set.
  void check_journal(const std::string& path, RoundResult& result) {
    std::ifstream file(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    const std::string bytes = buffer.str();
    const Stopwatch replay;
    const journal::ScanResult scanned = journal::scan(bytes);
    journal::RegistryImage image;
    for (const journal::JournalRecord& r : scanned.records) image.apply(r);
    result.replay_s = replay.seconds();
    result.replay_ns_per_record =
        result.replay_s * 1e9 /
        static_cast<double>(std::max<std::size_t>(1, scanned.records.size()));
    bool same = image.size() == kNodes && !scanned.torn;
    for (const auto& [id, entry] : image.entries()) {
      (void)entry;
      same = same && id >= kFirstNodeId && id < kFirstNodeId + kNodes;
    }
    report_.check(same, "the journal file does not replay to the " +
                            std::to_string(kNodes) + " registered nodes");
  }

  const Inputs& inputs_;
  std::size_t connections_;
  Report& report_;
  rpc::EventLoop* loop_{nullptr};
  std::deque<rpc::RpcClient>* clients_{nullptr};
  std::uint64_t heartbeat_next_{0};
  SimTime heartbeat_start_{0};
  std::uint64_t issued_{0};
  std::uint64_t outstanding_{0};
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
  std::vector<double>* closed_latency_ms_{nullptr};
  std::uint64_t check_allocs_{0};
  bool bad_shape_{false};
};

}  // namespace

void run_live_discovery(const Args& args, Report& report) {
  const Inputs inputs = make_inputs(args.seed);
  const std::size_t connections = std::min<std::size_t>(4, usable_cores());
  std::vector<RoundResult> rounds;
  const Stopwatch total;
  do {
    Round round(inputs, connections, report);
    rounds.push_back(round.run(args.trace));
    report.attempted += rounds.back().attempted;
    report.failed += rounds.back().failed;
  } while (!args.trace && total.seconds() < args.seconds);

  std::vector<double> setups, closed, open_latency, closed_latency;
  for (const RoundResult& r : rounds) {
    setups.push_back(r.setup_s);
    closed.push_back(r.closed_s);
    open_latency.insert(open_latency.end(), r.open_latency_ms.begin(),
                        r.open_latency_ms.end());
    closed_latency.insert(closed_latency.end(), r.closed_latency_ms.begin(),
                          r.closed_latency_ms.end());
  }
  std::sort(open_latency.begin(), open_latency.end());
  report.check(tail_supported(open_latency.size(), 99.0),
               "discover p99 has fewer than ten samples beyond it");
  std::fprintf(stderr,
               "live_discovery: %zu rounds, %zu connections, %zu timed "
               "open-loop calls\n",
               rounds.size(), connections, open_latency.size());
  report.set("setup_s", median(setups));
  report.set("run_s", median(closed));
  report.set("peak_rss_mb", peak_rss_mb());
  report.set("latency_p50_ms", median(std::move(closed_latency)));
  report.set("rpc.discover_p50_us",
             1000.0 * percentile_sorted(open_latency, 50.0));
  report.set("rpc.discover_p99_us",
             1000.0 * percentile_sorted(open_latency, 99.0));
  if (!args.trace) return;

  const RoundResult& r = rounds.back();
  CostTable costs;
  costs.add("start + attach_journal + register", "rpc", r.setup_s);
  costs.add("open-loop discover phase", "rpc", r.open_s);
  costs.add("closed-loop discover phase", "rpc", r.closed_s);
  costs.add("handle_discover (direct)", "manager", r.direct_discover_s);
  costs.add("journal scan + replay", "journal", r.replay_s);
  costs.print(stdout);
  report.set("rpc.allocs_per_op",
             static_cast<double>(r.closed_allocs) /
                 static_cast<double>(kClosedLoopCalls));
  report.set("rpc.connections", static_cast<double>(r.pool.open_connections));
  report.set("rpc.pool_chunks_peak", static_cast<double>(r.pool.chunk_capacity));
  report.set("rpc.gen_lag_p99_us", r.lateness.p99_us());
  report.set("rpc.heartbeats_sent", static_cast<double>(r.heartbeats));
  report.set("rpc.discover_qps",
             static_cast<double>(kClosedLoopCalls) / r.closed_s);
  // The live manager keeps no metrics registry, so manager.expirations
  // reads 0 here; the end-of-round check shows all N nodes stayed live.
  report_manager_layer(r.manager, obs::MetricsSnapshot{}, report);
  report.set("manager.discover_ns", r.discover_ns);
  report.set("manager.candidates_per_query", r.candidates_per_query);
  report.set("journal.records", static_cast<double>(r.journal.records));
  report.set("journal.batches", static_cast<double>(r.journal.batches));
  report.set("journal.bytes", static_cast<double>(r.journal.bytes));
  report.set("journal.records_per_batch",
             static_cast<double>(r.journal.records) /
                 static_cast<double>(
                     std::max<std::uint64_t>(1, r.journal.batches)));
  report.set("journal.replay_ns_per_record", r.replay_ns_per_record);
}

}  // namespace perfbench
