// CentralManager: serves edge-discovery queries (step one of the 2-step
// selection) from real-time node status collected via registration and
// heartbeats. Transport-agnostic like EdgeNode — the harness and the TCP
// runtime wrap the handlers behind net::ManagerApi / net::ManagerLink.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "manager/global_selection.h"
#include "manager/registry.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/clock.h"

namespace eden::manager {

struct ManagerStats {
  std::uint64_t discovery_queries{0};
  std::uint64_t registrations{0};
  std::uint64_t heartbeats{0};
  std::uint64_t deregistrations{0};
  std::uint64_t rejoins{0};          // heartbeats that re-registered a node
  std::uint64_t overload_enters{0};  // overload-set entries
  std::uint64_t overload_exits{0};   // overload-set exits
  std::uint64_t cell_sheds{0};       // discoveries answered in shed mode
};

// Overload-set hysteresis over the heartbeat telemetry (queue depth, burst
// credits, p95 processing time). A node *enters* the set when any enter
// threshold trips, *exits* only when every exit threshold clears, and no
// transition happens within min_dwell of the previous one — so telemetry
// oscillating across one boundary cannot flap the set every heartbeat.
struct OverloadPolicy {
  bool enabled{false};
  // Queue depth per core: enter above, exit at or below.
  double enter_queue_per_core{3.0};
  double exit_queue_per_core{1.0};
  // p95 processing time as a multiple of the node's idle base_frame_ms.
  double enter_p95_factor{6.0};
  double exit_p95_factor{2.5};
  // A burstable node about to throttle (credits below this, in
  // core-seconds) counts as overloaded once frames are actually waiting —
  // and, symmetrically, starved credits only hold a node in the set while
  // its queue is nonempty.
  double min_burst_credits{1.0};
  // Minimum time in either state before the next transition.
  SimDuration min_dwell{sec(2.0)};
};

// Durability hook (src/journal implements this as a write-ahead journal):
// the manager reports every registry mutation to the sink from inside the
// handler that performs it, then calls commit() once before the handler's
// effects become visible to the caller — so anything a peer could have
// observed (an ack, a discovery answer) is covered by a commit. A null
// sink costs one branch per mutation.
class RegistryMutationSink {
 public:
  virtual ~RegistryMutationSink() = default;
  // `rejoin` marks the heartbeat-path re-registration of an expired or
  // unknown node (vs an explicit register_node).
  virtual void on_register(const net::NodeStatus& status, SimTime now,
                           bool rejoin) = 0;
  virtual void on_heartbeat(const net::NodeStatus& status, SimTime now) = 0;
  virtual void on_leave(NodeId node, SimTime now) = 0;
  virtual void on_expire(NodeId node, SimTime now) = 0;
  virtual void on_epoch(NodeId node, std::uint64_t epoch, bool overloaded,
                        SimTime now) = 0;
  virtual void commit(SimTime now) = 0;
};

class CentralManager {
 public:
  CentralManager(sim::Clock& clock, GlobalPolicy policy = {},
                 SimDuration heartbeat_ttl = sec(3.0))
      : clock_(&clock), registry_(heartbeat_ttl), selector_(policy) {}

  // ---- handlers ----
  void handle_register(const net::NodeStatus& status);
  // Returns the feedback ack (rejoin detection + overload phase). One-way
  // transports simply discard it; the feedback rpc ships it to the node.
  net::HeartbeatAck handle_heartbeat(const net::NodeStatus& status);
  void handle_deregister(NodeId node);
  [[nodiscard]] net::DiscoveryResponse handle_discover(
      const net::DiscoveryRequest& request);
  // Out-parameter variant: fills `out` (clearing its candidate list) so a
  // transport-owned response's capacity is reused across queries. The
  // by-value overload delegates here.
  void handle_discover(const net::DiscoveryRequest& request,
                       net::DiscoveryResponse& out);

  // Swap the global selection policy (e.g. for ablations); takes effect
  // on the next discovery query.
  void set_policy(GlobalPolicy policy) { selector_ = GlobalSelector(policy); }

  // Enable/replace the overload-set policy (load-feedback elasticity).
  void set_overload_policy(OverloadPolicy policy) {
    overload_policy_ = policy;
  }
  [[nodiscard]] const OverloadPolicy& overload_policy() const {
    return overload_policy_;
  }
  // Whether `node` is currently held in the overload set.
  [[nodiscard]] bool overloaded(NodeId node) const {
    const auto it = overload_.find(node);
    return it != overload_.end() && it->second.overloaded;
  }

  // Opt-in tracing/metrics; either pointer may be null and both must
  // outlive the manager.
  void set_observability(obs::TraceRecorder* trace,
                         obs::MetricsRegistry* metrics);

  // Opt-in durability: journal every registry mutation through `sink`
  // (null to detach). The sink must outlive the manager or be detached
  // before it dies.
  void set_mutation_sink(RegistryMutationSink* sink) { sink_ = sink; }

  // ---- failover seeding (standby takeover) ----
  // Install a replayed registry entry / overload phase as-of the journaled
  // timestamps, bypassing the mutation path: no sink call, no stats, no
  // trace — the primary already journaled these facts.
  void seed_entry(const net::NodeStatus& status, SimTime last_heartbeat) {
    registry_.upsert(status, last_heartbeat);
  }
  void seed_overload(NodeId node, std::uint64_t epoch, bool overloaded) {
    OverloadState& st = overload_[node];
    st.epoch = epoch;
    st.overloaded = overloaded;
    st.last_transition = -1;  // dwell waived: the journal has no dwell clock
    registry_.set_overloaded(node, overloaded);
  }

  // ---- introspection ----
  [[nodiscard]] Registry& registry() { return registry_; }
  [[nodiscard]] const GlobalSelector& selector() const { return selector_; }
  [[nodiscard]] const ManagerStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t live_nodes() {
    note_expired(registry_.expire(clock_->now()));
    if (sink_ != nullptr) sink_->commit(clock_->now());
    return registry_.size();
  }

 private:
  // Traces/counts nodes the registry just expired (missed heartbeats) —
  // the only way the manager learns about abrupt departures.
  void note_expired(const std::vector<NodeId>& expired);

  // Per-node hysteresis state. The epoch counts overload episodes and
  // never resets (clients honor a re-discover hint once per epoch, so the
  // counter must stay monotone across rejoins).
  struct OverloadState {
    bool overloaded{false};
    SimTime last_transition{-1};  // <0: no transition yet, dwell waived
    std::uint64_t epoch{0};
  };
  // Advance the hysteresis for one heartbeat; returns the node's state.
  const OverloadState& update_overload(const net::NodeStatus& status,
                                       SimTime now);
  // The shed-to-cloud trigger: when every live non-cloud node of the
  // request's registry cell is overloaded (and there is at least one),
  // returns how many; otherwise 0.
  [[nodiscard]] int cell_hot(const net::DiscoveryRequest& request,
                             SimTime now);

  sim::Clock* clock_;
  Registry registry_;
  GlobalSelector selector_;
  ManagerStats stats_;
  OverloadPolicy overload_policy_;
  std::unordered_map<NodeId, OverloadState> overload_;
  RegistryMutationSink* sink_{nullptr};
  obs::TraceRecorder* trace_{nullptr};
  obs::Counter* expirations_{nullptr};
  obs::Counter* discoveries_{nullptr};
  obs::Counter* rejoins_{nullptr};
  obs::Counter* overload_enters_{nullptr};
  obs::Counter* cell_sheds_{nullptr};
  obs::Counter* select_scanned_{nullptr};
};

}  // namespace eden::manager
