#include "manager/central_manager.h"

#include <algorithm>
#include <string_view>

namespace eden::manager {

void CentralManager::handle_register(const net::NodeStatus& status) {
  ++stats_.registrations;
  const SimTime now = clock_->now();
  if (sink_ != nullptr) sink_->on_register(status, now, /*rejoin=*/false);
  registry_.upsert(status, now);
  if (sink_ != nullptr) sink_->commit(now);
}

net::HeartbeatAck CentralManager::handle_heartbeat(
    const net::NodeStatus& status) {
  ++stats_.heartbeats;
  const SimTime now = clock_->now();
  net::HeartbeatAck ack;

  // Rejoin detection: a heartbeat for a node the registry no longer holds
  // (TTL-expired and removed, or never registered — e.g. the registration
  // was lost in a fault window), or whose entry is stale past the TTL and
  // only survived because nothing forced the lazy expiry yet. Both used to
  // take a silent resurrection path through upsert(); now the rejoin is an
  // explicit re-registration — traced, counted, uptime reset — and the
  // feedback ack tells the node to invalidate pre-gap seqNums.
  const RegistryEntry* existing = registry_.find(status.node);
  const bool stale = existing != nullptr &&
                     now - existing->last_heartbeat > registry_.heartbeat_ttl();
  if (existing == nullptr || stale) {
    if (stale) {
      // The entry was dead-but-unobserved; retire it through the normal
      // expiry path so the departure stays visible before the rejoin.
      note_expired(registry_.expire(now));
      // A refresh inside the same tick (now - last == ttl boundary) can
      // keep the entry alive; only then is this not a rejoin.
      existing = registry_.find(status.node);
    }
    if (existing == nullptr) {
      ++stats_.rejoins;
      if (rejoins_ != nullptr) rejoins_->inc();
      if (trace_ != nullptr) {
        trace_->record({now, obs::EventKind::kNodeRejoin, status.node, {},
                        0, stale ? 1.0 : 0.0});
      }
      ack.rejoined = true;
    }
  }
  if (sink_ != nullptr) {
    if (ack.rejoined) {
      sink_->on_register(status, now, /*rejoin=*/true);
    } else {
      sink_->on_heartbeat(status, now);
    }
  }
  registry_.upsert(status, now);

  if (overload_policy_.enabled) {
    const OverloadState& st = update_overload(status, now);
    registry_.set_overloaded(status.node, st.overloaded);
    ack.degraded = st.overloaded;
    ack.phase_epoch = st.epoch;
  }
  if (sink_ != nullptr) sink_->commit(now);
  return ack;
}

const CentralManager::OverloadState& CentralManager::update_overload(
    const net::NodeStatus& status, SimTime now) {
  OverloadState& st = overload_[status.node];
  const double cores = static_cast<double>(std::max(1, status.cores));
  const double queue_per_core = static_cast<double>(status.queue_depth) / cores;
  const double p95_factor =
      status.base_frame_ms > 0 ? status.p95_proc_ms / status.base_frame_ms
                               : 0.0;
  const bool credits_low =
      status.burst_credits < overload_policy_.min_burst_credits;
  const bool enter_pressure =
      queue_per_core >= overload_policy_.enter_queue_per_core ||
      p95_factor >= overload_policy_.enter_p95_factor ||
      (credits_low && queue_per_core >= 1.0);
  // Credit starvation blocks the exit only while work is actually waiting
  // — mirroring the enter rule. A drained idle node must be able to leave
  // the set even when its credit ceiling sits below min_burst_credits
  // (small burstable instances can never accumulate that much).
  const bool exit_clear =
      queue_per_core <= overload_policy_.exit_queue_per_core &&
      p95_factor <= overload_policy_.exit_p95_factor &&
      (!credits_low || status.queue_depth == 0);
  const bool dwell_ok = st.last_transition < 0 ||
                        now - st.last_transition >= overload_policy_.min_dwell;
  if (!st.overloaded && enter_pressure && dwell_ok) {
    st.overloaded = true;
    st.last_transition = now;
    ++st.epoch;
    if (sink_ != nullptr) sink_->on_epoch(status.node, st.epoch, true, now);
    ++stats_.overload_enters;
    if (overload_enters_ != nullptr) overload_enters_->inc();
    if (trace_ != nullptr) {
      trace_->record({now, obs::EventKind::kOverloadEnter, status.node, {},
                      0, static_cast<double>(st.epoch)});
    }
  } else if (st.overloaded && exit_clear && dwell_ok) {
    st.overloaded = false;
    if (sink_ != nullptr) sink_->on_epoch(status.node, st.epoch, false, now);
    const double dwelled = to_sec(now - st.last_transition);
    st.last_transition = now;
    ++stats_.overload_exits;
    if (trace_ != nullptr) {
      trace_->record({now, obs::EventKind::kOverloadExit, status.node, {},
                      0, dwelled});
    }
  }
  return st;
}

void CentralManager::handle_deregister(NodeId node) {
  ++stats_.deregistrations;
  const SimTime now = clock_->now();
  if (sink_ != nullptr) sink_->on_leave(node, now);
  registry_.remove(node);
  if (sink_ != nullptr) sink_->commit(now);
}

net::DiscoveryResponse CentralManager::handle_discover(
    const net::DiscoveryRequest& request) {
  net::DiscoveryResponse response;
  handle_discover(request, response);
  return response;
}

void CentralManager::handle_discover(const net::DiscoveryRequest& request,
                                     net::DiscoveryResponse& out) {
  ++stats_.discovery_queries;
  if (discoveries_ != nullptr) discoveries_->inc();
  // Expire explicitly (the selector's internal expire then finds nothing)
  // so heartbeat-timeout departures are observable at the moment the
  // manager acts on them. The selector then answers from the registry's
  // geohash-bucket index — no snapshot copy.
  const SimTime now = clock_->now();
  note_expired(registry_.expire(now));
  if (sink_ != nullptr) sink_->commit(now);
  int hot = 0;
  if (overload_policy_.enabled && (hot = cell_hot(request, now)) > 0) {
    ++stats_.cell_sheds;
    if (cell_sheds_ != nullptr) cell_sheds_->inc();
    if (trace_ != nullptr) {
      trace_->record({now, obs::EventKind::kCellShed, request.client, {}, 0,
                      static_cast<double>(hot)});
    }
  }
  const std::size_t scanned =
      selector_.select_into(request, registry_, out, now, hot > 0);
  if (select_scanned_ != nullptr) select_scanned_->inc(scanned);
}

int CentralManager::cell_hot(const net::DiscoveryRequest& request,
                             SimTime now) {
  if (request.geohash.empty()) return 0;
  const auto prefix_len = std::min<std::size_t>(
      request.geohash.size(), static_cast<std::size_t>(Registry::kBucketPrecision));
  int volunteers = 0;
  int hot = 0;
  registry_.for_each_live(
      std::string_view(request.geohash).substr(0, prefix_len), now,
      [&](const RegistryEntry& entry, const auto& /*center*/) {
        if (entry.status.is_cloud) return;  // the shed target, not a source
        ++volunteers;
        if (entry.overloaded) ++hot;
      });
  return (volunteers > 0 && hot == volunteers) ? hot : 0;
}

void CentralManager::set_observability(obs::TraceRecorder* trace,
                                       obs::MetricsRegistry* metrics) {
  trace_ = trace;
  expirations_ =
      metrics != nullptr ? &metrics->counter("manager.expirations") : nullptr;
  discoveries_ =
      metrics != nullptr ? &metrics->counter("manager.discoveries") : nullptr;
  rejoins_ = metrics != nullptr ? &metrics->counter("manager.rejoins") : nullptr;
  overload_enters_ = metrics != nullptr
                         ? &metrics->counter("manager.overload_enters")
                         : nullptr;
  cell_sheds_ =
      metrics != nullptr ? &metrics->counter("manager.cell_sheds") : nullptr;
  select_scanned_ = metrics != nullptr
                        ? &metrics->counter("manager.select_scanned")
                        : nullptr;
}

void CentralManager::note_expired(const std::vector<NodeId>& expired) {
  if (expirations_ != nullptr) expirations_->inc(expired.size());
  for (const NodeId node : expired) {
    // Re-read per node: an on_expire that fills a journal batch can fire
    // a crash hook from its flush, and the crash detaches the sink.
    if (sink_ == nullptr) break;
    sink_->on_expire(node, clock_->now());
  }
  if (trace_ == nullptr) return;
  for (const NodeId node : expired) {
    trace_->record(
        {clock_->now(), obs::EventKind::kNodeExpire, node, {}, 0, 0.0});
  }
}

}  // namespace eden::manager
