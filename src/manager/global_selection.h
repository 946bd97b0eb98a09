// Global (manager-side) edge selection: step one of the paper's 2-step
// approach. Applies a GeoHash proximity filter with widening, then ranks
// the surviving nodes by resource availability, processing capacity and
// network affiliation, and returns the TopN candidate edge list. The
// ranking is deliberately coarse — final decisions are client-side — so it
// only needs to be "high tolerance to inaccuracy and mismatch" (§IV-B).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "geo/geopoint.h"
#include "manager/registry.h"
#include "net/protocol.h"

namespace eden::manager {

struct GlobalPolicy {
  // Start matching this many geohash prefix characters and widen (shorten)
  // until enough candidates qualify. 4 chars ~ a metro area (~20 km cells).
  int initial_prefix{4};
  // Stop widening once at least this multiple of TopN nodes qualify.
  double widen_factor{2.0};

  // Ranking weights.
  double w_proximity{1.0};     // shared-prefix length, normalised
  double w_availability{1.0};  // 1 - utilization
  double w_capacity{0.6};      // cores / base_frame_ms, normalised
  double w_affinity{0.8};      // matching network tag
  // Cloud nodes are a last resort: flat score penalty.
  double cloud_penalty{1.5};
  // Soft load penalty per attached user relative to core count. Relatively
  // strong so that successive discovery queries steer late joiners away
  // from already-popular nodes (the coarse resource-awareness of step 1).
  double w_load{1.2};
  // Flat score penalty for nodes in the manager's overload set (the
  // load-feedback control loop). Only ever applied to entries whose
  // `overloaded` flag is set, which requires the manager's OverloadPolicy
  // to be enabled — selection with the feature off is bit-identical.
  double overload_penalty{2.0};
  // Extension (off by default): weight for a reputation-style reliability
  // score derived from observed uptime — the paper points at
  // reputation-based scheduling [33] for tuning selection to volunteer
  // reliability. Whether uptime predicts residual lifetime depends on the
  // churn's hazard shape; see bench_ablation_manager.
  double w_reliability{0.0};
  // Uptime at which the reliability score reaches 0.5.
  double reliability_halflife_sec{60.0};
};

class GlobalSelector {
 public:
  explicit GlobalSelector(GlobalPolicy policy = {}) : policy_(policy) {}

  // Index-backed selection: queries the registry's geohash buckets per
  // widening radius instead of scanning every node. Expires stale entries
  // as a side effect. Byte-identical responses to the vector overload.
  // `shed_to_cloud` is the manager's hot-cell verdict: it cancels the
  // cloud penalty so cloud/LZ fallbacks outrank saturated volunteers.
  [[nodiscard]] net::DiscoveryResponse select(
      const net::DiscoveryRequest& request, Registry& registry,
      SimTime now = 0, bool shed_to_cloud = false) const;

  // Out-parameter variant of the index-backed overload: fills `out`
  // (clearing its candidate list first) so a caller-owned response's
  // capacity is reused across queries — the live manager's discovery hot
  // path performs no per-query allocation at steady state. Returns how
  // many entries the exact distance test examined, over every widening
  // step (the cost the registry's pre-filter exists to keep small).
  std::size_t select_into(const net::DiscoveryRequest& request,
                          Registry& registry, net::DiscoveryResponse& out,
                          SimTime now = 0, bool shed_to_cloud = false) const;

  // Linear-scan selection over a materialized entry list (tests, ablation
  // studies, equivalence checks).
  [[nodiscard]] net::DiscoveryResponse select(
      const net::DiscoveryRequest& request,
      const std::vector<RegistryEntry>& nodes, SimTime now = 0,
      bool shed_to_cloud = false) const;

  [[nodiscard]] const GlobalPolicy& policy() const { return policy_; }

  // Exposed for tests: the composite score of one node for one request.
  // `uptime_sec` feeds the (optional) reliability term.
  [[nodiscard]] double score(const net::DiscoveryRequest& request,
                             const net::NodeStatus& node,
                             double uptime_sec = 0.0) const;

 private:
  // Qualified candidate: the entry plus its (possibly absent) geohash cell
  // center, so ranking never re-decodes hashes. `user_km` carries the
  // haversine distance already computed by the in-range filter (negative
  // when the filter fell back to prefix matching), so ranking never
  // re-evaluates the trig either.
  struct Candidate {
    const RegistryEntry* entry;
    std::optional<geo::GeoPoint> center;
    double user_km{-1.0};
  };

  [[nodiscard]] double score_with_centers(
      const net::DiscoveryRequest& request, const net::NodeStatus& node,
      double uptime_sec, const std::optional<geo::GeoPoint>& user_center,
      const std::optional<geo::GeoPoint>& node_center) const;

  // The score given an already-resolved proximity term (shared tail of
  // score_with_centers and the ranking fast path).
  [[nodiscard]] double score_with_proximity(const net::DiscoveryRequest& request,
                                            const net::NodeStatus& node,
                                            double uptime_sec,
                                            double proximity) const;

  // Rank `qualified` and emit the TopN response into `out` (bounded
  // partial sort with the deterministic node-id tie-break).
  void rank(const net::DiscoveryRequest& request,
            std::vector<Candidate>& qualified, SimTime now,
            bool shed_to_cloud, net::DiscoveryResponse& out) const;

  GlobalPolicy policy_;

  // Per-query working sets, reused across select() calls so the discovery
  // hot path performs no growth allocations at steady state. Selection is
  // logically const; these are pure scratch. Not thread-safe — one
  // selector belongs to one manager, driven from one loop (or the
  // single-threaded simulator).
  mutable std::vector<Candidate> qualified_scratch_;
  mutable std::vector<std::pair<double, const net::NodeStatus*>> rank_scratch_;
};

}  // namespace eden::manager
