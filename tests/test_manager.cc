// Unit tests for the central manager: registry freshness and the global
// (manager-side) selection step — proximity filter with widening, scoring,
// TopN truncation.
#include "manager/central_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <optional>
#include <set>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "geo/geohash.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "sim/clock.h"

namespace eden::manager {
namespace {

net::NodeStatus make_status(std::uint32_t id, std::string geohash,
                            int cores = 4, double frame_ms = 30.0,
                            double utilization = 0.0, int users = 0) {
  net::NodeStatus status;
  status.node = NodeId{id};
  status.geohash = std::move(geohash);
  status.cores = cores;
  status.base_frame_ms = frame_ms;
  status.utilization = utilization;
  status.attached_users = users;
  return status;
}

TEST(Registry, UpsertAndGet) {
  Registry registry(sec(3.0));
  registry.upsert(make_status(1, "9zvxvf"), msec(100));
  const auto entry = registry.get(NodeId{1});
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->status.geohash, "9zvxvf");
  EXPECT_EQ(entry->last_heartbeat, msec(100));
  EXPECT_EQ(entry->registered_at, msec(100));
}

TEST(Registry, UpsertKeepsRegistrationTime) {
  Registry registry(sec(3.0));
  registry.upsert(make_status(1, "9zvxvf"), msec(100));
  registry.upsert(make_status(1, "9zvxvf"), msec(500));
  const auto entry = registry.get(NodeId{1});
  EXPECT_EQ(entry->registered_at, msec(100));
  EXPECT_EQ(entry->last_heartbeat, msec(500));
}

TEST(Registry, ExpireDropsStaleNodes) {
  Registry registry(sec(3.0));
  registry.upsert(make_status(1, "a"), 0);
  registry.upsert(make_status(2, "b"), sec(2));
  registry.expire(sec(4));  // node 1 is 4s stale (> 3s TTL), node 2 only 2s
  EXPECT_FALSE(registry.get(NodeId{1}).has_value());
  EXPECT_TRUE(registry.get(NodeId{2}).has_value());
}

TEST(Registry, ForEachLiveExpiresFirst) {
  Registry registry(sec(1.0));
  registry.upsert(make_status(1, "a"), 0);
  std::size_t visited = 0;
  registry.for_each_live(
      "", sec(5),
      [&visited](const RegistryEntry&, const std::optional<geo::GeoPoint>&) {
        ++visited;
      });
  EXPECT_EQ(visited, 0u);
  EXPECT_EQ(registry.size(), 0u);  // expiry ran before visitation
}

TEST(Registry, RemoveIsImmediate) {
  Registry registry;
  registry.upsert(make_status(1, "a"), 0);
  registry.remove(NodeId{1});
  EXPECT_EQ(registry.size(), 0u);
}

TEST(Registry, ExpireExactTtlBoundary) {
  Registry registry(sec(3.0));
  registry.upsert(make_status(1, "9zvxvf"), 0);
  // Exactly at the TTL the node survives (expiry needs age > ttl)...
  EXPECT_TRUE(registry.expire(sec(3)).empty());
  EXPECT_TRUE(registry.get(NodeId{1}).has_value());
  // ...one microsecond later it is gone.
  EXPECT_EQ(registry.expire(sec(3) + 1), std::vector<NodeId>{NodeId{1}});
  EXPECT_FALSE(registry.get(NodeId{1}).has_value());
}

TEST(Registry, ExpireReturnsSortedIdsUnderInterleaving) {
  // Deadline-queue regression: interleaved upserts, heartbeat refreshes and
  // expiries must return expired ids sorted ascending and drop exactly the
  // stale set, regardless of heap pop order or superseded heap entries.
  Registry registry(sec(3.0));
  for (const std::uint32_t id : {7u, 3u, 11u, 1u, 9u, 5u}) {
    registry.upsert(make_status(id, "9zvxvf"), 0);
  }
  // Refresh 3 and 9 at t=2s; their t=0 heap entries go stale, not the nodes.
  registry.upsert(make_status(3, "9zvxvf"), sec(2));
  registry.upsert(make_status(9, "9zvxvf"), sec(2));
  // Explicitly removed nodes must never come back as "expired".
  registry.remove(NodeId{5});

  const auto first = registry.expire(sec(4));
  EXPECT_EQ(first, (std::vector<NodeId>{NodeId{1}, NodeId{7}, NodeId{11}}));
  EXPECT_EQ(registry.size(), 2u);

  // Nothing left but 3 and 9; they expire exactly once, in order.
  const auto second = registry.expire(sec(6));
  EXPECT_EQ(second, (std::vector<NodeId>{NodeId{3}, NodeId{9}}));
  EXPECT_TRUE(registry.expire(sec(60)).empty());
  EXPECT_EQ(registry.size(), 0u);
}

TEST(Registry, GeohashChangeRebuckets) {
  Registry registry(sec(30.0));
  registry.upsert(make_status(1, "9zvxvf"), 0);
  registry.upsert(make_status(1, "dp3wnh"), sec(1));  // node moved metros
  const auto collect = [&](std::string_view prefix) {
    std::vector<std::uint32_t> ids;
    registry.for_each_live(
        prefix, sec(1),
        [&](const RegistryEntry& entry, const std::optional<geo::GeoPoint>&) {
          ids.push_back(entry.status.node.value);
        });
    return ids;
  };
  EXPECT_TRUE(collect("9zvx").empty());
  EXPECT_EQ(collect("dp3w"), std::vector<std::uint32_t>{1u});
}

TEST(Registry, ForEachLiveMatchesTextualPrefix) {
  Registry registry(sec(30.0));
  registry.upsert(make_status(1, "9zvxvf"), 0);
  registry.upsert(make_status(2, "9zvxaa"), 0);  // 'a' invalid: undecodable
  registry.upsert(make_status(3, ""), 0);        // no location at all
  registry.upsert(make_status(4, "9zvyyy"), 0);
  const auto collect = [&](std::string_view prefix) {
    std::vector<std::uint32_t> ids;
    registry.for_each_live(
        prefix, 0,
        [&](const RegistryEntry& entry, const std::optional<geo::GeoPoint>&) {
          ids.push_back(entry.status.node.value);
        });
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  EXPECT_EQ(collect(""), (std::vector<std::uint32_t>{1u, 2u, 3u, 4u}));
  EXPECT_EQ(collect("9zv"), (std::vector<std::uint32_t>{1u, 2u, 4u}));
  EXPECT_EQ(collect("9zvx"), (std::vector<std::uint32_t>{1u, 2u}));
  // Longer than the bucket precision: per-entry textual check inside the
  // bucket; the undecodable hash no longer matches.
  EXPECT_EQ(collect("9zvxv"), std::vector<std::uint32_t>{1u});
}

TEST(Registry, VisitorSeesDecodedCenterOnlyForValidHashes) {
  Registry registry(sec(30.0));
  registry.upsert(make_status(1, "9zvxvf"), 0);
  registry.upsert(make_status(2, "not a hash"), 0);
  registry.for_each_live(
      "", 0,
      [&](const RegistryEntry& entry, const std::optional<geo::GeoPoint>& c) {
        EXPECT_EQ(c.has_value(), entry.status.node == NodeId{1});
      });
}

// The point `km` along the great circle leaving `from` at `bearing` (rad),
// on the sphere haversine_km measures; longitude wrapped into [-180, 180).
geo::GeoPoint destination(const geo::GeoPoint& from, double bearing,
                          double km) {
  constexpr double kRad = std::numbers::pi / 180.0;
  const double d = km / geo::kEarthRadiusKm;
  const double lat1 = from.lat * kRad;
  const double lat2 =
      std::asin(std::sin(lat1) * std::cos(d) +
                std::cos(lat1) * std::sin(d) * std::cos(bearing));
  const double dlon =
      std::atan2(std::sin(bearing) * std::sin(d) * std::cos(lat1),
                 std::cos(d) - std::sin(lat1) * std::sin(lat2));
  double lon = from.lon + dlon / kRad;
  lon = std::fmod(lon + 540.0, 360.0) - 180.0;
  return {lat2 / kRad, lon};
}

TEST(Registry, CandidateDiscKeepsEveryEntryAtTheBoundary) {
  // Rings of entries at r and 2r around random centers, polar ones and
  // ones straddling the ±180° meridian. Radii are re-derived from each
  // entry's decoded cell center, so an entry sits at exactly r or
  // r·(1 ± 1e-12) as haversine_km measures it: every one must be visited.
  // The 2r ring must be skipped (bucket pruning alone would visit the
  // nearer of them), radius 1e9 visits everything, and entries with no
  // usable geohash are visited by every query.
  Rng rng(1020);
  std::vector<geo::GeoPoint> query_centers = {
      {89.9, 12.0}, {-89.9, -170.0}, {0.0, 179.995}, {-33.9, -179.999},
      {60.0, -180.0}, {0.0, 0.0}};
  for (int i = 0; i < 6; ++i) {
    query_centers.push_back(
        {rng.uniform(-80.0, 80.0), rng.uniform(-180.0, 180.0)});
  }
  constexpr int kBearings = 16;
  for (const geo::GeoPoint& center : query_centers) {
    for (const double r : {10.0, 25.0, 60.0, 150.0}) {
      Registry registry(sec(30.0));
      std::vector<std::pair<NodeId, double>> ring;  // id, exact distance
      std::set<std::uint32_t> far;
      std::uint32_t id = 1;
      for (int b = 0; b < kBearings; ++b) {
        const double bearing =
            2.0 * std::numbers::pi * (b + rng.uniform()) / kBearings;
        const std::string near_hash =
            geo::geohash_encode(destination(center, bearing, r), 12);
        registry.upsert(make_status(id, near_hash), 0);
        ring.emplace_back(
            NodeId{id++},
            geo::haversine_km(center, *geo::geohash_decode_center(near_hash)));
        far.insert(id);
        registry.upsert(
            make_status(id++, geo::geohash_encode(
                                  destination(center, bearing, 2.0 * r), 12)),
            0);
      }
      const std::uint32_t no_hash = id++;
      const std::uint32_t bad_hash = id++;
      registry.upsert(make_status(no_hash, ""), 0);
      registry.upsert(make_status(bad_hash, "9zvxaa"), 0);

      const auto visited = [&](double radius) {
        std::set<std::uint32_t> ids;
        registry.for_each_candidate(
            center, radius, 0,
            [&](const RegistryEntry& entry, const auto& /*center*/) {
              ids.insert(entry.status.node.value);
            });
        return ids;
      };
      for (const auto& [node, km] : ring) {
        for (const double radius :
             {km, km / (1.0 + 1e-12), km / (1.0 - 1e-12)}) {
          const auto ids = visited(radius);
          EXPECT_TRUE(ids.contains(node.value))
              << "center " << center.lat << "," << center.lon << " r " << r
              << " node " << node.value << " radius " << radius;
          EXPECT_TRUE(ids.contains(no_hash) && ids.contains(bad_hash));
        }
      }
      const auto ids = visited(r);
      for (const std::uint32_t f : far) {
        EXPECT_FALSE(ids.contains(f)) << "center " << center.lat << ","
                                      << center.lon << " r " << r << " node "
                                      << f;
      }
      EXPECT_EQ(visited(1e9).size(), registry.size());
    }
  }
}

class GlobalSelectionTest : public ::testing::Test {
 protected:
  static net::DiscoveryRequest request(std::string geohash, int top_n = 3,
                                       std::string tag = "") {
    net::DiscoveryRequest req;
    req.client = ClientId{100};
    req.geohash = std::move(geohash);
    req.top_n = top_n;
    req.network_tag = std::move(tag);
    return req;
  }

  static std::vector<RegistryEntry> wrap(std::vector<net::NodeStatus> statuses) {
    std::vector<RegistryEntry> entries;
    for (auto& s : statuses) entries.push_back(RegistryEntry{std::move(s), 0, 0});
    return entries;
  }
};

TEST_F(GlobalSelectionTest, ReturnsAtMostTopN) {
  GlobalSelector selector;
  std::vector<net::NodeStatus> statuses;
  for (std::uint32_t i = 0; i < 10; ++i) {
    statuses.push_back(make_status(i, "9zvxvf"));
  }
  const auto resp = selector.select(request("9zvxvf", 4), wrap(statuses));
  EXPECT_EQ(resp.candidates.size(), 4u);
}

TEST_F(GlobalSelectionTest, FewerNodesThanTopN) {
  GlobalSelector selector;
  const auto resp = selector.select(request("9zvxvf", 5),
                                    wrap({make_status(1, "9zvxvf")}));
  EXPECT_EQ(resp.candidates.size(), 1u);
}

TEST_F(GlobalSelectionTest, EmptySystem) {
  GlobalSelector selector;
  const auto resp = selector.select(request("9zvxvf", 3), {});
  EXPECT_TRUE(resp.candidates.empty());
}

TEST_F(GlobalSelectionTest, PrefersCloserGeohash) {
  GlobalSelector selector;
  // Same capacity; only proximity differs.
  const auto resp = selector.select(
      request("9zvxvf", 2),
      wrap({make_status(1, "9zvx00"), make_status(2, "9zvxvf")}));
  ASSERT_EQ(resp.candidates.size(), 2u);
  EXPECT_EQ(resp.candidates[0].node, NodeId{2});
}

TEST_F(GlobalSelectionTest, WidensWhenLocalNodesScarce) {
  // Only remote nodes exist: the widening loop must still return them.
  GlobalSelector selector;
  const auto resp = selector.select(
      request("9zvxvf", 2), wrap({make_status(1, "dp3wnh"),  // Chicago-ish
                                  make_status(2, "dr5reg")}));
  EXPECT_EQ(resp.candidates.size(), 2u);
}

TEST_F(GlobalSelectionTest, PrefersAvailableNodes) {
  GlobalSelector selector;
  const auto resp = selector.select(
      request("9zvxvf", 2),
      wrap({make_status(1, "9zvxvf", 4, 30.0, /*utilization=*/0.9),
            make_status(2, "9zvxvf", 4, 30.0, /*utilization=*/0.1)}));
  ASSERT_EQ(resp.candidates.size(), 2u);
  EXPECT_EQ(resp.candidates[0].node, NodeId{2});
}

TEST_F(GlobalSelectionTest, PenalisesLoadedNodes) {
  GlobalSelector selector;
  const auto resp = selector.select(
      request("9zvxvf", 2),
      wrap({make_status(1, "9zvxvf", 4, 30.0, 0.0, /*users=*/8),
            make_status(2, "9zvxvf", 4, 30.0, 0.0, /*users=*/0)}));
  EXPECT_EQ(resp.candidates[0].node, NodeId{2});
}

TEST_F(GlobalSelectionTest, NetworkAffinityWins) {
  GlobalSelector selector;
  auto tagged = make_status(1, "9zvxvf");
  tagged.network_tag = "isp-x";
  const auto resp = selector.select(request("9zvxvf", 2, "isp-x"),
                                    wrap({make_status(2, "9zvxvf"), tagged}));
  EXPECT_EQ(resp.candidates[0].node, NodeId{1});
}

TEST_F(GlobalSelectionTest, CloudIsLastResort) {
  GlobalSelector selector;
  auto cloud = make_status(1, "9zvxvf", 64, 30.0);  // huge but cloud
  cloud.is_cloud = true;
  const auto resp = selector.select(
      request("9zvxvf", 2), wrap({cloud, make_status(2, "9zvxvf", 2, 50.0)}));
  ASSERT_EQ(resp.candidates.size(), 2u);
  EXPECT_EQ(resp.candidates[0].node, NodeId{2});
  EXPECT_EQ(resp.candidates[1].node, NodeId{1});
}

TEST_F(GlobalSelectionTest, ScoresOrderCandidatesDescending) {
  GlobalSelector selector;
  std::vector<net::NodeStatus> statuses;
  for (std::uint32_t i = 0; i < 6; ++i) {
    statuses.push_back(
        make_status(i, "9zvxvf", 2 + static_cast<int>(i), 30.0, 0.1 * i));
  }
  const auto resp = selector.select(request("9zvxvf", 6), wrap(statuses));
  for (std::size_t i = 1; i < resp.candidates.size(); ++i) {
    EXPECT_GE(resp.candidates[i - 1].score, resp.candidates[i].score);
  }
}

TEST_F(GlobalSelectionTest, DeterministicTieBreakOnNodeId) {
  GlobalSelector selector;
  const auto resp = selector.select(
      request("9zvxvf", 3),
      wrap({make_status(3, "9zvxvf"), make_status(1, "9zvxvf"),
            make_status(2, "9zvxvf")}));
  ASSERT_EQ(resp.candidates.size(), 3u);
  EXPECT_EQ(resp.candidates[0].node, NodeId{1});
  EXPECT_EQ(resp.candidates[1].node, NodeId{2});
  EXPECT_EQ(resp.candidates[2].node, NodeId{3});
}

TEST_F(GlobalSelectionTest, SelectIntoReuseMatchesFreshSelect) {
  // The out-param variant reuses the caller's response across queries; a
  // second query with fewer hits must clear the first query's leftovers,
  // and every reused answer must be byte-identical to a fresh select().
  GlobalSelector selector;
  Registry registry(sec(30.0));
  for (std::uint32_t i = 0; i < 6; ++i) {
    registry.upsert(make_status(i, "9zvxvf"), 0);
  }
  net::DiscoveryResponse reused;
  selector.select_into(request("9zvxvf", 5), registry, reused);
  EXPECT_EQ(reused.candidates.size(), 5u);

  const auto narrow = request("9zvxvf", 2);
  selector.select_into(narrow, registry, reused);
  const auto fresh = selector.select(narrow, registry);
  ASSERT_EQ(reused.candidates.size(), fresh.candidates.size());
  for (std::size_t i = 0; i < fresh.candidates.size(); ++i) {
    EXPECT_EQ(reused.candidates[i].node, fresh.candidates[i].node);
    EXPECT_EQ(reused.candidates[i].geohash, fresh.candidates[i].geohash);
    EXPECT_EQ(reused.candidates[i].score, fresh.candidates[i].score);
    EXPECT_EQ(reused.candidates[i].endpoint, fresh.candidates[i].endpoint);
  }
}

TEST(CentralManager, FullLifecycle) {
  sim::Simulator simulator;
  sim::SimScheduler clock(simulator);
  CentralManager manager(clock, {}, sec(3.0));

  manager.handle_register(make_status(1, "9zvxvf"));
  manager.handle_register(make_status(2, "9zvxvf"));
  EXPECT_EQ(manager.live_nodes(), 2u);

  net::DiscoveryRequest req;
  req.client = ClientId{50};
  req.geohash = "9zvxvf";
  req.top_n = 5;
  EXPECT_EQ(manager.handle_discover(req).candidates.size(), 2u);

  manager.handle_deregister(NodeId{1});
  EXPECT_EQ(manager.live_nodes(), 1u);

  // Node 2 stops heartbeating; after the TTL it vanishes from discovery.
  simulator.run_until(sec(10));
  EXPECT_EQ(manager.handle_discover(req).candidates.size(), 0u);
  EXPECT_EQ(manager.stats().discovery_queries, 2u);
  EXPECT_EQ(manager.stats().registrations, 2u);
  EXPECT_EQ(manager.stats().deregistrations, 1u);
}

TEST(CentralManager, HeartbeatRefreshesFreshness) {
  sim::Simulator simulator;
  sim::SimScheduler clock(simulator);
  CentralManager manager(clock, {}, sec(3.0));
  manager.handle_register(make_status(1, "9zvxvf"));
  simulator.run_until(sec(2));
  manager.handle_heartbeat(make_status(1, "9zvxvf"));
  simulator.run_until(sec(4));  // 2s since last heartbeat < 3s TTL
  EXPECT_EQ(manager.live_nodes(), 1u);
}

TEST(CentralManager, SelectScannedCountsExactDistanceTests) {
  // One inc per discovery, by the entries whose exact distance the
  // selector computed: two located nodes in range, one without a geohash
  // (prefix-matched, not measured), one 300 km out that the registry never
  // hands over. Detached metrics count nothing.
  sim::Simulator simulator;
  sim::SimScheduler clock(simulator);
  CentralManager manager(clock, {}, sec(30.0));
  obs::MetricsRegistry metrics;
  manager.set_observability(nullptr, &metrics);
  manager.handle_register(make_status(1, "9zvxvf"));
  manager.handle_register(make_status(2, "9zvxvg"));
  manager.handle_register(make_status(3, ""));
  manager.handle_register(make_status(
      4, geo::geohash_encode(destination(*geo::geohash_decode_center("9zvxvf"),
                                         0.0, 300.0),
                             6)));
  net::DiscoveryRequest req;
  req.client = ClientId{50};
  req.geohash = "9zvxvf";
  req.top_n = 1;
  const obs::Counter& scanned = metrics.counter("manager.select_scanned");
  EXPECT_EQ(manager.handle_discover(req).candidates.size(), 1u);
  EXPECT_EQ(scanned.value(), 2u);
  EXPECT_EQ(metrics.snapshot().counters.count("manager.select_scanned"), 1u);

  manager.set_observability(nullptr, nullptr);
  EXPECT_EQ(manager.handle_discover(req).candidates.size(), 1u);
  EXPECT_EQ(scanned.value(), 2u);
}

// A sink whose first on_expire detaches it, as a crash fired from a
// batch-full journal flush does: the rest of the expiry loop must see the
// null sink instead of calling through it.
class DetachingSink final : public RegistryMutationSink {
 public:
  explicit DetachingSink(CentralManager& manager) : manager_(&manager) {}
  void on_register(const net::NodeStatus&, SimTime, bool) override {}
  void on_heartbeat(const net::NodeStatus&, SimTime) override {}
  void on_leave(NodeId, SimTime) override {}
  void on_expire(NodeId, SimTime) override {
    ++expires;
    manager_->set_mutation_sink(nullptr);
  }
  void on_epoch(NodeId, std::uint64_t, bool, SimTime) override {}
  void commit(SimTime) override {}

  int expires{0};

 private:
  CentralManager* manager_;
};

TEST(CentralManager, SinkDetachedMidExpiryIsNotCalledAgain) {
  sim::Simulator simulator;
  sim::SimScheduler clock(simulator);
  CentralManager manager(clock, {}, sec(3.0));
  DetachingSink sink(manager);
  manager.set_mutation_sink(&sink);
  for (std::uint32_t id = 1; id <= 4; ++id) {
    manager.handle_register(make_status(id, "9zvxvf"));
  }
  simulator.run_until(sec(10));  // all four expire on the next query

  net::DiscoveryRequest req;
  req.client = ClientId{50};
  req.geohash = "9zvxvf";
  req.top_n = 5;
  EXPECT_TRUE(manager.handle_discover(req).candidates.empty());
  EXPECT_EQ(sink.expires, 1);
  EXPECT_EQ(manager.live_nodes(), 0u);
}

}  // namespace
}  // namespace eden::manager
