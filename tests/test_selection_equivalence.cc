// Equivalence suite pinning the geo-indexed discovery pipeline to the
// legacy linear scan: for any topology the index-backed
// GlobalSelector::select(request, registry) must produce byte-identical
// responses to the materialized-snapshot overload — same candidates, same
// order, bitwise-equal scores. The index is allowed to visit a superset of
// buckets, never to change the answer.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "geo/geohash.h"
#include "harness/experiments.h"
#include "manager/central_manager.h"
#include "obs/metrics.h"
#include "sim/clock.h"
#include "sim/simulator.h"

// This suite exists to pin the indexed pipeline against the deprecated
// copying shim — calling snapshot() here is the whole point.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"

namespace eden::manager {
namespace {

constexpr geo::GeoPoint kMetroCenter{44.9778, -93.2650};  // Minneapolis

void expect_identical(const net::DiscoveryResponse& legacy,
                      const net::DiscoveryResponse& indexed) {
  ASSERT_EQ(legacy.candidates.size(), indexed.candidates.size());
  for (std::size_t i = 0; i < legacy.candidates.size(); ++i) {
    EXPECT_EQ(legacy.candidates[i].node, indexed.candidates[i].node) << i;
    EXPECT_EQ(legacy.candidates[i].geohash, indexed.candidates[i].geohash) << i;
    EXPECT_EQ(legacy.candidates[i].endpoint, indexed.candidates[i].endpoint)
        << i;
    // Bitwise double equality: the indexed path must run the exact same
    // arithmetic, not a numerically-close variant.
    EXPECT_EQ(legacy.candidates[i].score, indexed.candidates[i].score) << i;
  }
}

// Geohash zoo: ~10% no location, ~5% undecodable (valid prefix + invalid
// character, exercising the fallback bucket's textual prefix matching),
// the rest valid at random precisions 1..8.
std::string random_hash(Rng& rng) {
  const double roll = rng.uniform();
  if (roll < 0.10) return {};
  const auto point =
      harness::random_point_near(kMetroCenter, rng.uniform(1.0, 400.0), rng);
  const int precision = static_cast<int>(rng.uniform_int(1, 8));
  std::string hash = geo::geohash_encode(point, precision);
  if (roll < 0.15) hash += 'a';  // 'a' is not in the geohash alphabet
  return hash;
}

net::NodeStatus random_status(std::uint32_t id, Rng& rng) {
  net::NodeStatus status;
  status.node = NodeId{id};
  status.geohash = random_hash(rng);
  status.cores = static_cast<int>(rng.uniform_int(1, 32));
  status.base_frame_ms = rng.uniform(10.0, 80.0);
  status.utilization = rng.uniform(0.0, 1.0);
  status.attached_users = static_cast<int>(rng.uniform_int(0, 20));
  status.dedicated = rng.uniform() < 0.3;
  status.is_cloud = rng.uniform() < 0.1;
  status.network_tag = (rng.uniform() < 0.5) ? "isp-a" : "isp-b";
  status.endpoint = "host-" + std::to_string(id) + ":9000";
  if (rng.uniform() < 0.3) status.app_types = {"ar"};
  if (rng.uniform() < 0.1) status.app_types.push_back("render");
  return status;
}

net::DiscoveryRequest random_request(std::uint32_t client, Rng& rng) {
  net::DiscoveryRequest request;
  request.client = ClientId{client};
  request.geohash = random_hash(rng);
  request.network_tag = (rng.uniform() < 0.5) ? "isp-a" : "isp-b";
  request.top_n = static_cast<int>(rng.uniform_int(1, 8));
  if (rng.uniform() < 0.25) request.app_type = "ar";
  return request;
}

TEST(SelectionEquivalence, RandomizedTopologies) {
  Rng rng(20260805);
  for (int trial = 0; trial < 40; ++trial) {
    Rng trial_rng = rng.fork("trial-" + std::to_string(trial));
    Registry registry(sec(3.0));
    const SimTime now = sec(100.0);
    const auto node_count = trial_rng.uniform_int(1, 120);
    for (std::int64_t i = 0; i < node_count; ++i) {
      // Heartbeats staggered across [now - 3.2s, now]: some entries sit
      // right at the TTL boundary, so expiry races are part of the
      // equivalence contract, not a separate case.
      const SimTime heartbeat =
          now - static_cast<SimTime>(trial_rng.uniform(0.0, 3.2e6));
      registry.upsert(
          random_status(static_cast<std::uint32_t>(1000 + i), trial_rng),
          heartbeat);
    }
    GlobalPolicy policy;
    if (trial % 3 == 0) policy.w_reliability = 0.5;
    if (trial % 4 == 0) policy.initial_prefix = 5;
    const GlobalSelector selector(policy);
    for (std::uint32_t q = 0; q < 25; ++q) {
      const auto request = random_request(q, trial_rng);
      const auto legacy = selector.select(request, registry.snapshot(now), now);
      const auto indexed = selector.select(request, registry, now);
      expect_identical(legacy, indexed);
    }
  }
}

TEST(SelectionEquivalence, EmptyRegistry) {
  Registry registry(sec(3.0));
  const GlobalSelector selector;
  net::DiscoveryRequest request;
  request.client = ClientId{1};
  request.geohash = "9zvxvf";
  const auto legacy = selector.select(request, registry.snapshot(0), 0);
  const auto indexed = selector.select(request, registry, 0);
  expect_identical(legacy, indexed);
  EXPECT_TRUE(indexed.candidates.empty());
}

TEST(SelectionEquivalence, AllNodesWithoutUsableGeohash) {
  // Every node in the fallback bucket; users decodable and not.
  Rng rng(7);
  Registry registry(sec(3.0));
  for (std::uint32_t i = 0; i < 30; ++i) {
    auto status = random_status(i, rng);
    status.geohash = (i % 2 == 0) ? std::string{} : "9zvxaa";  // undecodable
    registry.upsert(status, sec(1));
  }
  const GlobalSelector selector;
  for (const char* user_hash : {"9zvxvf", "", "9zvxaa", "dp3wnh"}) {
    net::DiscoveryRequest request;
    request.client = ClientId{1};
    request.geohash = user_hash;
    request.top_n = 5;
    expect_identical(selector.select(request, registry.snapshot(sec(1)), sec(1)),
                     selector.select(request, registry, sec(1)));
  }
}

TEST(SelectionEquivalence, MetroDensityScansOnlyWhatQualifies) {
  // metro_fleet density: 3,000 located nodes within 45 km, 500 requests
  // within 40 km, TopN 3 — enough nodes inside the first 10 km radius that
  // no query widens. The manager's answers must match the linear scan
  // byte for byte, and the entries its exact distance test examines
  // (manager.select_scanned) must stay close to the ones that qualify.
  constexpr double kFirstRadiusKm = 10.0;  // the selector's first step
  sim::Simulator simulator;
  sim::SimScheduler clock(simulator);
  CentralManager manager(clock);
  obs::MetricsRegistry metrics;
  manager.set_observability(nullptr, &metrics);
  Rng rng(20261020);
  std::vector<geo::GeoPoint> centers;
  for (std::uint32_t i = 0; i < 3000; ++i) {
    net::NodeStatus status = random_status(1000 + i, rng);
    status.geohash = geo::geohash_encode(
        harness::random_point_near(kMetroCenter, 45.0, rng), 6);
    status.is_cloud = false;
    status.app_types.clear();
    centers.push_back(*geo::geohash_decode_center(status.geohash));
    manager.handle_register(status);
  }
  const obs::Counter& scanned = metrics.counter("manager.select_scanned");
  const SimTime now = clock.now();
  for (std::uint32_t q = 0; q < 500; ++q) {
    net::DiscoveryRequest request = random_request(q, rng);
    request.geohash = geo::geohash_encode(
        harness::random_point_near(kMetroCenter, 40.0, rng), 6);
    request.top_n = 3;
    request.app_type.clear();
    const geo::GeoPoint user = *geo::geohash_decode_center(request.geohash);
    std::size_t qualified = 0;
    for (const geo::GeoPoint& c : centers) {
      if (geo::haversine_km(user, c) <= kFirstRadiusKm) ++qualified;
    }
    ASSERT_GE(qualified, 6u) << "query " << q << " would widen";

    const auto legacy = manager.selector().select(
        request, manager.registry().snapshot(now), now);
    const std::uint64_t before = scanned.value();
    const auto indexed = manager.handle_discover(request);
    expect_identical(legacy, indexed);
    const std::uint64_t examined = scanned.value() - before;
    EXPECT_GE(examined, qualified) << "query " << q;
    EXPECT_LE(static_cast<double>(examined),
              1.5 * static_cast<double>(qualified))
        << "query " << q;
  }
}

TEST(SelectionEquivalence, RealWorldScenarioAfterWarmup) {
  // The Table II deployment after 3 s of heartbeats: the live registry the
  // manager actually serves from must answer identically on both paths.
  auto setup = harness::make_realworld_setup(/*seed=*/99);
  auto& scenario = *setup.scenario;
  harness::start_all_nodes(scenario);
  scenario.run_until(sec(3.0));
  auto& manager = scenario.central_manager();
  const SimTime now = scenario.scheduler().now();
  const auto& selector = manager.selector();
  std::uint32_t next_client = 90000;
  for (const auto& spot : setup.user_spots) {
    net::DiscoveryRequest request;
    request.client = ClientId{next_client++};
    request.geohash = scenario.geohash_of(spot.position);
    request.network_tag = spot.network_tag;
    request.top_n = 3;
    const auto legacy =
        selector.select(request, manager.registry().snapshot(now), now);
    const auto indexed = selector.select(request, manager.registry(), now);
    expect_identical(legacy, indexed);
    EXPECT_FALSE(indexed.candidates.empty());
  }
}

}  // namespace
}  // namespace eden::manager

#pragma GCC diagnostic pop
