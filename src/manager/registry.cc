#include "manager/registry.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

namespace eden::manager {

namespace {

constexpr double kKmPerDegree = geo::kEarthRadiusKm * std::numbers::pi / 180.0;

// Upper bound on the great-circle distance from the cell center to any
// point of the cell: meridian leg (latitude half-span) plus a parallel leg
// at the latitude where the cell is widest. Padded for fp slop; only used
// for conservative pruning, never for the exact in-range check.
double cell_radius_bound_km(const geo::GeoBox& box) {
  const double lat_half = (box.max_lat - box.min_lat) / 2.0;
  const double lon_half = (box.max_lon - box.min_lon) / 2.0;
  double max_cos = 1.0;
  if (box.min_lat > 0.0 || box.max_lat < 0.0) {
    const double edge = std::min(std::abs(box.min_lat), std::abs(box.max_lat));
    max_cos = std::cos(edge * std::numbers::pi / 180.0);
  }
  return kKmPerDegree * (lat_half + lon_half * max_cos) + 1e-6;
}

}  // namespace

Registry::UnitVector Registry::unit_vector(const geo::GeoPoint& p) {
  const double lat = p.lat * std::numbers::pi / 180.0;
  const double lon = p.lon * std::numbers::pi / 180.0;
  return {std::cos(lat) * std::cos(lon), std::cos(lat) * std::sin(lon),
          std::sin(lat)};
}

double Registry::chord2_bound(double radius_km) {
  const double half_angle = radius_km / (2.0 * geo::kEarthRadiusKm);
  if (half_angle >= std::numbers::pi / 2.0) {
    return std::numeric_limits<double>::infinity();
  }
  const double chord = 2.0 * std::sin(half_angle);
  // Unit-vector components and haversine_km each carry a few ulps of
  // rounding; the relative pad dwarfs it at any radius the selector uses,
  // and the absolute one covers chords so short that differences of
  // O(1) components dominate their error.
  return chord * chord * (1.0 + 1e-9) + 1e-15;
}

void Registry::index_insert(NodeId /*id*/, Slot& slot) {
  slot.center = geo::geohash_decode_center(slot.entry.status.geohash);
  if (!slot.center) {
    slot.fallback = true;
    slot.bucket_key.clear();
    slot.bucket_pos = static_cast<std::uint32_t>(fallback_.size());
    fallback_.push_back(&slot);
    return;
  }
  slot.fallback = false;
  slot.unit = unit_vector(*slot.center);
  const std::string& hash = slot.entry.status.geohash;
  slot.bucket_key = hash.substr(
      0, std::min<std::size_t>(hash.size(), kBucketPrecision));
  auto [it, inserted] = buckets_.try_emplace(slot.bucket_key);
  if (inserted) {
    // A prefix of a decodable hash always decodes.
    const auto box = *geo::geohash_decode(it->first);
    it->second.center = box.center();
    it->second.radius_km = cell_radius_bound_km(box);
  }
  slot.bucket_pos = static_cast<std::uint32_t>(it->second.slots.size());
  it->second.slots.push_back(&slot);
}

void Registry::index_remove(const Slot& slot) {
  std::vector<Slot*>* slots = nullptr;
  if (slot.fallback) {
    slots = &fallback_;
  } else {
    slots = &buckets_.find(slot.bucket_key)->second.slots;
  }
  // Swap-erase; fix up the slot of the entry that moved into our position.
  const std::uint32_t pos = slot.bucket_pos;
  (*slots)[pos] = slots->back();
  slots->pop_back();
  if (pos < slots->size()) {
    (*slots)[pos]->bucket_pos = pos;
  }
  if (!slot.fallback && slots->empty()) buckets_.erase(slot.bucket_key);
}

void Registry::erase_entry(NodeId id, const Slot& slot) {
  index_remove(slot);
  slots_.erase(id);
}

void Registry::upsert(const net::NodeStatus& status, SimTime now) {
  auto [it, inserted] = slots_.try_emplace(status.node);
  Slot& slot = it->second;
  if (inserted) {
    slot.entry.registered_at = now;
    slot.entry.status = status;
    index_insert(status.node, slot);
  } else if (slot.entry.status.geohash != status.geohash) {
    // The node moved buckets; reindex under the new hash.
    index_remove(slot);
    slot.entry.status = status;
    index_insert(status.node, slot);
  } else {
    slot.entry.status = status;
  }
  slot.entry.last_heartbeat = now;
  deadlines_.emplace(now, status.node);
}

void Registry::remove(NodeId node) {
  const auto it = slots_.find(node);
  if (it == slots_.end()) return;
  erase_entry(node, it->second);
}

std::vector<NodeId> Registry::expire(SimTime now) {
  std::vector<NodeId> expired;
  while (!deadlines_.empty()) {
    const auto [heartbeat, id] = deadlines_.top();
    if (now - heartbeat <= heartbeat_ttl_) break;  // freshest deadline first
    deadlines_.pop();
    const auto it = slots_.find(id);
    // Skip deadlines superseded by a newer heartbeat or an explicit
    // remove(); the current heartbeat (if any) is still in the heap.
    if (it == slots_.end() || it->second.entry.last_heartbeat != heartbeat) {
      continue;
    }
    expired.push_back(id);
    erase_entry(id, it->second);
  }
  std::sort(expired.begin(), expired.end());
  return expired;
}

std::optional<RegistryEntry> Registry::get(NodeId node) const {
  const auto it = slots_.find(node);
  if (it == slots_.end()) return std::nullopt;
  return it->second.entry;
}

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
std::vector<RegistryEntry> Registry::snapshot(SimTime now) {
  expire(now);
  std::vector<RegistryEntry> out;
  out.reserve(slots_.size());
  for (const auto& [id, slot] : slots_) out.push_back(slot.entry);
  return out;
}
#pragma GCC diagnostic pop

}  // namespace eden::manager
