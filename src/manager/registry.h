// Node registry kept by the central manager: the latest status reported by
// every edge node plus heartbeat freshness. Stale entries (missed
// heartbeats) are expired lazily on access — exactly how the manager learns
// about abrupt volunteer departures.
//
// Scale architecture: entries are spatially indexed by truncated-geohash
// buckets (nodes whose hash does not decode land in a fallback bucket), so
// discovery queries visit only the entries of candidate buckets that can be
// in range, not every node, and a deadline min-heap makes expire()
// proportional to the number of nodes that actually time out, not the
// registry size. snapshot() survives as a copying compatibility shim; hot
// paths use the copy-free visitation API.
#pragma once

#include <map>
#include <optional>
#include <queue>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "geo/geohash.h"
#include "geo/geopoint.h"
#include "net/protocol.h"

namespace eden::manager {

struct RegistryEntry {
  net::NodeStatus status;
  SimTime last_heartbeat{0};
  SimTime registered_at{0};
  // Manager-side overload verdict (hysteresis lives in CentralManager; the
  // registry only mirrors the flag so selection can read it in place).
  // Deliberately not part of the status assignment in upsert().
  bool overloaded{false};
};

class Registry {
 public:
  // Bucket key length in geohash characters: ~39 km cells at the equator,
  // comfortably finer than the widening radii the selector probes with.
  static constexpr int kBucketPrecision = 4;

  explicit Registry(SimDuration heartbeat_ttl = sec(3.0))
      : heartbeat_ttl_(heartbeat_ttl) {}

  void upsert(const net::NodeStatus& status, SimTime now);
  void remove(NodeId node);
  // Drop every entry whose heartbeat is older than the TTL; returns the
  // expired ids sorted ascending so callers can observe departures
  // deterministically.
  std::vector<NodeId> expire(SimTime now);

  [[nodiscard]] std::optional<RegistryEntry> get(NodeId node) const;
  // Copy-free lookup (no expiry side effect); nullptr when absent. The
  // heartbeat hot path uses this to detect rejoins without copying the
  // entry's strings.
  [[nodiscard]] const RegistryEntry* find(NodeId node) const {
    const auto it = slots_.find(node);
    return it == slots_.end() ? nullptr : &it->second.entry;
  }
  // Mirror the manager's overload verdict into the entry; no-op when the
  // node is not registered.
  void set_overloaded(NodeId node, bool overloaded) {
    const auto it = slots_.find(node);
    if (it != slots_.end()) it->second.entry.overloaded = overloaded;
  }
  // Live entries as of `now` (expires first). Compatibility shim: copies
  // every entry — every in-tree hot path has moved to the visitation API
  // below; the shim survives only for the legacy-selector equivalence
  // tests and benchmarks, which pin the copying behavior on purpose.
  [[deprecated(
      "copies every entry; use for_each_live/for_each_candidate")]]  //
  [[nodiscard]] std::vector<RegistryEntry>
  snapshot(SimTime now);
  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  [[nodiscard]] SimDuration heartbeat_ttl() const { return heartbeat_ttl_; }

  // ---- copy-free visitation (expires first) ----
  //
  // Visitors receive (const RegistryEntry&, const std::optional<GeoPoint>&):
  // the entry plus its geohash cell center, decoded once at upsert time
  // (nullopt when the hash does not decode).

  // Every live entry whose geohash starts with `prefix` (an empty prefix
  // visits everything, including entries with no usable geohash).
  template <typename Visitor>
  void for_each_live(std::string_view prefix, SimTime now, Visitor&& visit) {
    expire(now);
    if (prefix.empty()) {
      for (const auto& [key, bucket] : buckets_) {
        for (const Slot* slot : bucket.slots) visit(slot->entry, slot->center);
      }
    } else if (prefix.size() <= kBucketPrecision) {
      // Bucket keys are hash prefixes, so every matching entry lives in a
      // bucket whose key itself starts with `prefix`: one ordered range.
      for (auto it = buckets_.lower_bound(prefix);
           it != buckets_.end() && starts_with(it->first, prefix); ++it) {
        for (const Slot* slot : it->second.slots) {
          visit(slot->entry, slot->center);
        }
      }
    } else {
      const auto it = buckets_.find(prefix.substr(0, kBucketPrecision));
      if (it != buckets_.end()) {
        for (const Slot* slot : it->second.slots) {
          if (starts_with(slot->entry.status.geohash, prefix)) {
            visit(slot->entry, slot->center);
          }
        }
      }
    }
    // Undecodable hashes can still match textually (e.g. a valid prefix
    // followed by garbage), so the fallback bucket is always scanned.
    for (const Slot* slot : fallback_) {
      if (prefix.empty() ||
          starts_with(slot->entry.status.geohash, prefix)) {
        visit(slot->entry, slot->center);
      }
    }
  }

  // Every live entry that could lie within `radius_km` of `center`: a
  // conservative superset, pruned at two levels. Buckets go by a lower
  // bound on the distance from `center` to any point of the bucket cell.
  // Entries in a surviving bucket go by the chord between their cell
  // center and `center` (unit vectors on the haversine sphere): chord
  // length is monotone in great-circle distance, so an entry is skipped
  // only when its squared chord exceeds (2·sin(r / 2R))² padded by a
  // relative 1e-9 and an absolute 1e-15 — far above the rounding of
  // either formula, so nothing haversine_km puts within `radius_km` is
  // ever skipped. The entry test is off once r / 2R ≥ π/2 (the bound
  // covers the whole sphere). Entries with no usable geohash are always
  // visited. Callers apply the exact per-entry check themselves; since
  // the pre-filter only drops entries that check rejects, the qualified
  // set — and every answer built from it — is unchanged.
  template <typename Visitor>
  void for_each_candidate(const geo::GeoPoint& center, double radius_km,
                          SimTime now, Visitor&& visit) {
    expire(now);
    const UnitVector q = unit_vector(center);
    const double max_chord2 = chord2_bound(radius_km);
    for (const auto& [key, bucket] : buckets_) {
      if (geo::haversine_km(center, bucket.center) >
          radius_km + bucket.radius_km) {
        continue;  // no point of this cell can be within radius_km
      }
      for (const Slot* slot : bucket.slots) {
        const double dx = slot->unit.x - q.x;
        const double dy = slot->unit.y - q.y;
        const double dz = slot->unit.z - q.z;
        if (dx * dx + dy * dy + dz * dz > max_chord2) continue;
        visit(slot->entry, slot->center);
      }
    }
    for (const Slot* slot : fallback_) visit(slot->entry, slot->center);
  }

 private:
  struct UnitVector {
    double x{0}, y{0}, z{0};
  };
  struct Slot {
    RegistryEntry entry;
    // Cell center of the full geohash; nullopt when it does not decode
    // (then the node lives in the fallback bucket).
    std::optional<geo::GeoPoint> center;
    UnitVector unit;  // `center` on the unit sphere; unused for fallback
    std::string bucket_key;     // key into buckets_; unused for fallback
    std::uint32_t bucket_pos{0};
    bool fallback{false};
  };
  struct Bucket {
    // Direct slot pointers: unordered_map nodes are address-stable, so
    // visitation never pays a per-entry hash lookup. index_remove() fixes
    // bucket_pos through the pointer after a swap-erase.
    std::vector<Slot*> slots;
    geo::GeoPoint center;  // cell center of the bucket's key
    double radius_km{0};   // upper bound on center -> any cell point
  };
  // Min-heap of (last_heartbeat, node); entries go stale when a newer
  // heartbeat arrives and are discarded lazily on pop.
  using Deadline = std::pair<SimTime, NodeId>;

  static bool starts_with(const std::string& s, std::string_view prefix) {
    return s.size() >= prefix.size() &&
           std::string_view(s).substr(0, prefix.size()) == prefix;
  }

  static UnitVector unit_vector(const geo::GeoPoint& p);
  // Padded squared chord of a `radius_km` great-circle arc; +inf once the
  // arc reaches half the globe.
  static double chord2_bound(double radius_km);

  void index_insert(NodeId id, Slot& slot);
  void index_remove(const Slot& slot);
  void erase_entry(NodeId id, const Slot& slot);

  SimDuration heartbeat_ttl_;
  std::unordered_map<NodeId, Slot> slots_;
  // Ordered so prefix queries are one lower_bound plus a range walk, and
  // visitation order is deterministic for a given upsert/remove history.
  std::map<std::string, Bucket, std::less<>> buckets_;
  std::vector<Slot*> fallback_;
  std::priority_queue<Deadline, std::vector<Deadline>, std::greater<Deadline>>
      deadlines_;
};

}  // namespace eden::manager
