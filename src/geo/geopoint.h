// Geographic coordinates and great-circle distance.
#pragma once

namespace eden::geo {

// Mean Earth radius (km) of the sphere every distance in EDEN is measured
// on; anything that bounds haversine_km must use the same sphere.
inline constexpr double kEarthRadiusKm = 6371.0088;

struct GeoPoint {
  double lat{0};  // degrees, [-90, 90]
  double lon{0};  // degrees, [-180, 180)

  bool operator==(const GeoPoint&) const = default;
};

// Great-circle distance in kilometres (haversine, mean Earth radius).
[[nodiscard]] double haversine_km(const GeoPoint& a, const GeoPoint& b);

// Convenience: distance in miles (the paper quotes miles).
[[nodiscard]] double distance_miles(const GeoPoint& a, const GeoPoint& b);

}  // namespace eden::geo
