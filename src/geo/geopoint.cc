#include "geo/geopoint.h"

#include <cmath>
#include <numbers>

namespace eden::geo {
namespace {
constexpr double kKmPerMile = 1.609344;

double radians(double deg) { return deg * std::numbers::pi / 180.0; }
}  // namespace

double haversine_km(const GeoPoint& a, const GeoPoint& b) {
  const double dlat = radians(b.lat - a.lat);
  const double dlon = radians(b.lon - a.lon);
  const double s = std::sin(dlat / 2) * std::sin(dlat / 2) +
                   std::cos(radians(a.lat)) * std::cos(radians(b.lat)) *
                       std::sin(dlon / 2) * std::sin(dlon / 2);
  return 2.0 * kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(s)));
}

double distance_miles(const GeoPoint& a, const GeoPoint& b) {
  return haversine_km(a, b) / kKmPerMile;
}

}  // namespace eden::geo
