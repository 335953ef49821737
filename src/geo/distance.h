// Distance functions between planar points (km).

#ifndef COMX_GEO_DISTANCE_H_
#define COMX_GEO_DISTANCE_H_

#include "geo/point.h"

namespace comx {

/// Euclidean distance in km between two planar points.
double EuclideanDistance(const Point& a, const Point& b);

/// Squared Euclidean distance; avoids the sqrt for comparisons.
double SquaredDistance(const Point& a, const Point& b);

/// True when `b` lies within `radius_km` of `a` (inclusive boundary).
bool WithinRadius(const Point& a, const Point& b, double radius_km);

}  // namespace comx

#endif  // COMX_GEO_DISTANCE_H_
