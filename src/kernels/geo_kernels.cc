// Public kernel entry points (dispatch trampolines) and the scalar backend.
// The scalar loops below are the reference semantics: the AVX2 backend
// mirrors SquaredDistanceExpr with one intrinsic per arithmetic node
// (mul/add/sub only — never FMA), lane for lane, and calls these loops on
// its tails, so there is a single source of truth for the math.

#include "kernels/geo_kernels.h"

#include "kernels/backends.h"

namespace comx {
namespace kernels {
namespace internal {
namespace {

// (x - cx)^2 + (y - cy)^2 — the exact expression GridIndex and
// geo::SquaredDistance evaluate, node for node.
inline double SquaredDistanceExpr(double x, double y, double cx, double cy) {
  const double dx = x - cx;
  const double dy = y - cy;
  return dx * dx + dy * dy;
}

}  // namespace

void ScalarBatchSquaredDistance(const double* xs, const double* ys, size_t n,
                                double cx, double cy, double* d2_out) {
  for (size_t i = 0; i < n; ++i) {
    d2_out[i] = SquaredDistanceExpr(xs[i], ys[i], cx, cy);
  }
}

size_t ScalarFilterInRange(const double* xs, const double* ys,
                           const double* radius2, size_t n, double cx,
                           double cy, double range2, int32_t* idx_out,
                           double* d2_out) {
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    const double d2 = SquaredDistanceExpr(xs[i], ys[i], cx, cy);
    if (d2 <= range2 && (radius2 == nullptr || d2 <= radius2[i])) {
      idx_out[out] = static_cast<int32_t>(i);
      d2_out[out] = d2;
      ++out;
    }
  }
  return out;
}

}  // namespace internal

void BatchSquaredDistance(const double* xs, const double* ys, size_t n,
                          double cx, double cy, double* d2_out) {
  internal::Active().batch_squared_distance(xs, ys, n, cx, cy, d2_out);
}

size_t FilterInRange(const double* xs, const double* ys,
                     const double* radius2, size_t n, double cx, double cy,
                     double range2, int32_t* idx_out, double* d2_out) {
  return internal::Active().filter_in_range(xs, ys, radius2, n, cx, cy,
                                            range2, idx_out, d2_out);
}

}  // namespace kernels
}  // namespace comx
