// Internal: backend entry points wired into the dispatch table. The scalar
// functions are also called directly by the AVX2 backend for loop tails.

#ifndef COMX_KERNELS_BACKENDS_H_
#define COMX_KERNELS_BACKENDS_H_

#include <cstddef>
#include <cstdint>

namespace comx {
namespace kernels {
namespace internal {

void ScalarBatchSquaredDistance(const double* xs, const double* ys, size_t n,
                                double cx, double cy, double* d2_out);
size_t ScalarFilterInRange(const double* xs, const double* ys,
                           const double* radius2, size_t n, double cx,
                           double cy, double range2, int32_t* idx_out,
                           double* d2_out);

#if defined(COMX_KERNELS_HAVE_AVX2)
void Avx2BatchSquaredDistance(const double* xs, const double* ys, size_t n,
                              double cx, double cy, double* d2_out);
size_t Avx2FilterInRange(const double* xs, const double* ys,
                         const double* radius2, size_t n, double cx,
                         double cy, double range2, int32_t* idx_out,
                         double* d2_out);
#endif  // COMX_KERNELS_HAVE_AVX2

}  // namespace internal
}  // namespace kernels
}  // namespace comx

#endif  // COMX_KERNELS_BACKENDS_H_
