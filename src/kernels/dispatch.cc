#include "kernels/dispatch.h"

#include <atomic>

#include "kernels/backends.h"

namespace comx {
namespace kernels {
namespace internal {
namespace {

constexpr KernelTable kScalarTable = {
    &ScalarBatchSquaredDistance,
    &ScalarFilterInRange,
};

#if defined(COMX_KERNELS_HAVE_AVX2)
constexpr KernelTable kAvx2Table = {
    &Avx2BatchSquaredDistance,
    &Avx2FilterInRange,
};
#endif

// Published once on first use; ForceBackendForTesting/ResetDispatch swap
// it between whole-table pointers, so readers always see a consistent set.
std::atomic<const KernelTable*> g_active{nullptr};

const KernelTable* Resolve() {
  return TableFor(Avx2Supported() ? Backend::kAvx2 : Backend::kScalar);
}

}  // namespace

const KernelTable* TableFor(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return &kScalarTable;
    case Backend::kAvx2:
#if defined(COMX_KERNELS_HAVE_AVX2)
      if (Avx2Supported()) return &kAvx2Table;
#endif
      return nullptr;
  }
  return nullptr;
}

const KernelTable& Active() {
  const KernelTable* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    table = Resolve();
    g_active.store(table, std::memory_order_release);
  }
  return *table;
}

}  // namespace internal

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool Avx2Supported() {
#if defined(COMX_KERNELS_HAVE_AVX2)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

Backend ActiveBackend() {
  const internal::KernelTable& table = internal::Active();
  return &table == internal::TableFor(Backend::kScalar) ? Backend::kScalar
                                                        : Backend::kAvx2;
}

bool ForceBackendForTesting(Backend backend) {
  const internal::KernelTable* table = internal::TableFor(backend);
  if (table == nullptr) return false;
  internal::g_active.store(table, std::memory_order_release);
  return true;
}

void ResetDispatchForTesting() {
  internal::g_active.store(internal::Resolve(), std::memory_order_release);
}

}  // namespace kernels
}  // namespace comx
