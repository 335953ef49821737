// Structure-of-arrays mirror of the live worker set, maintained
// incrementally alongside sim/WorkerPool. The matchers' hot path reads
// contiguous coordinate / radius² / platform / availability arrays instead
// of pointer-chasing AoS Worker records (whose inline history vectors make
// each record cache-hostile), and the batched kernels gather straight from
// these arrays. Value histories are not mirrored: each is stored once, in
// kernels/ecdf_batch.h (EcdfIndex), owned by the AcceptanceModel.

#ifndef COMX_KERNELS_WORKER_SOA_H_
#define COMX_KERNELS_WORKER_SOA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace comx {
namespace kernels {

/// Dense per-worker arrays indexed by worker id. Static fields (radius²,
/// platform) are set once at build; dynamic fields (position, availability
/// episode) change on arrival / occupation events.
class WorkerSoA {
 public:
  /// Sizes every array for `n` workers (all unavailable).
  void Reset(size_t n);

  /// Static per-worker attributes. `radius_km` is squared once here so the
  /// range test in the scan loop is a single compare against a cached
  /// product — the same radius*radius value the AoS path multiplied per
  /// probe.
  void SetStatic(size_t i, double radius_km, int32_t platform) {
    radius2_[i] = radius_km * radius_km;
    platform_[i] = platform;
  }

  /// Worker `i` becomes available at (x, y) from `since` on.
  void OnArrival(size_t i, double x, double y, double since) {
    x_[i] = x;
    y_[i] = y;
    available_since_[i] = since;
    available_[i] = 1;
  }

  /// Worker `i` leaves every waiting list.
  void OnOccupied(size_t i) { available_[i] = 0; }

  /// Seeds the position without making the worker available (initial
  /// instance locations).
  void SetPosition(size_t i, double x, double y) {
    x_[i] = x;
    y_[i] = y;
  }

  size_t size() const { return x_.size(); }

  const double* x() const { return x_.data(); }
  const double* y() const { return y_.data(); }
  const double* radius2() const { return radius2_.data(); }
  const int32_t* platform() const { return platform_.data(); }
  const double* available_since() const { return available_since_.data(); }
  const uint8_t* available() const { return available_.data(); }

  /// Gathers coordinates of `ids` into contiguous output buffers (batch
  /// staging for the distance kernels).
  void GatherXY(const int64_t* ids, size_t n, double* xs_out,
                double* ys_out) const {
    for (size_t i = 0; i < n; ++i) {
      const size_t w = static_cast<size_t>(ids[i]);
      xs_out[i] = x_[w];
      ys_out[i] = y_[w];
    }
  }

 private:
  std::vector<double> x_, y_;
  std::vector<double> radius2_;
  std::vector<int32_t> platform_;
  std::vector<double> available_since_;
  std::vector<uint8_t> available_;
};

}  // namespace kernels
}  // namespace comx

#endif  // COMX_KERNELS_WORKER_SOA_H_
