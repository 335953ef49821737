// Shared pool of currently-available workers across all platforms — the
// union of every platform's waiting list. A worker matched by any platform
// is removed everywhere at once (the paper: "an outer crowd worker being
// assigned to any request would be deleted from all its waiting lists over
// all platforms"). Workers that recycle re-enter at their drop-off point.
//
// Per-worker state lives in a kernels::WorkerSoA mirror (contiguous
// coordinate / radius² / platform / availability arrays) maintained
// incrementally on arrival / occupation events, so the feasibility scan and
// the batched distance path read dense arrays instead of chasing AoS
// Worker records.

#ifndef COMX_SIM_WORKER_POOL_H_
#define COMX_SIM_WORKER_POOL_H_

#include <vector>

#include "geo/distance_metric.h"
#include "geo/grid_index.h"
#include "kernels/worker_soa.h"
#include "model/instance.h"
#include "model/request.h"
#include "util/status.h"

namespace comx {

/// Dynamic availability state of every worker in an Instance.
class WorkerPool {
 public:
  /// Starts with every worker unavailable (they arrive via events).
  /// `metric` realizes the range constraint (nullptr = Euclidean); the
  /// grid index always pre-filters with the sound Euclidean lower bound.
  explicit WorkerPool(const Instance& instance,
                      const DistanceMetric* metric = nullptr);

  /// Makes worker `w` available at `location` from time `t` on. Errors with
  /// OutOfRange when `w` is not a worker of the instance and AlreadyExists
  /// when the worker is already available.
  Status OnArrival(WorkerId w, const Point& location, Timestamp t);

  /// Marks worker `w` occupied (removed from every waiting list). Errors
  /// with OutOfRange when `w` is not a worker of the instance and NotFound
  /// when the worker is not available — a double assignment therefore
  /// surfaces as NotFound, never as silent corruption.
  Status MarkOccupied(WorkerId w);

  /// True when the worker currently sits in the waiting lists. Out-of-range
  /// ids are simply not available.
  bool IsAvailable(WorkerId w) const {
    return InRange(w) && soa_.available()[static_cast<size_t>(w)] != 0;
  }

  /// Current location (drop-off point after recycling). Valid whenever the
  /// worker has arrived at least once.
  Point CurrentLocation(WorkerId w) const {
    return Point(soa_.x()[static_cast<size_t>(w)],
                 soa_.y()[static_cast<size_t>(w)]);
  }

  /// Time the worker last became available.
  Timestamp AvailableSince(WorkerId w) const {
    return soa_.available_since()[static_cast<size_t>(w)];
  }

  /// Available workers that can serve `r` under the time + range
  /// constraints, restricted to the given platform side: `inner` selects
  /// workers of `platform`, otherwise workers of every other platform.
  std::vector<WorkerId> FeasibleWorkers(const Request& r, PlatformId platform,
                                        bool inner) const;

  /// Travel distances from each worker in `ids` to `target`, in order.
  /// Under the Euclidean metric the coordinates are gathered from the SoA
  /// mirror and scored by the batched squared-distance kernel (sqrt applied
  /// per element afterwards, so each value is bit-identical to
  /// EuclideanDistance); other metrics fall back to a per-worker loop.
  void BatchDistances(const std::vector<WorkerId>& ids, const Point& target,
                      std::vector<double>* out) const;

  /// Number of currently available workers.
  size_t available_count() const { return index_.size(); }

  /// The metric realizing the range constraint.
  const DistanceMetric& metric() const { return *metric_; }

  /// The SoA mirror (read-only; batch staging for kernels).
  const kernels::WorkerSoA& soa() const { return soa_; }

 private:
  bool InRange(WorkerId w) const {
    return w >= 0 && static_cast<size_t>(w) < soa_.size();
  }

  const Instance* instance_;
  const DistanceMetric* metric_;
  GridIndex index_;
  kernels::WorkerSoA soa_;
  double max_radius_ = 0.0;
  bool euclidean_ = false;
};

}  // namespace comx

#endif  // COMX_SIM_WORKER_POOL_H_
