#include "sim/worker_pool.h"

#include <algorithm>
#include <cmath>

#include "geo/distance.h"
#include "kernels/geo_kernels.h"
#include "util/string_util.h"

namespace comx {

WorkerPool::WorkerPool(const Instance& instance, const DistanceMetric* metric)
    : instance_(&instance),
      metric_(metric != nullptr ? metric : &DefaultMetric()),
      index_(/*cell_size_km=*/1.0),
      euclidean_(false) {
  soa_.Reset(instance.workers().size());
  for (const Worker& w : instance.workers()) {
    max_radius_ = std::max(max_radius_, w.radius);
    const size_t i = static_cast<size_t>(w.id);
    soa_.SetStatic(i, w.radius, static_cast<int32_t>(w.platform));
    soa_.SetPosition(i, w.location.x, w.location.y);
  }
  euclidean_ = metric_->name() == "euclidean";
}

Status WorkerPool::OnArrival(WorkerId w, const Point& location, Timestamp t) {
  if (!InRange(w)) {
    return Status::OutOfRange(
        StrFormat("worker id %lld outside [0, %zu)",
                  static_cast<long long>(w), soa_.size()));
  }
  if (soa_.available()[static_cast<size_t>(w)] != 0) {
    return Status::AlreadyExists("worker already in waiting list");
  }
  COMX_RETURN_IF_ERROR(index_.Insert(w, location));
  soa_.OnArrival(static_cast<size_t>(w), location.x, location.y, t);
  return Status::OK();
}

Status WorkerPool::MarkOccupied(WorkerId w) {
  if (!InRange(w)) {
    return Status::OutOfRange(
        StrFormat("worker id %lld outside [0, %zu)",
                  static_cast<long long>(w), soa_.size()));
  }
  if (soa_.available()[static_cast<size_t>(w)] == 0) {
    return Status::NotFound("worker not in waiting list");
  }
  COMX_RETURN_IF_ERROR(index_.Remove(w));
  soa_.OnOccupied(static_cast<size_t>(w));
  return Status::OK();
}

std::vector<WorkerId> WorkerPool::FeasibleWorkers(const Request& r,
                                                  PlatformId platform,
                                                  bool inner) const {
  std::vector<WorkerId> out;
  const int32_t* platforms = soa_.platform();
  const double* since = soa_.available_since();
  const double* radius2 = soa_.radius2();
  index_.ForEachInRadius(
      r.location, max_radius_, [&](int64_t id, double d2) {
        const size_t i = static_cast<size_t>(id);
        const bool same = platforms[i] == static_cast<int32_t>(platform);
        if (inner != same) return;
        // Time constraint against the *current* availability episode.
        if (since[i] > r.time) return;
        // Range constraint against the worker's own radius: the cached
        // radius² compare *is* the Euclidean WithinRange test (same d2,
        // same radius*radius product), so under the Euclidean metric no
        // further check is needed; non-Euclidean metrics still confirm
        // against true travel distance.
        if (d2 > radius2[i]) return;
        if (!euclidean_ &&
            !metric_->WithinRange(CurrentLocation(id), r.location,
                                  instance_->worker(id).radius)) {
          return;
        }
        out.push_back(id);
      });
  // Deterministic order regardless of hash-map iteration.
  std::sort(out.begin(), out.end());
  return out;
}

void WorkerPool::BatchDistances(const std::vector<WorkerId>& ids,
                                const Point& target,
                                std::vector<double>* out) const {
  const size_t n = ids.size();
  out->resize(n);
  if (!euclidean_) {
    for (size_t i = 0; i < n; ++i) {
      (*out)[i] = metric_->Distance(CurrentLocation(ids[i]), target);
    }
    return;
  }
  constexpr size_t kChunk = 256;
  double xs[kChunk];
  double ys[kChunk];
  for (size_t base = 0; base < n; base += kChunk) {
    const size_t m = std::min(kChunk, n - base);
    soa_.GatherXY(ids.data() + base, m, xs, ys);
    kernels::BatchSquaredDistance(xs, ys, m, target.x, target.y,
                                  out->data() + base);
    for (size_t j = 0; j < m; ++j) {
      (*out)[base + j] = std::sqrt((*out)[base + j]);
    }
  }
}

}  // namespace comx
