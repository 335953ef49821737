// Instance: one complete COM problem — the workers and requests of every
// participating platform plus the interleaved arrival order. All algorithms
// (TOTA, DemCOM, RamCOM, OFF) consume an Instance.

#ifndef COMX_MODEL_INSTANCE_H_
#define COMX_MODEL_INSTANCE_H_

#include <string>
#include <vector>

#include "model/event.h"
#include "model/request.h"
#include "model/worker.h"
#include "util/result.h"
#include "util/status.h"

namespace comx {

/// A complete problem instance.
///
/// Entities are stored densely: `workers[i].id == i` and
/// `requests[j].id == j`. The event stream interleaves all arrivals in
/// non-decreasing time order; BuildEvents() derives it from the entity
/// timestamps when the dataset does not carry an explicit order.
class Instance {
 public:
  Instance() = default;

  /// Appends a worker; assigns and returns its dense id.
  WorkerId AddWorker(Worker worker);

  /// Appends a request; assigns and returns its dense id.
  RequestId AddRequest(Request request);

  /// Rebuilds the event stream from entity timestamps, ties broken by
  /// insertion order (workers and requests interleaved by `sequence`).
  void BuildEvents();

  /// Replaces the event stream with an explicit order. The order must cover
  /// each entity exactly once; Validate() checks this.
  void SetEvents(std::vector<Event> events);

  /// Full consistency check: dense ids, per-entity validity, events sorted
  /// and covering each entity exactly once.
  Status Validate() const;

  /// Number of platforms = 1 + max platform id seen (0 when empty).
  /// O(workers + requests): it scans every entity, so set-up code calls it
  /// once and per-step code (SimEngine::Step and below) must not call it.
  int32_t PlatformCount() const;

  /// Largest request value (0 when there are no requests). Used by RamCOM's
  /// threshold theta = ceil(ln(max v + 1)).
  double MaxRequestValue() const;

  /// Count of requests belonging to `platform`.
  int64_t RequestCountOf(PlatformId platform) const;

  /// Count of workers belonging to `platform`.
  int64_t WorkerCountOf(PlatformId platform) const;

  const std::vector<Worker>& workers() const { return workers_; }
  const std::vector<Request>& requests() const { return requests_; }
  const std::vector<Event>& events() const { return events_; }

  const Worker& worker(WorkerId id) const { return workers_[id]; }
  const Request& request(RequestId id) const { return requests_[id]; }

  /// Mutable access used by generators that post-process entities.
  Worker* mutable_worker(WorkerId id) { return &workers_[id]; }
  Request* mutable_request(RequestId id) { return &requests_[id]; }

  /// Summary line for logs: counts per platform.
  std::string Summary() const;

 private:
  std::vector<Worker> workers_;
  std::vector<Request> requests_;
  std::vector<Event> events_;
};

}  // namespace comx

#endif  // COMX_MODEL_INSTANCE_H_
