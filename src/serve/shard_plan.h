// Geo-sharding plan: splits one day-scale Instance into N longitude stripes,
// each a self-contained sub-instance a shard-local SimEngine can consume.
//
// The split is by entity location only (workers and requests are assigned to
// the stripe containing their x coordinate), so a shard owns every decision
// about its own requests and never needs a peer's state — decisions are
// embarrassingly parallel ACROSS shards while staying strictly ordered
// WITHIN one. The price is that a worker whose service radius crosses a
// stripe boundary is only visible to its home shard. On instances whose
// demand clusters are separated by more than the worker radius, TOTA's
// sharded totals equal its single-shard totals exactly (tests/serve asserts
// this). DemCOM and RamCOM differ even there: each platform's matcher draws
// from one RNG stream that every shard restarts, and RamCOM's theta comes
// from the shard's sub-instance. On arbitrary instances every algorithm's
// sharded totals are a documented approximation.
//
// With shards == 1 the plan is a verbatim copy of the input — same entity
// ids, same event sequence numbers — so a one-shard service is bit-identical
// to RunSimulation() by construction, not by luck.

#ifndef COMX_SERVE_SHARD_PLAN_H_
#define COMX_SERVE_SHARD_PLAN_H_

#include <cstdint>
#include <vector>

#include "model/instance.h"
#include "util/result.h"

namespace comx {
namespace serve {

/// Routing table from the global event stream onto per-shard streams.
struct ShardPlan {
  int32_t shards = 1;

  /// One sub-instance per shard. Entities keep their platform, time,
  /// location, value, and history; ids are renumbered dense per shard in
  /// ascending global-id order, so id-based tie-breaking inside a shard is
  /// order-isomorphic to the global instance. Each sub-instance event
  /// stream is the global stream filtered to the shard with sequence
  /// numbers renumbered 0..n_k-1 in stream order (relative order
  /// preserved).
  std::vector<Instance> instances;

  /// Per global event index: the owning shard...
  std::vector<int32_t> shard_of_event;
  /// ...and the event's index in that shard's local stream.
  std::vector<int64_t> local_index_of_event;

  /// Per shard, local dense id -> global dense id (for reporting).
  std::vector<std::vector<WorkerId>> global_worker_of;
  std::vector<std::vector<RequestId>> global_request_of;
};

/// Builds the plan. `shards` >= 1; shards exceeding the entity count yield
/// empty sub-instances, which the service treats as trivially drained.
/// InvalidArgument when shards < 1, or when `instance` fails Validate().
Result<ShardPlan> PartitionInstance(const Instance& instance, int32_t shards);

}  // namespace serve
}  // namespace comx

#endif  // COMX_SERVE_SHARD_PLAN_H_
