#include "core/offline_opt.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <unordered_map>

#include "geo/grid_index.h"
#include "matching/hungarian.h"
#include "matching/incremental_km.h"
#include "model/constraints.h"
#include "pricing/acceptance_model.h"
#include "util/string_util.h"

namespace comx {

Result<BipartiteGraph> BuildOfflineGraph(const Instance& instance,
                                         PlatformId target,
                                         const OfflineConfig& config,
                                         std::vector<RequestId>* request_ids,
                                         std::vector<double>* edge_payments) {
  request_ids->clear();
  edge_payments->clear();
  for (const Request& r : instance.requests()) {
    if (r.platform == target) request_ids->push_back(r.id);
  }

  // Spatial index over worker locations; the query radius is the largest
  // service radius, individual workers re-checked against their own.
  double max_radius = 0.0;
  GridIndex index(/*cell_size_km=*/1.0);
  for (const Worker& w : instance.workers()) {
    max_radius = std::max(max_radius, w.radius);
    COMX_RETURN_IF_ERROR(index.Insert(w.id, w.location));
  }

  const std::vector<double> rho =
      DrawWorkerReservations(instance, config.seed);
  const DistanceMetric& metric =
      config.metric != nullptr ? *config.metric : DefaultMetric();

  BipartiteGraph graph(static_cast<int32_t>(request_ids->size()),
                       static_cast<int32_t>(instance.workers().size()));
  for (size_t li = 0; li < request_ids->size(); ++li) {
    const Request& r = instance.request((*request_ids)[li]);
    // Grid lookup is a sound Euclidean pre-filter for any metric.
    for (WorkerId wid : index.QueryRadius(r.location, max_radius)) {
      const Worker& w = instance.worker(wid);
      if (w.time > r.time) continue;  // time constraint
      if (!metric.WithinRange(w.location, r.location, w.radius)) continue;
      if (w.platform == target) {
        COMX_RETURN_IF_ERROR(graph.AddEdge(static_cast<int32_t>(li),
                                           static_cast<int32_t>(wid),
                                           r.value));
        edge_payments->push_back(0.0);
      } else if (config.allow_outer) {
        const double payment = rho[static_cast<size_t>(wid)];
        const double weight = r.value - payment;
        if (weight <= 0.0) continue;  // borrowing would lose money
        COMX_RETURN_IF_ERROR(graph.AddEdge(static_cast<int32_t>(li),
                                           static_cast<int32_t>(wid),
                                           weight));
        edge_payments->push_back(payment);
      }
    }
  }
  return graph;
}

namespace {

// Day-scale relaxed bound (see OfflineConfig::worker_capacity):
// range constraints dropped; inner service = unit slots released K-at-a-
// time by worker arrivals, chosen by the exact matroid greedy (requests by
// descending value, each taking the latest free slot released before its
// arrival — the classic deadline-scheduling union-find); leftover requests
// are paired with the cheapest outer reservations (time-unconstrained,
// which only raises the bound).
OfflineSolution SolveRelaxed(const Instance& instance, PlatformId target,
                             const OfflineConfig& config) {
  OfflineSolution solution;
  solution.solver = "relaxed";

  const std::vector<double> rho =
      DrawWorkerReservations(instance, config.seed);

  // Inner slots: (time, worker) sorted by time, K per worker.
  struct Slot {
    Timestamp time;
    WorkerId worker;
  };
  std::vector<Slot> slots;
  std::vector<std::pair<double, WorkerId>> outer_res;  // (rho, worker)
  for (const Worker& w : instance.workers()) {
    if (w.platform == target) {
      for (int32_t k = 0; k < config.worker_capacity; ++k) {
        slots.push_back(Slot{w.time, w.id});
      }
    } else if (config.allow_outer &&
               std::isfinite(rho[static_cast<size_t>(w.id)])) {
      for (int32_t k = 0; k < config.worker_capacity; ++k) {
        outer_res.emplace_back(rho[static_cast<size_t>(w.id)], w.id);
      }
    }
  }
  std::sort(slots.begin(), slots.end(),
            [](const Slot& a, const Slot& b) { return a.time < b.time; });
  std::sort(outer_res.begin(), outer_res.end());

  // Requests by descending value.
  std::vector<RequestId> by_value;
  for (const Request& r : instance.requests()) {
    if (r.platform == target) by_value.push_back(r.id);
  }
  std::sort(by_value.begin(), by_value.end(), [&](RequestId a, RequestId b) {
    return instance.request(a).value > instance.request(b).value;
  });

  // Union-find over slot indices: Find(i) = largest free slot index <= i.
  std::vector<int64_t> parent(slots.size() + 1);
  for (size_t i = 0; i < parent.size(); ++i) {
    parent[i] = static_cast<int64_t>(i);
  }
  std::function<int64_t(int64_t)> find = [&](int64_t x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  };

  std::vector<RequestId> leftovers;
  for (RequestId rid : by_value) {
    const Request& r = instance.request(rid);
    // Largest slot index with slot.time <= r.time.
    const auto it = std::upper_bound(
        slots.begin(), slots.end(), r.time,
        [](Timestamp t, const Slot& s) { return t < s.time; });
    const int64_t bound = static_cast<int64_t>(it - slots.begin());
    const int64_t slot = find(bound) - 1;  // 1-based free pointer
    if (slot < 0) {
      leftovers.push_back(rid);
      continue;
    }
    parent[static_cast<size_t>(slot + 1)] = slot;  // consume
    Assignment a;
    a.request = rid;
    a.worker = slots[static_cast<size_t>(slot)].worker;
    a.is_outer = false;
    a.revenue = r.value;
    solution.matching.Add(a);
  }

  // Leftovers (already in descending value) against ascending reservations.
  std::sort(leftovers.begin(), leftovers.end(),
            [&](RequestId a, RequestId b) {
              return instance.request(a).value > instance.request(b).value;
            });
  size_t res_idx = 0;
  for (RequestId rid : leftovers) {
    if (res_idx >= outer_res.size()) break;
    const Request& r = instance.request(rid);
    const auto& [payment, worker] = outer_res[res_idx];
    if (r.value - payment <= 0.0) continue;  // later requests are cheaper
    ++res_idx;
    Assignment a;
    a.request = rid;
    a.worker = worker;
    a.is_outer = true;
    a.outer_payment = payment;
    a.revenue = r.value - payment;
    solution.matching.Add(a);
  }
  return solution;
}

}  // namespace

Result<OfflineSolution> SolveOffline(const Instance& instance,
                                     PlatformId target,
                                     const OfflineConfig& config) {
  if (config.worker_capacity < 1) {
    return Status::InvalidArgument(StrFormat(
        "worker_capacity must be >= 1, got %d", config.worker_capacity));
  }
  if (config.worker_capacity > 1) {
    return SolveRelaxed(instance, target, config);
  }
  std::vector<RequestId> request_ids;
  std::vector<double> edge_payments;
  COMX_ASSIGN_OR_RETURN(
      BipartiteGraph graph,
      BuildOfflineGraph(instance, target, config, &request_ids,
                        &edge_payments));

  OfflineSolution solution;
  solution.edge_count = static_cast<int64_t>(graph.edges().size());

  BipartiteMatching matched;
  const int64_t cells = static_cast<int64_t>(graph.left_count()) *
                        static_cast<int64_t>(graph.right_count());
  if (cells <= config.dense_cell_limit) {
    COMX_ASSIGN_OR_RETURN(matched, HungarianMaxWeight(graph));
    solution.solver = "hungarian";
  } else {
    // Exact at any scale: the incremental KM touches only the grid-pruned
    // candidate edges, so the 100k-request OFF rows (and hence the
    // empirical CR curves) no longer fall back to approximate solvers.
    COMX_ASSIGN_OR_RETURN(matched, IncrementalKmMaxWeight(graph));
    solution.solver = "incremental_km";
  }

  // Recover per-pair payment/weight: keep the best-weight edge per pair,
  // matching what every solver credits.
  std::unordered_map<int64_t, std::pair<double, double>> best;  // w, payment
  best.reserve(graph.edges().size());
  for (size_t ei = 0; ei < graph.edges().size(); ++ei) {
    const BipartiteEdge& e = graph.edges()[ei];
    const int64_t key = (static_cast<int64_t>(e.left) << 32) | e.right;
    auto [it, inserted] =
        best.try_emplace(key, e.weight, edge_payments[ei]);
    if (!inserted && e.weight > it->second.first) {
      it->second = {e.weight, edge_payments[ei]};
    }
  }

  for (int32_t l = 0; l < graph.left_count(); ++l) {
    const int32_t w = matched.match_of_left[static_cast<size_t>(l)];
    if (w < 0) continue;
    const int64_t key = (static_cast<int64_t>(l) << 32) | w;
    const auto& [weight, payment] = best.at(key);
    Assignment a;
    a.request = request_ids[static_cast<size_t>(l)];
    a.worker = static_cast<WorkerId>(w);
    a.is_outer = instance.worker(a.worker).platform != target;
    a.outer_payment = payment;
    a.revenue = weight;
    solution.matching.Add(a);
  }
  return solution;
}

}  // namespace comx
