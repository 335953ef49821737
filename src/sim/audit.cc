#include "sim/audit.h"

#include <cmath>
#include <limits>
#include <utility>

#include "geo/distance_metric.h"
#include "util/string_util.h"

namespace comx {

namespace {

void Add(std::vector<AuditViolation>* out, const char* oracle,
         std::string detail) {
  out->push_back(AuditViolation{oracle, std::move(detail)});
}

}  // namespace

std::vector<AuditViolation> AuditAssignments(const Instance& instance,
                                             const SimConfig& config,
                                             const SimResult& result) {
  std::vector<AuditViolation> out;
  const DistanceMetric& metric =
      config.metric != nullptr ? *config.metric : DefaultMetric();
  // Batch mode books at the window close, not the arrival: the log is
  // ordered by dispatch time, and a recycled worker is busy until
  // dispatch + service. The request-side time/range checks stay at r.time
  // (the engine builds window edges with arrival-time eligibility).
  const bool batch = config.batch_mode;
  const auto dispatch_of = [&config, batch](Timestamp t) {
    if (!batch || config.batch_window_seconds <= 0.0) return t;
    const double w = config.batch_window_seconds;
    return (std::floor(t / w) + 1.0) * w;
  };

  const size_t worker_count = instance.workers().size();
  const size_t request_count = instance.requests().size();
  std::vector<Timestamp> available_since(worker_count);
  std::vector<Point> location(worker_count);
  std::vector<char> busy(worker_count, 0);
  std::vector<Timestamp> busy_until(worker_count, 0.0);
  std::vector<char> served(request_count, 0);
  for (const Worker& w : instance.workers()) {
    available_since[static_cast<size_t>(w.id)] = w.time;
    location[static_cast<size_t>(w.id)] = w.location;
  }

  const int32_t platforms = instance.PlatformCount();
  std::vector<double> platform_revenue(static_cast<size_t>(platforms), 0.0);
  std::vector<int64_t> platform_completed(static_cast<size_t>(platforms), 0);
  std::vector<int64_t> platform_inner(static_cast<size_t>(platforms), 0);
  std::vector<int64_t> platform_outer(static_cast<size_t>(platforms), 0);
  double log_total = 0.0;
  Timestamp last_time = -std::numeric_limits<double>::infinity();

  for (size_t i = 0; i < result.matching.assignments.size(); ++i) {
    const Assignment& a = result.matching.assignments[i];
    if (a.request < 0 || a.request >= static_cast<RequestId>(request_count)) {
      Add(&out, "log-well-formed",
          StrFormat("assignment %zu references unknown request %lld", i,
                    static_cast<long long>(a.request)));
      return out;
    }
    if (a.worker < 0 || a.worker >= static_cast<WorkerId>(worker_count)) {
      Add(&out, "log-well-formed",
          StrFormat("assignment %zu references unknown worker %lld", i,
                    static_cast<long long>(a.worker)));
      return out;
    }
    const Request& r = instance.request(a.request);
    const Worker& w = instance.worker(a.worker);

    const Timestamp dispatch = dispatch_of(r.time);
    if (dispatch < last_time) {
      Add(&out, "log-well-formed",
          StrFormat("assignment %zu (request %lld) out of dispatch order", i,
                    static_cast<long long>(a.request)));
    }
    last_time = dispatch;

    // Invariable constraint: assignments are final — a request can never
    // be served twice.
    if (served[static_cast<size_t>(a.request)]) {
      Add(&out, "invariable-constraint",
          StrFormat("request %lld served twice",
                    static_cast<long long>(a.request)));
    }
    served[static_cast<size_t>(a.request)] = 1;

    // 1-by-1 constraint, per availability episode under recycling.
    auto& since = available_since[static_cast<size_t>(a.worker)];
    auto& loc = location[static_cast<size_t>(a.worker)];
    auto& is_busy = busy[static_cast<size_t>(a.worker)];
    auto& until = busy_until[static_cast<size_t>(a.worker)];
    if (is_busy) {
      if (!config.workers_recycle) {
        Add(&out, "one-by-one-constraint",
            StrFormat("worker %lld used twice without recycling",
                      static_cast<long long>(a.worker)));
      } else if (until > r.time + 1e-9) {
        // In batch mode a busy overlap means a window dispatch handed out a
        // worker whose previous service (running until `until`, past this
        // request's arrival) had not finished — the window solve violated
        // the deadline a one-by-one dispatch enforces by construction.
        Add(&out,
            batch ? "batch-window-never-violates-deadline"
                  : "one-by-one-constraint",
            StrFormat("worker %lld reassigned at t=%.6f while serving "
                      "until t=%.6f",
                      static_cast<long long>(a.worker), r.time, until));
      }
      since = until;
      is_busy = false;
    }
    // Time constraint: the worker must have arrived (or re-arrived).
    if (since > r.time + 1e-9) {
      Add(&out, "time-constraint",
          StrFormat("worker %lld (available %.6f) serves request %lld "
                    "arriving %.6f",
                    static_cast<long long>(a.worker), since,
                    static_cast<long long>(a.request), r.time));
    }
    // Range constraint against the worker's *current* location.
    const double pickup = metric.Distance(loc, r.location);
    if (pickup > w.radius + 1e-9) {
      Add(&out, "range-constraint",
          StrFormat("worker %lld at %.3f km from request %lld, radius %.3f",
                    static_cast<long long>(a.worker), pickup,
                    static_cast<long long>(a.request), w.radius));
    }

    // Inner/outer labelling and the outer payment interval (0, v_r].
    const bool is_outer = w.platform != r.platform;
    if (is_outer != a.is_outer) {
      Add(&out, "inner-outer-label",
          StrFormat("assignment %zu mislabels worker %lld", i,
                    static_cast<long long>(a.worker)));
    }
    double expected_revenue;
    if (is_outer) {
      if (!(a.outer_payment > 0.0) || a.outer_payment > r.value + 1e-9) {
        Add(&out, "outer-payment-range",
            StrFormat("payment %.9g outside (0, v=%.9g] for request %lld",
                      a.outer_payment, r.value,
                      static_cast<long long>(a.request)));
      }
      expected_revenue = r.value - a.outer_payment;
    } else {
      if (a.outer_payment != 0.0) {
        Add(&out, "outer-payment-range",
            StrFormat("inner assignment %zu carries payment %.9g", i,
                      a.outer_payment));
      }
      expected_revenue = r.value;
    }
    // Eq. 1, bit-exact: same operands, same operation as the simulator.
    if (a.revenue != expected_revenue) {
      Add(&out, "revenue-eq1",
          StrFormat("assignment %zu revenue %.17g != recomputed %.17g", i,
                    a.revenue, expected_revenue));
    }

    platform_revenue[static_cast<size_t>(r.platform)] += a.revenue;
    ++platform_completed[static_cast<size_t>(r.platform)];
    ++(is_outer ? platform_outer : platform_inner)[
        static_cast<size_t>(r.platform)];
    log_total += a.revenue;

    is_busy = true;
    until = dispatch + (config.workers_recycle
                            ? ServiceDurationSeconds(config, pickup, r.value)
                            : std::numeric_limits<double>::infinity());
    loc = r.location;
  }

  // Accounting identities, bit-exact where the accumulation order matches
  // the simulator's (per-platform in decision order; the matching total in
  // log order).
  if (log_total != result.matching.total_revenue) {
    Add(&out, "revenue-eq1",
        StrFormat("matching.total_revenue %.17g != log re-sum %.17g",
                  result.matching.total_revenue, log_total));
  }
  if (result.metrics.per_platform.size() !=
      static_cast<size_t>(platforms)) {
    Add(&out, "metrics-identities",
        StrFormat("metrics cover %zu platforms, instance has %d",
                  result.metrics.per_platform.size(), platforms));
    return out;
  }
  for (int32_t p = 0; p < platforms; ++p) {
    const PlatformMetrics& pm =
        result.metrics.per_platform[static_cast<size_t>(p)];
    if (platform_revenue[static_cast<size_t>(p)] != pm.revenue) {
      Add(&out, "revenue-eq1",
          StrFormat("platform %d metrics revenue %.17g != log re-sum %.17g",
                    p, pm.revenue, platform_revenue[static_cast<size_t>(p)]));
    }
    if (platform_completed[static_cast<size_t>(p)] != pm.completed ||
        platform_inner[static_cast<size_t>(p)] != pm.completed_inner ||
        platform_outer[static_cast<size_t>(p)] != pm.completed_outer) {
      Add(&out, "metrics-identities",
          StrFormat("platform %d completion counters disagree with log", p));
    }
    if (pm.completed + pm.rejected != instance.RequestCountOf(p)) {
      Add(&out, "metrics-identities",
          StrFormat("platform %d: completed %lld + rejected %lld != "
                    "requests %lld",
                    p, static_cast<long long>(pm.completed),
                    static_cast<long long>(pm.rejected),
                    static_cast<long long>(instance.RequestCountOf(p))));
    }
    if (pm.completed_outer > pm.outer_offers) {
      Add(&out, "metrics-identities",
          StrFormat("platform %d: %lld outer completions exceed %lld offers",
                    p, static_cast<long long>(pm.completed_outer),
                    static_cast<long long>(pm.outer_offers)));
    }
  }
  return out;
}

}  // namespace comx
