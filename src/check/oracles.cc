#include "check/oracles.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/brute_force.h"
#include "core/offline_opt.h"
#include "core/ram_com.h"
#include "matching/hungarian.h"
#include "matching/incremental_km.h"
#include "util/string_util.h"

namespace comx {
namespace check {

namespace {

void Add(std::vector<OracleViolation>* out, const char* oracle,
         std::string detail) {
  out->push_back(OracleViolation{oracle, std::move(detail)});
}

// Decision-trace oracles: the trace is the harness's view into what the
// matcher saw while deciding, so the per-policy contracts live here.
void CheckTrace(const MatcherRunRecord& run,
                std::vector<OracleViolation>* out) {
  const Instance& ins = *run.instance;
  const int32_t platforms = ins.PlatformCount();
  const std::vector<obs::TraceEvent>& events = *run.trace;

  if (static_cast<int64_t>(events.size()) !=
      static_cast<int64_t>(ins.requests().size())) {
    Add(out, "trace-complete",
        StrFormat("trace has %zu decisions for %zu requests", events.size(),
                  ins.requests().size()));
  }

  // RamCOM threshold set: every platform's drawn threshold must be e^k for
  // an integer arm k in {0, ..., theta-1}, theta = ceil(ln(max v + 1))
  // (the repo draws {e^0..e^(theta-1)}; see the Reset() comment in
  // core/ram_com.cc for why Algorithm 3's literal {e^1..e^theta} is not
  // used).
  if (run.kind == MatcherKind::kRamCom) {
    const int64_t theta = RamCom::ThetaFor(ins.MaxRequestValue());
    for (size_t p = 0; p < run.ram_thresholds.size(); ++p) {
      const double threshold = run.ram_thresholds[p];
      const double k = std::log(threshold);
      const double k_round = std::round(k);
      if (!(threshold > 0.0) || std::abs(k - k_round) > 1e-9 ||
          k_round < 0.0 || k_round > static_cast<double>(theta - 1)) {
        Add(out, "ram-threshold-set",
            StrFormat("platform %zu threshold %.9g is not e^k with "
                      "0 <= k <= theta-1 = %lld",
                      p, threshold, static_cast<long long>(theta - 1)));
      }
    }
  }

  std::vector<double> platform_revenue(static_cast<size_t>(platforms), 0.0);
  int64_t last_seq = -1;
  for (const obs::TraceEvent& ev : events) {
    if (ev.seq != last_seq + 1) {
      Add(out, "trace-complete",
          StrFormat("decision seq jumps from %lld to %lld",
                    static_cast<long long>(last_seq),
                    static_cast<long long>(ev.seq)));
    }
    last_seq = ev.seq;
    if (ev.platform < 0 || ev.platform >= platforms) {
      Add(out, "trace-complete",
          StrFormat("decision %lld names unknown platform %d",
                    static_cast<long long>(ev.seq), ev.platform));
      continue;
    }
    if (ev.outcome != "reject") {
      platform_revenue[static_cast<size_t>(ev.platform)] += ev.revenue;
    }
    if (ev.outcome == "outer") {
      // The payment charged must be exactly the payment the pricer quoted
      // (Algorithm 2 estimate / MER argmax) — fault fallbacks may swap the
      // worker but never the price.
      if (ev.payment != ev.estimated_payment) {
        Add(out, "quoted-payment-consistent",
            StrFormat("decision %lld charged %.17g but quoted %.17g",
                      static_cast<long long>(ev.seq), ev.payment,
                      ev.estimated_payment));
      }
    }

    switch (run.kind) {
      case MatcherKind::kTota:
        if (ev.outcome == "outer") {
          Add(out, "tota-no-outer",
              StrFormat("TOTA decision %lld borrowed a worker",
                        static_cast<long long>(ev.seq)));
        }
        break;
      case MatcherKind::kDemCom:
        // Algorithm 1 lines 3-6: inner workers take absolute priority, so
        // any non-inner outcome implies the inner probe came back empty.
        if (ev.outcome != "inner" && ev.inner_candidates != 0) {
          Add(out, "dem-inner-first",
              StrFormat("decision %lld went '%s' with %d feasible inner "
                        "workers",
                        static_cast<long long>(ev.seq), ev.outcome.c_str(),
                        ev.inner_candidates));
        }
        break;
      case MatcherKind::kRamCom: {
        if (static_cast<size_t>(ev.platform) >= run.ram_thresholds.size()) {
          break;
        }
        const double threshold =
            run.ram_thresholds[static_cast<size_t>(ev.platform)];
        if (ev.outcome == "inner") {
          // Algorithm 3 serves inner workers only on the high-value arm.
          if (!(ev.value > threshold)) {
            Add(out, "ram-threshold-respected",
                StrFormat("decision %lld served inner at value %.9g <= "
                          "threshold %.9g",
                          static_cast<long long>(ev.seq), ev.value,
                          threshold));
          }
        } else if (ev.value > threshold && ev.inner_candidates != 0) {
          // A high-value request may only fall through to the cooperative
          // path when no inner worker was free (Example 3).
          Add(out, "ram-threshold-respected",
              StrFormat("decision %lld (value %.9g > threshold %.9g) went "
                        "'%s' with %d inner candidates",
                        static_cast<long long>(ev.seq), ev.value, threshold,
                        ev.outcome.c_str(), ev.inner_candidates));
        } else if (ev.value <= threshold && ev.inner_candidates != -1) {
          // Low-value requests must never probe the inner fleet at all.
          Add(out, "ram-threshold-respected",
              StrFormat("decision %lld (value %.9g <= threshold %.9g) "
                        "probed inner workers",
                        static_cast<long long>(ev.seq), ev.value,
                        threshold));
        }
        break;
      }
      case MatcherKind::kBatch:
        // Batch dispatch has no per-policy trace contract: windows may
        // freely mix inner and outer service. The shared checks above
        // (completeness, quoted payments, revenue replay) still apply.
        break;
    }
  }

  // The trace is self-checking: revenue re-derived from the decision lines
  // must equal the recorded SimResult bit-exactly (the accumulation order
  // matches the simulator's).
  for (int32_t p = 0; p < platforms; ++p) {
    const double recorded =
        run.result->metrics.per_platform[static_cast<size_t>(p)].revenue;
    if (platform_revenue[static_cast<size_t>(p)] != recorded) {
      Add(out, "trace-revenue-replay",
          StrFormat("platform %d trace re-sum %.17g != recorded %.17g", p,
                    platform_revenue[static_cast<size_t>(p)], recorded));
    }
  }
  if (run.trace_summary != nullptr) {
    double total = 0.0;
    for (double r : platform_revenue) total += r;
    if (run.trace_summary->total_revenue != total) {
      Add(out, "trace-revenue-replay",
          StrFormat("summary total %.17g != trace re-sum %.17g",
                    run.trace_summary->total_revenue, total));
    }
    if (run.trace_summary->assignments !=
        static_cast<int64_t>(run.result->matching.assignments.size())) {
      Add(out, "trace-complete", "summary assignment count disagrees");
    }
  }

  // TOTA must also never *offer* outward, which the trace cannot show for
  // rejects — the metrics can.
  if (run.kind == MatcherKind::kTota) {
    for (size_t p = 0; p < run.result->metrics.per_platform.size(); ++p) {
      const PlatformMetrics& pm = run.result->metrics.per_platform[p];
      if (pm.outer_offers != 0 || pm.completed_outer != 0) {
        Add(out, "tota-no-outer",
            StrFormat("platform %zu recorded %lld outer offers", p,
                      static_cast<long long>(pm.outer_offers)));
      }
    }
  }
}

}  // namespace

std::vector<OracleViolation> CheckConstraintOracles(
    const MatcherRunRecord& run, const OracleOptions& /*options*/) {
  if (run.instance == nullptr || run.result == nullptr ||
      run.scenario == nullptr) {
    return {OracleViolation{
        "harness", "MatcherRunRecord missing instance/result/scenario"}};
  }
  std::vector<OracleViolation> out = AuditAssignments(
      *run.instance,
      run.scenario->MakeSimConfig(nullptr, run.kind == MatcherKind::kBatch),
      *run.result);
  if (run.trace != nullptr) CheckTrace(run, &out);
  return out;
}

std::vector<OracleViolation> CheckDifferentialOracles(
    const MatcherRunRecord& run, const OracleOptions& options,
    DifferentialCounts* counted) {
  std::vector<OracleViolation> out;
  if (run.instance == nullptr || run.result == nullptr ||
      run.scenario == nullptr) {
    return out;
  }
  const Instance& ins = *run.instance;
  if (!run.scenario->DifferentialEligible()) return out;
  const int64_t entities = static_cast<int64_t>(ins.workers().size()) +
                           static_cast<int64_t>(ins.requests().size());
  if (entities == 0 || entities > options.differential_max_entities) {
    return out;
  }

  OfflineConfig off;
  // OFF must see exactly the reservation realization the simulator used —
  // that is what makes online <= OFF a theorem rather than a tendency.
  off.seed = run.scenario->reservation_seed;
  const int32_t platforms = ins.PlatformCount();
  for (PlatformId p = 0; p < platforms; ++p) {
    auto solution = SolveOffline(ins, p, off);
    if (!solution.ok()) {
      Add(&out, "off-upper-bound",
          StrFormat("SolveOffline failed for platform %d: %s", p,
                    solution.status().ToString().c_str()));
      continue;
    }
    if (counted != nullptr) ++counted->off_bounds;
    const double online =
        run.result->metrics.per_platform[static_cast<size_t>(p)].revenue;
    if (online > solution->matching.total_revenue + options.tolerance) {
      Add(&out, "off-upper-bound",
          StrFormat("platform %d online revenue %.9g exceeds OFF %.9g", p,
                    online, solution->matching.total_revenue));
    }

    // Sparse-vs-dense solver differential on the same offline graph: the
    // incremental Kuhn-Munkres (the engine behind 100k-scale OFF rows)
    // must reproduce the dense Hungarian optimum on every instance small
    // enough for the dense solver.
    {
      OfflineConfig graph_config = off;
      std::vector<RequestId> request_ids;
      std::vector<double> payments;
      auto graph = BuildOfflineGraph(ins, p, graph_config, &request_ids,
                                     &payments);
      if (graph.ok() && graph->left_count() <= 64 &&
          graph->right_count() <= 64) {
        auto dense = HungarianMaxWeight(*graph);
        auto sparse = IncrementalKmMaxWeight(*graph);
        if (!dense.ok() || !sparse.ok()) {
          Add(&out, "incremental-off-equals-dense-off",
              StrFormat("platform %d: solver failed (%s / %s)", p,
                        dense.status().ToString().c_str(),
                        sparse.status().ToString().c_str()));
        } else {
          if (counted != nullptr) ++counted->incremental_km;
          const double gap =
              std::abs(sparse->total_weight - dense->total_weight);
          const double scale = std::max(1.0, std::abs(dense->total_weight));
          if (gap > 1e-12 * scale) {
            Add(&out, "incremental-off-equals-dense-off",
                StrFormat("platform %d: incremental KM %.17g != dense "
                          "Hungarian %.17g",
                          p, sparse->total_weight, dense->total_weight));
          }
        }
      }
    }

    // Exhaustive cross-check of the production OFF solvers on instances
    // small enough to enumerate.
    if (ins.RequestCountOf(p) <= options.brute_force_max_requests &&
        static_cast<int64_t>(ins.workers().size()) <=
            options.brute_force_max_workers) {
      BruteForceLimits limits;
      limits.max_left = options.brute_force_max_requests;
      limits.max_right = options.brute_force_max_workers;
      auto brute = SolveOfflineBruteForce(ins, p, off, limits);
      if (!brute.ok()) {
        Add(&out, "off-brute-force",
            StrFormat("brute force failed for platform %d: %s", p,
                      brute.status().ToString().c_str()));
        continue;
      }
      if (counted != nullptr) ++counted->brute_force;
      const double gap = std::abs(brute->matching.total_revenue -
                                  solution->matching.total_revenue);
      const double scale =
          std::max(1.0, std::abs(brute->matching.total_revenue));
      if (gap > 1e-9 * scale) {
        Add(&out, "off-brute-force",
            StrFormat("platform %d: %s OFF revenue %.12g != exhaustive "
                      "%.12g",
                      p, solution->solver.c_str(),
                      solution->matching.total_revenue,
                      brute->matching.total_revenue));
      }
    }
  }
  return out;
}

std::vector<OracleViolation> CheckAllOracles(const MatcherRunRecord& run,
                                             const OracleOptions& options,
                                             DifferentialCounts* counted) {
  std::vector<OracleViolation> out = CheckConstraintOracles(run, options);
  std::vector<OracleViolation> diff =
      CheckDifferentialOracles(run, options, counted);
  out.insert(out.end(), diff.begin(), diff.end());
  return out;
}

}  // namespace check
}  // namespace comx
