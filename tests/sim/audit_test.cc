// The constraint auditor (sim/audit.h) against planted violations: each
// case runs a real simulation, breaks exactly one rule in its SimResult,
// and expects AuditAssignments to report that rule's slug with its detail
// and AuditSimResult to name the same slug as the first violation. Every
// check in the auditor has its own case, so deleting any one of them fails
// a case here.

#include "sim/audit.h"

#include <algorithm>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dem_com.h"
#include "sim/simulator.h"
#include "testing/builders.h"
#include "testing/scenario_fixtures.h"

namespace comx {
namespace {

using testing_fixtures::DumpViolations;
using testing_fixtures::MakeRequest;
using testing_fixtures::MakeWorker;

// Two inner matches and one outer match on platform 0, plus two platform-0
// workers no run can use: `kLate` arrives after every request, `kFar` is
// out of every request's range.
constexpr WorkerId kLate = 2;
constexpr WorkerId kFar = 3;

Instance AuditInstance() {
  Instance ins;
  ins.AddWorker(MakeWorker(0, 0.0, 0.0, 0.0, 1.0));            // serves r0
  ins.AddWorker(MakeWorker(0, 0.0, 10.0, 0.0, 1.0));           // serves r1
  ins.AddWorker(MakeWorker(0, 1000.0, 0.0, 0.0, 1.0));         // kLate
  ins.AddWorker(MakeWorker(0, 0.0, 100.0, 0.0, 1.0));          // kFar
  ins.AddWorker(MakeWorker(1, 0.0, 20.0, 0.0, 1.0, {1.0, 2.0, 3.0}));
  ins.AddRequest(MakeRequest(0, 1.0, 0.5, 0.0, 4.0));
  ins.AddRequest(MakeRequest(0, 2.0, 10.5, 0.0, 6.0));
  ins.AddRequest(MakeRequest(0, 3.0, 20.5, 0.0, 8.0));
  ins.BuildEvents();
  return ins;
}

enum class Setting { kNoRecycle, kRecycle, kBatch };

SimConfig ConfigFor(Setting setting) {
  SimConfig c;
  c.measure_response_time = false;
  c.workers_recycle = setting != Setting::kNoRecycle;
  c.batch_mode = setting == Setting::kBatch;
  return c;
}

// The first seed's run that serves all three requests, one of them by the
// outer worker (whose Bernoulli acceptance draw must succeed).
SimResult RealRun(const Instance& ins, const SimConfig& config) {
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    DemCom a, b;
    auto r = RunSimulation(ins, {&a, &b}, config, seed);
    if (!r.ok()) {
      ADD_FAILURE() << r.status();
      break;
    }
    if (r->matching.assignments.size() == 3 &&
        r->metrics.per_platform[0].completed_outer == 1) {
      return *r;
    }
  }
  ADD_FAILURE() << "no seed served every request with one outer match";
  return SimResult{};
}

size_t FirstOuter(const SimResult& r) {
  for (size_t i = 0; i < r.matching.assignments.size(); ++i) {
    if (r.matching.assignments[i].is_outer) return i;
  }
  ADD_FAILURE() << "the run made no outer assignment";
  return 0;
}

struct PlantCase {
  const char* name;
  Setting setting;
  const char* slug;
  /// A fragment of the violation's detail that only this check writes.
  const char* detail;
  std::function<void(SimResult*)> plant;
};

void PrintTo(const PlantCase& c, std::ostream* os) { *os << c.name; }

std::vector<PlantCase> PlantCases() {
  using A = std::vector<Assignment>;
  return {
      {"unknown_request", Setting::kNoRecycle, "log-well-formed",
       "unknown request",
       [](SimResult* r) { r->matching.assignments[0].request = 3; }},
      {"unknown_worker", Setting::kNoRecycle, "log-well-formed",
       "unknown worker",
       [](SimResult* r) { r->matching.assignments[0].worker = 5; }},
      {"dispatch_order", Setting::kNoRecycle, "log-well-formed",
       "out of dispatch order",
       [](SimResult* r) {
         A& a = r->matching.assignments;
         std::rotate(a.begin(), a.end() - 1, a.end());
       }},
      {"request_served_twice", Setting::kNoRecycle, "invariable-constraint",
       "served twice",
       [](SimResult* r) {
         A& a = r->matching.assignments;
         a[1].request = a[0].request;
       }},
      {"worker_reused_without_recycling", Setting::kNoRecycle,
       "one-by-one-constraint", "without recycling",
       [](SimResult* r) {
         A& a = r->matching.assignments;
         a[1].worker = a[0].worker;
       }},
      {"worker_reused_while_serving", Setting::kRecycle,
       "one-by-one-constraint", "while serving",
       [](SimResult* r) {
         A& a = r->matching.assignments;
         a[1].worker = a[0].worker;
       }},
      {"window_reuses_a_busy_worker", Setting::kBatch,
       "batch-window-never-violates-deadline", "while serving",
       [](SimResult* r) {
         A& a = r->matching.assignments;
         a[1].worker = a[0].worker;
       }},
      {"worker_not_yet_arrived", Setting::kNoRecycle, "time-constraint",
       "(available 1000.000000)",
       [](SimResult* r) { r->matching.assignments[0].worker = kLate; }},
      {"worker_out_of_range", Setting::kNoRecycle, "range-constraint",
       "at 99.500 km",
       [](SimResult* r) { r->matching.assignments[0].worker = kFar; }},
      {"outer_flag_flipped", Setting::kNoRecycle, "inner-outer-label",
       "mislabels",
       [](SimResult* r) {
         Assignment& a = r->matching.assignments[0];
         a.is_outer = !a.is_outer;
       }},
      {"outer_payment_above_value", Setting::kNoRecycle,
       "outer-payment-range", "outside (0, v=8]",
       [](SimResult* r) {
         r->matching.assignments[FirstOuter(*r)].outer_payment = 9.0;
       }},
      {"inner_match_with_payment", Setting::kNoRecycle,
       "outer-payment-range", "carries payment",
       [](SimResult* r) {
         for (Assignment& a : r->matching.assignments) {
           if (!a.is_outer) {
             a.outer_payment = 1.0;
             return;
           }
         }
         ADD_FAILURE() << "the run made no inner assignment";
       }},
      {"assignment_revenue", Setting::kNoRecycle, "revenue-eq1",
       "assignment 0 revenue",
       [](SimResult* r) { r->matching.assignments[0].revenue += 1e-12; }},
      {"matching_total", Setting::kNoRecycle, "revenue-eq1",
       "matching.total_revenue",
       [](SimResult* r) { r->matching.total_revenue += 1e-12; }},
      {"platform_revenue", Setting::kNoRecycle, "revenue-eq1",
       "platform 0 metrics revenue",
       [](SimResult* r) { r->metrics.per_platform[0].revenue += 1e-12; }},
      {"platform_count", Setting::kNoRecycle, "metrics-identities",
       "metrics cover 1 platforms",
       [](SimResult* r) { r->metrics.per_platform.pop_back(); }},
      {"completion_counters", Setting::kNoRecycle, "metrics-identities",
       "counters disagree",
       [](SimResult* r) { ++r->metrics.per_platform[0].completed_inner; }},
      {"completed_plus_rejected", Setting::kNoRecycle, "metrics-identities",
       "+ rejected",
       [](SimResult* r) { ++r->metrics.per_platform[0].rejected; }},
      {"outer_completions_exceed_offers", Setting::kNoRecycle,
       "metrics-identities", "exceed",
       [](SimResult* r) {
         PlatformMetrics& pm = r->metrics.per_platform[0];
         pm.outer_offers = pm.completed_outer - 1;
       }},
  };
}

TEST(AuditTest, RealRunsAreClean) {
  const Instance ins = AuditInstance();
  for (Setting setting :
       {Setting::kNoRecycle, Setting::kRecycle, Setting::kBatch}) {
    const SimConfig config = ConfigFor(setting);
    const SimResult r = RealRun(ins, config);
    ASSERT_EQ(r.matching.assignments.size(), 3u);
    const std::vector<AuditViolation> violations =
        AuditAssignments(ins, config, r);
    EXPECT_TRUE(violations.empty()) << DumpViolations(violations);
    EXPECT_TRUE(AuditSimResult(ins, config, r).ok());
  }
}

class AuditPlantTest : public ::testing::TestWithParam<PlantCase> {};

TEST_P(AuditPlantTest, ReportsItsSlugFirst) {
  const PlantCase& c = GetParam();
  const Instance ins = AuditInstance();
  const SimConfig config = ConfigFor(c.setting);
  SimResult r = RealRun(ins, config);
  ASSERT_EQ(r.matching.assignments.size(), 3u);
  c.plant(&r);

  const std::vector<AuditViolation> violations =
      AuditAssignments(ins, config, r);
  const bool reported =
      std::any_of(violations.begin(), violations.end(),
                  [&c](const AuditViolation& v) {
                    return v.oracle == c.slug &&
                           v.detail.find(c.detail) != std::string::npos;
                  });
  EXPECT_TRUE(reported) << DumpViolations(violations);

  const Status status = AuditSimResult(ins, config, r);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(status.message().rfind(std::string(c.slug) + ": ", 0), 0u)
      << status;
  EXPECT_NE(status.message().find(c.detail), std::string::npos) << status;
}

INSTANTIATE_TEST_SUITE_P(
    Slugs, AuditPlantTest, ::testing::ValuesIn(PlantCases()),
    [](const ::testing::TestParamInfo<PlantCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace comx
