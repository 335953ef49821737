// Shared scenario-level fixtures for the matching and harness test suites.
// Hosts the random-graph builder the solver differential tests share and
// the oracle-run helpers (record assembly, violation predicates, tamper
// fixtures) that used to be copy-pasted across tests/matching/ and
// tests/check/.

#ifndef COMX_TESTS_TESTING_SCENARIO_FIXTURES_H_
#define COMX_TESTS_TESTING_SCENARIO_FIXTURES_H_

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/fuzz_driver.h"
#include "check/oracles.h"
#include "check/scenario_gen.h"
#include "matching/bipartite_graph.h"
#include "util/rng.h"

namespace comx {
namespace testing_fixtures {

// Random sparse bipartite graph with weights in (0, 10].
inline BipartiteGraph RandomGraph(int32_t left, int32_t right,
                                  double edge_prob, Rng* rng) {
  BipartiteGraph g(left, right);
  for (int32_t l = 0; l < left; ++l) {
    for (int32_t r = 0; r < right; ++r) {
      if (rng->Bernoulli(edge_prob)) {
        const Status s = g.AddEdge(l, r, rng->Uniform(0.1, 10.0));
        (void)s;
      }
    }
  }
  return g;
}

// Random sparse bipartite graph with integer weights in [1, max_weight]:
// small max_weight makes many optimal matchings tie, as they do in dispatch
// windows where every inner edge of a request weighs its value.
inline BipartiteGraph RandomIntegerGraph(int32_t left, int32_t right,
                                         double edge_prob,
                                         int64_t max_weight, Rng* rng) {
  BipartiteGraph g(left, right);
  for (int32_t l = 0; l < left; ++l) {
    for (int32_t r = 0; r < right; ++r) {
      if (rng->Bernoulli(edge_prob)) {
        const Status s = g.AddEdge(
            l, r, static_cast<double>(rng->UniformInt(1, max_weight)));
        (void)s;
      }
    }
  }
  return g;
}

inline bool HasOracle(const std::vector<check::OracleViolation>& violations,
                      const std::string& slug) {
  for (const check::OracleViolation& v : violations) {
    if (v.oracle == slug) return true;
  }
  return false;
}

inline std::string DumpViolations(
    const std::vector<check::OracleViolation>& violations) {
  std::string out;
  for (const check::OracleViolation& v : violations) {
    out += "[" + v.oracle + "] " + v.detail + "\n";
  }
  return out;
}

// Borrows the scenario/instance/run, exactly how the fuzz driver wires a
// record before handing it to the oracles.
inline check::MatcherRunRecord MakeRunRecord(
    check::MatcherKind kind, const check::Scenario& scenario,
    const Instance& instance, const check::MatcherRunOutput& run) {
  check::MatcherRunRecord record;
  record.kind = kind;
  record.instance = &instance;
  record.scenario = &scenario;
  record.result = &run.result;
  record.trace = &run.trace;
  record.trace_summary = run.has_summary ? &run.trace_summary : nullptr;
  record.ram_thresholds = run.ram_thresholds;
  return record;
}

// A (scenario, instance, run) triple with at least one assignment, for
// tamper-detection tests that mutate the output and assert an oracle fires.
struct TamperFixture {
  check::Scenario scenario;
  Instance instance;
  check::MatcherRunOutput run;
};

inline TamperFixture FindRunWithAssignments(check::MatcherKind kind,
                                            bool want_outer,
                                            uint64_t base_seed = 202) {
  for (uint64_t i = 0; i < 400; ++i) {
    check::Scenario s = check::DrawScenario(base_seed, i);
    auto instance = check::BuildScenarioInstance(s);
    if (!instance.ok()) continue;
    auto run = check::RunMatcherOnInstance(kind, s, *instance);
    if (!run.ok()) continue;
    bool has_outer = false;
    for (const Assignment& a : run->result.matching.assignments) {
      has_outer |= a.is_outer;
    }
    if (run->result.matching.assignments.empty()) continue;
    if (want_outer && !has_outer) continue;
    return TamperFixture{s, *std::move(instance), *std::move(run)};
  }
  ADD_FAILURE() << "no suitable run found in 400 scenarios";
  return {};
}

}  // namespace testing_fixtures
}  // namespace comx

#endif  // COMX_TESTS_TESTING_SCENARIO_FIXTURES_H_
