#include "pricing/mer_pricer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "testing/builders.h"
#include "util/rng.h"

namespace comx {
namespace {

using testing_fixtures::MakeWorker;

Instance WorkersWithHistories(
    const std::vector<std::vector<double>>& histories) {
  Instance ins;
  for (const auto& h : histories) {
    ins.AddWorker(MakeWorker(0, 1, 0, 0, 1, h));
  }
  ins.BuildEvents();
  return ins;
}

// The dense scan ComputeMerQuote performed before its pruning: every
// candidate evaluated at every grid point. The bitwise reference for the
// differential tests below. Its grid-size clamp is the fixed one, so the
// reference stays defined for request values of 2^31 and above.
MerQuote DenseMerQuote(const AcceptanceModel& model,
                       const std::vector<WorkerId>& candidates,
                       double request_value, const MerConfig& config) {
  MerQuote best;
  if (candidates.empty() || request_value <= 0.0) return best;

  std::vector<double> grid;
  const int int_points = static_cast<int>(
      std::min(static_cast<double>(config.max_grid_points),
               std::floor(request_value)));
  const double step =
      int_points > 0 ? request_value / static_cast<double>(int_points + 1)
                     : request_value;
  for (int i = 1; i <= int_points; ++i) {
    grid.push_back(step * static_cast<double>(i));
  }
  grid.push_back(request_value);
  for (WorkerId w : candidates) {
    const std::span<const double> hist = model.ecdf().Values(w);
    const int take = std::min<int>(
        config.max_history_candidates_per_worker,
        static_cast<int>(hist.size()));
    for (int i = 0; i < take; ++i) {
      const size_t idx = hist.size() <= 1
                             ? 0
                             : (static_cast<size_t>(i) * (hist.size() - 1)) /
                                   static_cast<size_t>(std::max(1, take - 1));
      const double v = hist[idx];
      if (v > 0.0 && v <= request_value) grid.push_back(v);
    }
  }
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());

  std::vector<double> none(grid.size(), 1.0);
  std::vector<double> probs(grid.size());
  const kernels::EcdfIndex& ecdf = model.ecdf();
  for (WorkerId w : candidates) {
    ecdf.EvaluateAscending(w, grid.data(), grid.size(), probs.data());
    for (size_t g = 0; g < grid.size(); ++g) {
      none[g] *= 1.0 - probs[g];
    }
  }
  for (size_t g = 0; g < grid.size(); ++g) {
    const double p = grid[g];
    const double pr = none[g] == 0.0 ? 1.0 : 1.0 - none[g];
    const double expected = (request_value - p) * pr;
    if (expected > best.expected_revenue) {
      best.expected_revenue = expected;
      best.payment = p;
      best.accept_probability = pr;
    }
  }
  if (best.payment == 0.0) {
    best.payment = request_value;
    best.accept_probability =
        model.GroupAcceptProbability(candidates, request_value);
    best.expected_revenue = 0.0;
  }
  return best;
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

TEST(MerPricerTest, EmptyCandidatesZeroQuote) {
  const Instance ins = WorkersWithHistories({{5.0}});
  const AcceptanceModel model(ins);
  const MerQuote q = ComputeMerQuote(model, {}, 10.0);
  EXPECT_EQ(q.payment, 0.0);
  EXPECT_EQ(q.expected_revenue, 0.0);
}

TEST(MerPricerTest, SingleStepWorkerPricedAtThreshold) {
  // Worker accepts iff p >= 4 (prob 1). Expected revenue (10 - p) * 1 is
  // maximized at the smallest accepted payment: exactly 4.
  const Instance ins = WorkersWithHistories({{4.0}});
  const AcceptanceModel model(ins);
  const MerQuote q = ComputeMerQuote(model, {0}, 10.0);
  EXPECT_DOUBLE_EQ(q.payment, 4.0);
  EXPECT_DOUBLE_EQ(q.accept_probability, 1.0);
  EXPECT_DOUBLE_EQ(q.expected_revenue, 6.0);
}

TEST(MerPricerTest, PaperExampleThreeDistribution) {
  // Example 3 of the paper: payments with acceptance probabilities
  // {0.9, 0.8, 0.4, 0.3, 0.2} at platform revenues {1, 2, 3, 4, 5}; the
  // maximum expected revenue is 2 * 0.8 = 1.6 at revenue 2 (payment 4 on
  // v = 6). A 10-entry history realizes that ECDF at payments {1..5}:
  // 2 entries <= 1, 1 in (1,2], 1 in (2,3], 4 in (3,4], 1 in (4,5] and
  // 1 above 5.
  const std::vector<double> hist = {0.5, 0.8, 1.5, 2.5, 3.2, 3.4,
                                    3.6, 3.8, 4.5, 8.0};
  Instance ins = WorkersWithHistories({hist});
  const AcceptanceModel model(ins);
  EXPECT_DOUBLE_EQ(model.AcceptProbability(0, 1.0), 0.2);
  EXPECT_DOUBLE_EQ(model.AcceptProbability(0, 2.0), 0.3);
  EXPECT_DOUBLE_EQ(model.AcceptProbability(0, 3.0), 0.4);
  EXPECT_DOUBLE_EQ(model.AcceptProbability(0, 4.0), 0.8);
  EXPECT_DOUBLE_EQ(model.AcceptProbability(0, 5.0), 0.9);

  const MerQuote q = ComputeMerQuote(model, {0}, 6.0);
  // Candidates include the integer grid; the best integer quote is p = 4:
  // (6-4)*0.8 = 1.6 vs p=5: 0.9, p=3: 1.2, p=2: 1.2, p=1: 1.0. History
  // values can only do better at the same step (e.g. 3.8 gives 1.76).
  EXPECT_GE(q.expected_revenue, 1.6);
  EXPECT_DOUBLE_EQ(q.accept_probability,
                   model.AcceptProbability(0, q.payment));
}

TEST(MerPricerTest, HistoryCandidatesBeatCoarseGrid) {
  // The optimum sits just at a history value between grid points.
  const Instance ins = WorkersWithHistories({{2.5}});
  const AcceptanceModel model(ins);
  const MerQuote q = ComputeMerQuote(model, {0}, 10.0);
  EXPECT_DOUBLE_EQ(q.payment, 2.5);
  EXPECT_DOUBLE_EQ(q.expected_revenue, 7.5);
}

TEST(MerPricerTest, NeverQuotesAboveValue) {
  const Instance ins = WorkersWithHistories({{1.0, 5.0, 20.0}});
  const AcceptanceModel model(ins);
  const MerQuote q = ComputeMerQuote(model, {0}, 10.0);
  EXPECT_LE(q.payment, 10.0);
  EXPECT_GE(q.payment, 0.0);
}

TEST(MerPricerTest, HopelessWorkersQuoteValueWithZeroRevenue) {
  const Instance ins = WorkersWithHistories({{100.0}});
  const AcceptanceModel model(ins);
  const MerQuote q = ComputeMerQuote(model, {0}, 10.0);
  EXPECT_DOUBLE_EQ(q.payment, 10.0);
  EXPECT_DOUBLE_EQ(q.expected_revenue, 0.0);
  EXPECT_DOUBLE_EQ(q.accept_probability, 0.0);
}

TEST(MerPricerTest, MoreWorkersWeaklyIncreaseExpectedRevenue) {
  const Instance ins = WorkersWithHistories(
      {{4.0, 8.0}, {2.0, 6.0}, {5.0, 7.0}});
  const AcceptanceModel model(ins);
  const MerQuote q1 = ComputeMerQuote(model, {0}, 10.0);
  const MerQuote q3 = ComputeMerQuote(model, {0, 1, 2}, 10.0);
  EXPECT_GE(q3.expected_revenue + 1e-12, q1.expected_revenue);
}

TEST(MerPricerTest, QuoteIsGridOptimal) {
  // Verify argmax over a dense re-evaluation of the objective.
  const Instance ins = WorkersWithHistories(
      {{1.5, 3.0, 4.5, 6.0}, {2.0, 2.5, 7.0}});
  const AcceptanceModel model(ins);
  const std::vector<WorkerId> cands{0, 1};
  const double v = 8.0;
  const MerQuote q = ComputeMerQuote(model, cands, v);
  for (double p = 0.05; p <= v; p += 0.05) {
    const double e = (v - p) * model.GroupAcceptProbability(cands, p);
    EXPECT_LE(e, q.expected_revenue + 1e-9) << "p=" << p;
  }
}

TEST(MerPricerTest, ExpectedRevenueConsistent) {
  const Instance ins = WorkersWithHistories({{3.0, 6.0}});
  const AcceptanceModel model(ins);
  const MerQuote q = ComputeMerQuote(model, {0}, 9.0);
  EXPECT_NEAR(q.expected_revenue,
              (9.0 - q.payment) * q.accept_probability, 1e-12);
}

TEST(MerPricerTest, HugeValueKeepsTheEvenGrid) {
  // floor(v) = 4.097e9 does not fit an int; the even grid must still be
  // capped at 4096 points, here with a step of exactly 1e6. The best
  // quote is the grid point 2e6, where 2 of the 64 entries accept.
  std::vector<double> hist = {5e5, 1.5e6};
  hist.insert(hist.end(), 62, 1e10);
  const Instance ins = WorkersWithHistories({hist});
  const AcceptanceModel model(ins);
  const MerQuote q = ComputeMerQuote(model, {0}, 4097e6);
  EXPECT_EQ(q.payment, 2e6);
  EXPECT_EQ(q.accept_probability, 0.03125);
  EXPECT_EQ(q.expected_revenue, 127968750.0);
}

TEST(MerPricerTest, SinglePickStillReachesTheFirstSureAcceptance) {
  // One pick per worker takes each history's minimum, so the frontier
  // Z = 4 (worker 1's maximum) is not a grid point. Worker 2's minimum, 5,
  // is the first point where someone surely accepts: (20 - 5) * 1 = 15
  // beats p = 3, where pr = 1 - 1/2 * 1/2 and the revenue is 12.75.
  const Instance ins = WorkersWithHistories({{1.0, 10.0}, {3.0, 4.0},
                                             {5.0, 6.0}});
  const AcceptanceModel model(ins);
  MerConfig config;
  config.max_grid_points = 0;
  config.max_history_candidates_per_worker = 1;
  const MerQuote q = ComputeMerQuote(model, {0, 1, 2}, 20.0, config);
  EXPECT_EQ(q.payment, 5.0);
  EXPECT_EQ(q.accept_probability, 1.0);
  EXPECT_EQ(q.expected_revenue, 15.0);
}

// One history from a mix of regimes: empty; small integers (duplicates
// that tie the grid whenever its step is an integer); continuous;
// wide log-normal; integers around zero (non-positive entries, which
// Worker::Validate rejects but AcceptanceModel takes); half-integers.
std::vector<double> RandomHistory(Rng* rng) {
  const int64_t kind = rng->UniformInt(0, 5);
  std::vector<double> hist;
  if (kind == 0) return hist;
  const int64_t n = rng->UniformInt(1, 48);
  for (int64_t i = 0; i < n; ++i) {
    switch (kind) {
      case 1:
        hist.push_back(static_cast<double>(rng->UniformInt(1, 12)));
        break;
      case 2:
        hist.push_back(rng->Uniform(0.5, 30.0));
        break;
      case 3:
        hist.push_back(rng->LogNormal(2.0, 0.8));
        break;
      case 4:
        hist.push_back(static_cast<double>(rng->UniformInt(-3, 8)));
        break;
      default:
        hist.push_back(0.5 * static_cast<double>(rng->UniformInt(1, 40)));
    }
  }
  return hist;
}

// RandomHistory plus the one-worker edge cases: constant histories
// (positive, zero or negative; the tail rule (c)), histories past the
// 32-pick cap (picks skip values) and all non-positive histories.
std::vector<double> RandomWorkerHistory(Rng* rng) {
  const int64_t kind = rng->UniformInt(0, 3);
  if (kind == 0) return RandomHistory(rng);
  const int64_t n = rng->UniformInt(1, 200);
  std::vector<double> hist;
  if (kind == 1) {
    const double c = rng->Bernoulli(0.8)
                         ? 0.5 * static_cast<double>(rng->UniformInt(1, 40))
                         : static_cast<double>(rng->UniformInt(-2, 0));
    hist.assign(static_cast<size_t>(n), c);
  } else if (kind == 2) {
    for (int64_t i = 0; i < n + 32; ++i) {
      hist.push_back(rng->Bernoulli(0.5)
                         ? static_cast<double>(rng->UniformInt(1, 30))
                         : rng->LogNormal(2.0, 0.6));
    }
  } else {
    for (int64_t i = 0; i < n; ++i) {
      hist.push_back(static_cast<double>(rng->UniformInt(-5, 0)));
    }
  }
  return hist;
}

// A request value for `candidates`, by `mode`: continuous; an exact
// multiple of the grid's point count + 1 (an integer step, tying integer
// histories); a candidate's history maximum; below every candidate's
// history; any history entry; a small integer; at least 2^31.
double RandomRequestValue(int mode, const AcceptanceModel& model,
                          const std::vector<WorkerId>& candidates,
                          const MerConfig& config, Rng* rng) {
  std::vector<double> entries;
  double lowest = 1e300;
  for (WorkerId w : candidates) {
    const std::span<const double> hist = model.ecdf().Values(w);
    entries.insert(entries.end(), hist.begin(), hist.end());
    if (!hist.empty()) lowest = std::min(lowest, hist.front());
  }
  switch (mode) {
    case 1:
      return static_cast<double>(rng->UniformInt(1, 12)) *
             static_cast<double>(config.max_grid_points + 1);
    case 2:
      for (WorkerId w : candidates) {
        const std::span<const double> hist = model.ecdf().Values(w);
        if (!hist.empty() && hist.back() > 0.0) return hist.back();
      }
      break;
    case 3:
      if (lowest > 0.0 && lowest < 1e300) {
        return lowest * rng->Uniform(0.05, 0.999);
      }
      break;
    case 4:
      if (!entries.empty()) {
        const double v = entries[rng->PickIndex(entries.size())];
        if (v > 0.0) return v;
      }
      break;
    case 5:
      return static_cast<double>(rng->UniformInt(1, 40));
    case 6:
      return rng->Uniform(2147483648.0, 4398046511104.0);
    default:
      break;
  }
  return rng->Uniform(0.01, 60.0);
}

struct DenseDiff {
  int64_t quotes = 0;
  int64_t mismatches = 0;
  int64_t earning = 0;  // quotes where the dense scan earns more than 0
};

bool SameBits(const MerQuote& a, const MerQuote& b) {
  return Bits(a.payment) == Bits(b.payment) &&
         Bits(a.accept_probability) == Bits(b.accept_probability) &&
         Bits(a.expected_revenue) == Bits(b.expected_revenue);
}

// Prices `quotes_per_world` random quotes in each of `worlds` random worlds
// of `workers` workers (histories from `make_history`) with ComputeMerQuote
// and with the dense reference, and fails on any difference in any bit; a
// one-worker quote is also priced by ComputeWorkerMerQuote. Quotes cycle
// through the grid caps, the pick caps and the request-value modes (a full
// cycle is 112 quotes), each pricing a shuffled subset of at least
// `min_candidates` workers; `single` prices exactly one worker per quote.
DenseDiff DiffAgainstDense(int worlds, int workers, int quotes_per_world,
                           int min_candidates, uint64_t seed,
                           std::vector<double> (*make_history)(Rng*) =
                               RandomHistory,
                           bool single = false) {
  constexpr int kGridCaps[] = {0, 1, 4, 4096};
  constexpr int kPickCaps[] = {0, 1, 2, 32};
  Rng rng(seed);
  DenseDiff diff;
  for (int world = 0; world < worlds; ++world) {
    std::vector<std::vector<double>> histories;
    for (int w = 0; w < workers; ++w) {
      histories.push_back(make_history(&rng));
    }
    const Instance ins = WorkersWithHistories(histories);
    const AcceptanceModel model(ins);
    std::vector<WorkerId> ids(workers);
    for (int w = 0; w < workers; ++w) ids[w] = w;
    for (int q = 0; q < quotes_per_world; ++q) {
      MerConfig config;
      config.max_grid_points = kGridCaps[q % 4];
      config.max_history_candidates_per_worker = kPickCaps[(q / 4) % 4];
      // Modes 1 and 6 under the 4096-point cap build the full even grid,
      // which the dense reference prices slowly under ASan: every 8th world
      // keeps them, with at most four candidates (one-worker quotes keep
      // them in every world).
      int mode = (q / 16) % 7;
      const bool wide = !single && config.max_grid_points == 4096 &&
                        (mode == 1 || mode == 6);
      if (wide && world % 8 != 0) mode = 0;
      rng.Shuffle(&ids);
      const int64_t k = single ? 1
                        : wide && world % 8 == 0
                            ? rng.UniformInt(0, 4)
                            : rng.UniformInt(min_candidates, workers);
      const std::vector<WorkerId> candidates(ids.begin(), ids.begin() + k);
      const double v =
          RandomRequestValue(mode, model, candidates, config, &rng);
      const MerQuote got = ComputeMerQuote(model, candidates, v, config);
      const MerQuote want = DenseMerQuote(model, candidates, v, config);
      ++diff.quotes;
      if (want.expected_revenue > 0.0) ++diff.earning;
      const bool worker_ok =
          k != 1 || SameBits(ComputeWorkerMerQuote(model, candidates.front(),
                                                   v, config),
                             want);
      if (SameBits(got, want) && worker_ok) continue;
      if (++diff.mismatches <= 5) {
        ADD_FAILURE() << "world " << world << " quote " << q << " v=" << v
                      << " k=" << k << " grid cap " << config.max_grid_points
                      << " pick cap "
                      << config.max_history_candidates_per_worker
                      << ": got (" << got.payment << ", "
                      << got.accept_probability << ", "
                      << got.expected_revenue << ") want (" << want.payment
                      << ", " << want.accept_probability << ", "
                      << want.expected_revenue << ")";
      }
    }
  }
  return diff;
}

TEST(MerPricerTest, MatchesDenseScanBitForBit) {
  const DenseDiff diff = DiffAgainstDense(/*worlds=*/400, /*workers=*/12,
                                          /*quotes_per_world=*/300,
                                          /*min_candidates=*/0, 20200420);
  EXPECT_EQ(diff.mismatches, 0) << "of " << diff.quotes << " quotes";
  EXPECT_GE(diff.quotes, 100000);
  // Most quotes earn something, so the argmax itself is under test.
  EXPECT_GT(diff.earning, diff.quotes / 2);
}

TEST(MerPricerTest, OneWorkerQuoteMatchesDenseScanBitForBit) {
  // k = 1 through ComputeWorkerMerQuote (directly and as ComputeMerQuote's
  // one-candidate case), every grid cap x pick cap x value mode, over
  // empty, constant, non-positive and longer-than-32 histories.
  const DenseDiff diff = DiffAgainstDense(
      /*worlds=*/200, /*workers=*/8, /*quotes_per_world=*/224,
      /*min_candidates=*/1, 5161, RandomWorkerHistory, /*single=*/true);
  EXPECT_EQ(diff.mismatches, 0) << "of " << diff.quotes << " quotes";
  EXPECT_GE(diff.quotes, 40000);
  EXPECT_GT(diff.earning, diff.quotes / 4);
}

TEST(MerPricerTest, MatchesDenseScanOnLargeCandidateSets) {
  // RamCOM prices up to about 140 candidates at once; the zero frontier
  // then falls far below most histories.
  const DenseDiff diff = DiffAgainstDense(/*worlds=*/8, /*workers=*/160,
                                          /*quotes_per_world=*/112,
                                          /*min_candidates=*/40, 1605096750);
  EXPECT_EQ(diff.mismatches, 0) << "of " << diff.quotes << " quotes";
  EXPECT_GT(diff.earning, diff.quotes / 2);
}

}  // namespace
}  // namespace comx
