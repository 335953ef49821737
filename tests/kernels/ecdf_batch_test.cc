#include "kernels/ecdf_batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "util/rng.h"

namespace comx {
namespace kernels {
namespace {

// Definition 3.1 written out: the std::upper_bound count of the values
// <= v over the sorted history, divided by its size; 0 when empty.
double ReferenceEcdf(const std::vector<double>& sorted, double v) {
  if (sorted.empty()) return 0.0;
  const auto it = std::upper_bound(sorted.begin(), sorted.end(), v);
  return static_cast<double>(it - sorted.begin()) /
         static_cast<double>(sorted.size());
}

// True when `a` and `b` hold the same doubles bit for bit (so the sign of
// a zero counts).
bool SameBits(std::span<const double> a, std::span<const double> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double x, double y) {
                      return std::bit_cast<uint64_t>(x) ==
                             std::bit_cast<uint64_t>(y);
                    });
}

// An index holding one worker with `history`.
EcdfIndex OneWorker(const std::vector<double>& history) {
  EcdfIndex index;
  index.AddWorker(history);
  return index;
}

// Randomized histories including empty and single-value ones, kept as
// drawn (unsorted) next to the index built from them.
struct Fixture {
  std::vector<std::vector<double>> histories;
  EcdfIndex index;

  // Worker w's history sorted the way the index is specified to sort it.
  std::vector<double> Sorted(size_t w) const {
    std::vector<double> sorted = histories[w];
    std::sort(sorted.begin(), sorted.end());
    return sorted;
  }
};

Fixture MakeFixture(uint64_t seed, size_t workers) {
  Rng rng(seed);
  Fixture f;
  f.histories.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    const int64_t len = w == 0 ? 0 : rng.UniformInt(0, 64);
    std::vector<double> values;
    values.reserve(static_cast<size_t>(len));
    for (int64_t i = 0; i < len; ++i) {
      values.push_back(rng.Uniform(5.0, 60.0));
    }
    f.histories.push_back(std::move(values));
  }
  for (const std::vector<double>& h : f.histories) f.index.AddWorker(h);
  return f;
}

TEST(EcdfBatchTest, EvaluateBitIdenticalToValueHistory) {
  const Fixture f = MakeFixture(2020, 128);
  Rng rng(1);
  for (size_t w = 0; w < f.histories.size(); ++w) {
    const std::vector<double> values = f.Sorted(w);
    std::vector<double> probes = {0.0, 4.999, 60.001, 27.5,
                                  std::numeric_limits<double>::infinity()};
    // Exact history values hit the upper_bound boundary; probe them all.
    probes.insert(probes.end(), values.begin(), values.end());
    for (int i = 0; i < 16; ++i) probes.push_back(rng.Uniform(0.0, 70.0));
    for (double p : probes) {
      const double expect = ReferenceEcdf(values, p);
      const double got = f.index.Evaluate(static_cast<int64_t>(w), p);
      EXPECT_EQ(expect, got) << "worker " << w << " payment " << p;
    }
  }
}

TEST(EcdfBatchTest, ValuesAreTheSortedHistory) {
  const Fixture f = MakeFixture(7, 64);
  ASSERT_EQ(f.index.worker_count(), 64u);
  for (size_t w = 0; w < 64; ++w) {
    const std::vector<double> sorted = f.Sorted(w);
    EXPECT_TRUE(SameBits(f.index.Values(static_cast<int64_t>(w)), sorted))
        << "worker " << w;
    if (!sorted.empty()) {
      EXPECT_EQ(f.index.hist_min()[w], sorted.front());
      EXPECT_EQ(f.index.hist_max()[w], sorted.back());
    }
  }
}

TEST(EcdfBatchTest, AddWorkerSortsDuplicatesAndSignedZeros) {
  EcdfIndex index;
  const std::vector<double> first = {3.0, -0.0, 2.0, 0.0, 3.0, 1.0, 0.0};
  index.AddWorker(first);
  index.AddWorker(std::vector<double>{5.0, 4.0, 4.0});
  ASSERT_EQ(index.worker_count(), 2u);

  std::vector<double> sorted = first;
  std::sort(sorted.begin(), sorted.end());
  const std::span<const double> values = index.Values(0);
  // Bitwise: the sign of each zero lands where std::sort puts it.
  EXPECT_TRUE(SameBits(values, sorted));
  EXPECT_EQ(values[3], 1.0);
  EXPECT_EQ(values[6], 3.0);
  EXPECT_EQ(index.hist_min()[0], 0.0);
  EXPECT_EQ(index.hist_max()[0], 3.0);
  // -0.0 == 0.0, so both count all three zeros.
  EXPECT_EQ(index.Evaluate(0, 0.0), 3.0 / 7.0);
  EXPECT_EQ(index.Evaluate(0, -0.0), 3.0 / 7.0);
  EXPECT_EQ(index.Evaluate(0, -1e-300), 0.0);
  EXPECT_EQ(index.Evaluate(0, 2.999), 5.0 / 7.0);
  EXPECT_EQ(index.Evaluate(0, 3.0), 1.0);
  // The second worker's slice starts after the first one's.
  EXPECT_EQ(std::vector<double>(index.Values(1).begin(),
                                index.Values(1).end()),
            (std::vector<double>{4.0, 4.0, 5.0}));
  EXPECT_EQ(index.Evaluate(1, 4.0), 2.0 / 3.0);
}

TEST(EcdfBatchTest, EmptyIndexHasNoWorkers) {
  const EcdfIndex index{};
  EXPECT_EQ(index.worker_count(), 0u);
  EcdfIndex reserved;
  reserved.Reserve(8, 64);
  EXPECT_EQ(reserved.worker_count(), 0u);
}

TEST(EcdfBatchTest, EvaluateAscendingMatchesEvaluate) {
  const Fixture f = MakeFixture(99, 64);
  Rng rng(3);
  for (size_t w = 0; w < f.histories.size(); ++w) {
    // Ascending payment grid mixing random points with exact history
    // values (the MER grid contains both).
    std::vector<double> grid = {0.0};
    for (int i = 0; i < 40; ++i) grid.push_back(rng.Uniform(0.0, 70.0));
    const std::vector<double>& values = f.histories[w];
    grid.insert(grid.end(), values.begin(), values.end());
    std::sort(grid.begin(), grid.end());
    grid.erase(std::unique(grid.begin(), grid.end()), grid.end());
    std::vector<double> probs(grid.size());
    f.index.EvaluateAscending(static_cast<int64_t>(w), grid.data(),
                              grid.size(), probs.data());
    for (size_t g = 0; g < grid.size(); ++g) {
      EXPECT_EQ(probs[g],
                f.index.Evaluate(static_cast<int64_t>(w), grid[g]))
          << "worker " << w << " grid point " << grid[g];
    }
  }
}

TEST(EcdfBatchTest, EmptyHistoryIsZeroEverywhere) {
  const Fixture f = MakeFixture(5, 4);  // worker 0 has an empty history
  EXPECT_EQ(f.index.Evaluate(0, 0.0), 0.0);
  EXPECT_EQ(f.index.Evaluate(0, std::numeric_limits<double>::infinity()),
            0.0);
  const double grid[3] = {1.0, 2.0, 3.0};
  double probs[3] = {-1.0, -1.0, -1.0};
  f.index.EvaluateAscending(0, grid, 3, probs);
  EXPECT_EQ(probs[0], 0.0);
  EXPECT_EQ(probs[1], 0.0);
  EXPECT_EQ(probs[2], 0.0);
}

// Definition 3.1 on one worker's value history, as EcdfIndex stores it.

TEST(ValueHistoryTest, SortsOnConstruction) {
  const EcdfIndex h = OneWorker({3.0, 1.0, 2.0});
  EXPECT_EQ(std::vector<double>(h.Values(0).begin(), h.Values(0).end()),
            (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(h.hist_min()[0], 1.0);
  EXPECT_EQ(h.hist_max()[0], 3.0);
}

TEST(ValueHistoryTest, EmptyHistory) {
  const EcdfIndex h = OneWorker({});
  EXPECT_EQ(h.worker_count(), 1u);
  EXPECT_TRUE(h.Values(0).empty());
  EXPECT_EQ(h.Evaluate(0, 100.0), 0.0);
}

TEST(ValueHistoryTest, EcdfStepSemantics) {
  const EcdfIndex h = OneWorker({2.0, 4.0, 6.0, 8.0});
  EXPECT_DOUBLE_EQ(h.Evaluate(0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Evaluate(0, 2.0), 0.25);  // <= is inclusive (Def. 3.1)
  EXPECT_DOUBLE_EQ(h.Evaluate(0, 3.0), 0.25);
  EXPECT_DOUBLE_EQ(h.Evaluate(0, 4.0), 0.5);
  EXPECT_DOUBLE_EQ(h.Evaluate(0, 8.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Evaluate(0, 100.0), 1.0);
}

TEST(ValueHistoryTest, EcdfWithDuplicates) {
  const EcdfIndex h = OneWorker({5.0, 5.0, 5.0, 10.0});
  EXPECT_DOUBLE_EQ(h.Evaluate(0, 5.0), 0.75);
  EXPECT_DOUBLE_EQ(h.Evaluate(0, 4.999), 0.0);
}

TEST(ValueHistoryTest, EcdfIsMonotone) {
  const EcdfIndex h = OneWorker({1.0, 3.0, 3.0, 7.0, 9.0});
  double prev = -1.0;
  for (double v = 0.0; v <= 10.0; v += 0.25) {
    const double e = h.Evaluate(0, v);
    EXPECT_GE(e, prev);
    prev = e;
  }
}

TEST(ValueHistoryTest, SingletonEcdfIsStepAtValue) {
  const EcdfIndex h = OneWorker({4.0});
  EXPECT_EQ(h.Evaluate(0, 3.999), 0.0);
  EXPECT_EQ(h.Evaluate(0, 4.0), 1.0);
}

}  // namespace
}  // namespace kernels
}  // namespace comx
