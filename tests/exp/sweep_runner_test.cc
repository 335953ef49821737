#include "exp/sweep_runner.h"

#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics_registry.h"
#include "util/status.h"

namespace comx {
namespace exp {
namespace {

TEST(JobSeedTest, DeterministicAndCollisionFreePerBase) {
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 1000; ++i) {
    const uint64_t seed = JobSeed(42, i);
    EXPECT_EQ(seed, JobSeed(42, i)) << "unstable at " << i;
    EXPECT_TRUE(seen.insert(seed).second) << "collision at " << i;
  }
  // Different bases give different streams for the same index.
  EXPECT_NE(JobSeed(42, 7), JobSeed(43, 7));
}

TEST(JobSeedTest, JobRngStreamsAreIndependent) {
  Rng a = JobRng(1, 0);
  Rng b = JobRng(1, 1);
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.NextUint64() != b.NextUint64()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(SweepRunnerTest, SerialRunsJobsInOrderWithGridCoordinates) {
  std::vector<SweepJob> seen;
  SweepRunner runner;  // default: jobs = 1, inline
  ASSERT_TRUE(runner.Run(3, 2, [&](const SweepJob& job) {
                seen.push_back(job);
                return Status::OK();
              }).ok());
  ASSERT_EQ(seen.size(), 6u);
  EXPECT_FALSE(runner.report().parallel);
  EXPECT_EQ(runner.report().job_count, 6u);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].job_index, i);
    EXPECT_EQ(seen[i].config_index, i / 2);
    EXPECT_EQ(seen[i].seed_index, i % 2);
  }
}

TEST(SweepRunnerTest, ParallelResultsMatchSerialBitForBit) {
  auto run = [](int jobs) {
    std::vector<uint64_t> slots(24, 0);
    SweepOptions options;
    options.jobs = jobs;
    SweepRunner runner(options);
    EXPECT_TRUE(runner.Run(4, 6, [&](const SweepJob& job) {
                  // Derived only from the job's grid coordinates — what a
                  // well-behaved simulation job does with its seed.
                  slots[job.job_index] =
                      JobSeed(99, job.job_index) ^ job.config_index;
                  return Status::OK();
                }).ok());
    return slots;
  };
  const auto serial = run(1);
  const auto parallel = run(8);
  EXPECT_EQ(serial, parallel);
}

TEST(SweepRunnerTest, EveryJobRunsExactlyOnceInParallel) {
  std::atomic<int> calls{0};
  std::mutex mu;
  std::set<size_t> indices;
  SweepOptions options;
  options.jobs = 8;
  SweepRunner runner(options);
  ASSERT_TRUE(runner.Run(5, 5, [&](const SweepJob& job) {
                calls.fetch_add(1);
                std::lock_guard<std::mutex> lock(mu);
                indices.insert(job.job_index);
                return Status::OK();
              }).ok());
  EXPECT_EQ(calls.load(), 25);
  EXPECT_EQ(indices.size(), 25u);
  EXPECT_TRUE(runner.report().parallel);
}

TEST(SweepRunnerTest, RecordsPerJobWallTimeAndLatency) {
  for (int jobs : {1, 4}) {
    SweepOptions options;
    options.jobs = jobs;
    SweepRunner runner(options);
    ASSERT_TRUE(
        runner.Run(3, 2, [](const SweepJob&) { return Status::OK(); }).ok());
    const SweepReport& report = runner.report();
    // One wall-clock slot per job, every one filled (non-negative; zero is
    // possible only if the clock doesn't tick inside the job).
    ASSERT_EQ(report.job_wall_seconds.size(), 6u);
    for (double secs : report.job_wall_seconds) {
      EXPECT_GE(secs, 0.0);
    }
    // The pooled latency snapshot counts exactly one entry per job,
    // regardless of parallelism.
    EXPECT_EQ(report.job_latency.count, 6);
    EXPECT_GE(report.job_latency.max_nanos, 0);
  }
}

TEST(SweepRunnerTest, ReportsFirstErrorInJobOrderAtAnyJobCount) {
  for (int jobs : {1, 8}) {
    SweepOptions options;
    options.jobs = jobs;
    SweepRunner runner(options);
    std::atomic<int> calls{0};
    const Status status = runner.Run(1, 10, [&](const SweepJob& job) {
      calls.fetch_add(1);
      if (job.job_index == 3 || job.job_index == 7) {
        return Status::InvalidArgument("job " +
                                       std::to_string(job.job_index));
      }
      return Status::OK();
    });
    ASSERT_FALSE(status.ok()) << "jobs=" << jobs;
    // The earliest failing job wins regardless of completion order, and
    // the sweep still ran everything.
    EXPECT_NE(status.message().find("job 3"), std::string::npos)
        << "jobs=" << jobs << ": " << status.ToString();
    EXPECT_EQ(calls.load(), 10) << "jobs=" << jobs;
  }
}

TEST(SweepRunnerTest, ReusesCallerOwnedPoolAcrossRuns) {
  ThreadPool pool(3);
  SweepOptions options;
  options.pool = &pool;
  SweepRunner runner(options);
  for (int round = 0; round < 3; ++round) {
    std::atomic<int> calls{0};
    ASSERT_TRUE(runner.Run(2, 4, [&](const SweepJob&) {
                  calls.fetch_add(1);
                  return Status::OK();
                }).ok());
    EXPECT_EQ(calls.load(), 8);
    EXPECT_TRUE(runner.report().parallel);
  }
}

int64_t CounterValue(const obs::MetricsSnapshot& snap, const char* name) {
  for (const auto& counter : snap.counters) {
    if (counter.name == name) return counter.value;
  }
  return -1;
}

TEST(SweepRunnerTest, SerialCaptureAttributesMetricsPerJob) {
  obs::SetCollectionEnabled(true);
  obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "comx_test_sweep_serial_total");
  SweepOptions options;
  options.capture_metrics = true;
  SweepRunner runner(options);
  ASSERT_TRUE(runner.Run(1, 4, [&](const SweepJob& job) {
                counter->Inc(static_cast<int64_t>(job.job_index) + 1);
                return Status::OK();
              }).ok());
  obs::SetCollectionEnabled(false);
  const SweepReport& report = runner.report();
  ASSERT_EQ(report.per_job_metrics.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(CounterValue(report.per_job_metrics[i],
                           "comx_test_sweep_serial_total"),
              static_cast<int64_t>(i) + 1);
  }
  EXPECT_EQ(CounterValue(report.sweep_metrics,
                         "comx_test_sweep_serial_total"),
            1 + 2 + 3 + 4);
}

TEST(SweepRunnerTest, ParallelCaptureFallsBackToSweepWideDiff) {
  obs::SetCollectionEnabled(true);
  obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "comx_test_sweep_parallel_total");
  SweepOptions options;
  options.jobs = 4;
  options.capture_metrics = true;
  SweepRunner runner(options);
  ASSERT_TRUE(runner.Run(2, 4, [&](const SweepJob&) {
                counter->Inc();
                return Status::OK();
              }).ok());
  obs::SetCollectionEnabled(false);
  const SweepReport& report = runner.report();
  // Per-job attribution is impossible when jobs share the global registry
  // concurrently — the engine must not fabricate it.
  EXPECT_TRUE(report.per_job_metrics.empty());
  EXPECT_EQ(CounterValue(report.sweep_metrics,
                         "comx_test_sweep_parallel_total"),
            8);
}

TEST(DiffSnapshotsTest, SubtractsCountersAndHistogramsKeepsGauges) {
  obs::MetricsSnapshot before, after;
  before.counters.push_back({"a", "", 5});
  after.counters.push_back({"a", "", 9});
  after.counters.push_back({"b", "", 3});  // registered mid-window
  before.gauges.push_back({"g", "", 1.0});
  after.gauges.push_back({"g", "", 2.5});
  obs::LatencySnapshot window;  // what happens between the snapshots
  window.Observe(100);
  window.Observe(5000);
  window.Observe(9000);
  obs::LatencySnapshot earlier;
  earlier.Observe(100);
  earlier.Observe(7000);
  obs::LatencySnapshot later = earlier;
  later.Merge(window);
  before.latencies.push_back({"h", "", earlier});
  after.latencies.push_back({"h", "", later});
  const obs::MetricsSnapshot diff = obs::DiffSnapshots(before, after);
  ASSERT_EQ(diff.counters.size(), 2u);
  EXPECT_EQ(diff.counters[0].value, 4);
  EXPECT_EQ(diff.counters[1].value, 3);
  ASSERT_EQ(diff.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(diff.gauges[0].value, 2.5);
  ASSERT_EQ(diff.latencies.size(), 1u);
  const obs::LatencySnapshot& d = diff.latencies[0].latency;
  EXPECT_EQ(d.counts, window.counts);
  EXPECT_EQ(d.count, 3);
  EXPECT_EQ(d.sum_nanos, 14100);
  // The max is not diffable: the diff keeps `after`'s, an upper bound.
  EXPECT_EQ(d.max_nanos, 9000);
}

}  // namespace
}  // namespace exp
}  // namespace comx
