// MatchService (src/serve/match_service.h): the acceptance properties of the
// serving core. One shard is bit-identical to the batch simulator; N shards
// equal one shard exactly on instances whose demand clusters are separated
// by more than the worker radius; a graceful drain always closes the day
// with the full-instance Eq. 1 totals; stats reads are safe and consistent
// under concurrent ingestion (the TSan target); a bad submission index is
// refused without poisoning its shard; and the per-shard WALs are durable
// on FlushJournals(), sealed on Drain(), byte-identical to
// RunDurableSimulation's at 1, 2 and 4 shards, recoverable to the
// uninterrupted shard results, and refused in batch mode.

#include "serve/match_service.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "check/recovery_oracles.h"
#include "core/dem_com.h"
#include "core/tota_greedy.h"
#include "datagen/synthetic.h"
#include "recovery/durable_sim.h"
#include "recovery/wal.h"
#include "sim/simulator.h"
#include "testing/builders.h"
#include "testing/temp_dir.h"

namespace comx {
namespace serve {
namespace {

using testing_fixtures::MakeRequest;
using testing_fixtures::MakeWorker;
using testing_fixtures::ScopedTempDir;

std::unique_ptr<OnlineMatcher> MakeTota() {
  return std::make_unique<TotaGreedy>();
}

std::unique_ptr<OnlineMatcher> MakeDemCom() {
  return std::make_unique<DemCom>();
}

SimConfig ServeConfig() {
  SimConfig config;
  config.measure_response_time = false;  // the serve layer owns latency
  return config;
}

Instance SmallSynthetic(uint64_t seed = 7) {
  SyntheticConfig config;
  config.platforms = 2;
  config.requests_per_platform = {40};
  config.workers_per_platform = {20};
  config.seed = seed;
  auto instance = GenerateSynthetic(config);
  EXPECT_TRUE(instance.ok()) << instance.status().ToString();
  return std::move(instance).value();
}

SimResult BatchRun(const Instance& ins,
                   const std::function<std::unique_ptr<OnlineMatcher>()>& factory,
                   uint64_t seed) {
  std::vector<std::unique_ptr<OnlineMatcher>> owned;
  std::vector<OnlineMatcher*> matchers;
  for (int32_t p = 0; p < ins.PlatformCount(); ++p) {
    owned.push_back(factory());
    matchers.push_back(owned.back().get());
  }
  auto result = RunSimulation(ins, matchers, ServeConfig(), seed);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

void ExpectPlatformMetricsBitEqual(const PlatformMetrics& a,
                                   const PlatformMetrics& b) {
  EXPECT_EQ(a.revenue, b.revenue);  // bitwise double equality, deliberately
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.completed_inner, b.completed_inner);
  EXPECT_EQ(a.completed_outer, b.completed_outer);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.outer_offers, b.outer_offers);
  EXPECT_EQ(a.outer_payment_sum, b.outer_payment_sum);
  EXPECT_EQ(a.payment_rate_sum, b.payment_rate_sum);
  EXPECT_EQ(a.total_pickup_km, b.total_pickup_km);
}

// Two demand clusters separated in x by far more than any worker radius, so
// no feasible (worker, request) pair ever crosses the stripe boundary —
// the case where geo-sharding is exact, not approximate. Values are small
// integers so revenue sums are exact in any summation order.
Instance TwoClusterInstance() {
  Instance ins;
  auto add_cluster = [&ins](double x0, double t0) {
    ins.AddWorker(MakeWorker(0, t0 + 0.0, x0 + 0.0, 0.0, 1.5));
    ins.AddWorker(MakeWorker(0, t0 + 1.0, x0 + 2.0, 0.0, 1.5));
    ins.AddWorker(MakeWorker(1, t0 + 2.0, x0 + 1.0, 0.0, 1.5));
    ins.AddRequest(MakeRequest(0, t0 + 3.0, x0 + 0.5, 0.0, 4.0));
    ins.AddRequest(MakeRequest(0, t0 + 4.0, x0 + 1.5, 0.0, 9.0));
    ins.AddRequest(MakeRequest(1, t0 + 5.0, x0 + 1.0, 0.0, 6.0));
    ins.AddRequest(MakeRequest(0, t0 + 6.0, x0 + 2.0, 0.0, 3.0));
  };
  // Interleaved arrival times (t0 offset by 0.5) so the global event stream
  // alternates between clusters — the sharded service must reproduce the
  // batch result despite processing the clusters concurrently.
  add_cluster(/*x0=*/0.0, /*t0=*/1.0);
  add_cluster(/*x0=*/100.0, /*t0=*/1.5);
  ins.BuildEvents();
  EXPECT_TRUE(ins.Validate().ok());
  return ins;
}

TEST(MatchServiceTest, OneShardBitIdenticalToBatchSimulator) {
  // DemCom exercises the full machinery: outer offers, acceptance RNG,
  // payments. With one shard the plan is a verbatim instance copy and the
  // engine consumes the identical event stream with the identical seed, so
  // every double must match bit for bit.
  const Instance ins = testing_fixtures::PaperExample();
  const uint64_t seed = 42;
  const SimResult batch = BatchRun(ins, MakeDemCom, seed);

  ServiceOptions options;
  options.shards = 1;
  options.seed = seed;
  options.sim = ServeConfig();
  auto service = MatchService::Create(ins, MakeDemCom, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE((*service)->SubmitAll().ok());
  auto totals = (*service)->Drain();
  ASSERT_TRUE(totals.ok()) << totals.status().ToString();

  ASSERT_EQ(totals->merged.per_platform.size(),
            batch.metrics.per_platform.size());
  for (size_t p = 0; p < batch.metrics.per_platform.size(); ++p) {
    ExpectPlatformMetricsBitEqual(totals->merged.per_platform[p],
                                  batch.metrics.per_platform[p]);
  }
  EXPECT_EQ(totals->total_revenue, batch.metrics.TotalRevenue());
  EXPECT_EQ(totals->assignments,
            batch.metrics.Aggregate().completed);
  ASSERT_EQ(totals->shard_results.size(), 1u);
  EXPECT_EQ(totals->shard_results[0].matching.assignments.size(),
            batch.matching.assignments.size());
}

TEST(MatchServiceTest, ShardedEqualsSingleShardOnSeparatedClusters) {
  const Instance ins = TwoClusterInstance();
  const uint64_t seed = 7;
  const SimResult batch = BatchRun(ins, MakeTota, seed);

  for (const int32_t shards : {1, 2, 4}) {
    ServiceOptions options;
    options.shards = shards;
    options.seed = seed;
    options.sim = ServeConfig();
    auto service = MatchService::Create(ins, MakeTota, options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    ASSERT_TRUE((*service)->SubmitAll().ok());
    auto totals = (*service)->Drain();
    ASSERT_TRUE(totals.ok()) << totals.status().ToString();
    // Integer request values and radius-separated clusters: the sharded
    // totals are exactly the batch totals at every shard count.
    EXPECT_EQ(totals->total_revenue, batch.metrics.TotalRevenue())
        << "shards=" << shards;
    EXPECT_EQ(totals->assignments, batch.metrics.Aggregate().completed)
        << "shards=" << shards;
    ASSERT_EQ(totals->merged.per_platform.size(),
              batch.metrics.per_platform.size());
    for (size_t p = 0; p < batch.metrics.per_platform.size(); ++p) {
      EXPECT_EQ(totals->merged.per_platform[p].revenue,
                batch.metrics.per_platform[p].revenue)
          << "shards=" << shards << " platform=" << p;
      EXPECT_EQ(totals->merged.per_platform[p].completed_inner,
                batch.metrics.per_platform[p].completed_inner);
      EXPECT_EQ(totals->merged.per_platform[p].rejected,
                batch.metrics.per_platform[p].rejected);
    }
  }
}

TEST(MatchServiceTest, GracefulDrainClosesTheDayWithFullTotals) {
  // Submit only the first half of the stream, then drain: the close-of-day
  // path must consume the unsubmitted remainder so Eq. 1 totals equal the
  // uninterrupted batch run exactly.
  const Instance ins = testing_fixtures::PaperExample();
  const uint64_t seed = 42;
  const SimResult batch = BatchRun(ins, MakeDemCom, seed);

  ServiceOptions options;
  options.shards = 1;
  options.seed = seed;
  options.sim = ServeConfig();
  auto service = MatchService::Create(ins, MakeDemCom, options);
  ASSERT_TRUE(service.ok());
  const int64_t half = (*service)->event_count() / 2;
  for (int64_t i = 0; i < half; ++i) {
    ASSERT_TRUE((*service)->SubmitEvent(i, nullptr).ok());
  }
  auto totals = (*service)->Drain();
  ASSERT_TRUE(totals.ok()) << totals.status().ToString();
  EXPECT_EQ(totals->total_revenue, batch.metrics.TotalRevenue());
  EXPECT_EQ(totals->assignments, batch.metrics.Aggregate().completed);
  EXPECT_EQ(totals->rejected, batch.metrics.Aggregate().rejected);
}

TEST(MatchServiceTest, CallbacksFireOncePerEventWithDecisions) {
  const Instance ins = SmallSynthetic();
  ServiceOptions options;
  options.shards = 4;
  options.seed = 3;
  options.sim = ServeConfig();
  auto service = MatchService::Create(ins, MakeTota, options);
  ASSERT_TRUE(service.ok());

  std::atomic<int64_t> fired{0};
  std::atomic<int64_t> failed{0};
  std::atomic<int64_t> bad_latency{0};
  for (int64_t i = 0; i < (*service)->event_count(); ++i) {
    const Status st = (*service)->SubmitEvent(
        i, [i, &fired, &failed, &bad_latency](const Status& status,
                                              const ShardDecision& d) {
          fired.fetch_add(1);
          if (!status.ok()) failed.fetch_add(1);
          if (d.global_index != i || d.latency_nanos < 0) {
            bad_latency.fetch_add(1);
          }
        });
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  auto totals = (*service)->Drain();
  ASSERT_TRUE(totals.ok()) << totals.status().ToString();
  EXPECT_EQ(fired.load(), (*service)->event_count());
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(bad_latency.load(), 0);

  const ShardSnapshot stats = (*service)->TotalStats();
  EXPECT_EQ(stats.submitted, (*service)->event_count());
  EXPECT_EQ(stats.decisions,
            static_cast<int64_t>(ins.requests().size()));
  EXPECT_GE(stats.arrivals, static_cast<int64_t>(ins.workers().size()));
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_EQ(stats.inner + stats.outer,
            totals->assignments);
  // Snapshot revenue accumulates in step order, merged totals in platform
  // order — same values, possibly different rounding path.
  EXPECT_NEAR(stats.revenue, totals->total_revenue,
              1e-9 * (1.0 + totals->total_revenue));
  EXPECT_EQ((*service)->DecisionLatency().count, (*service)->event_count());
}

TEST(MatchServiceTest, StatsReadsAreSafeDuringConcurrentIngestion) {
  // The seqlock consistency claim under real traffic: readers hammer
  // TotalStats() from two threads while the stream is ingested and drained.
  // Under TSan this is the serve layer's data-race proof.
  const Instance ins = SmallSynthetic(13);
  const int64_t requests = static_cast<int64_t>(ins.requests().size());
  ServiceOptions options;
  options.shards = 4;
  options.seed = 5;
  options.sim = ServeConfig();
  auto service = MatchService::Create(ins, MakeTota, options);
  ASSERT_TRUE(service.ok());

  std::atomic<bool> done{false};
  std::atomic<int64_t> violations{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      int64_t last_decisions = 0;
      while (!done.load(std::memory_order_acquire)) {
        const ShardSnapshot s = (*service)->TotalStats();
        if (s.decisions < 0 || s.decisions > requests ||
            s.inner + s.outer + s.rejects != s.decisions ||
            s.decisions < last_decisions) {
          violations.fetch_add(1);
        }
        last_decisions = s.decisions;
      }
    });
  }
  ASSERT_TRUE((*service)->SubmitAll().ok());
  auto totals = (*service)->Drain();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  ASSERT_TRUE(totals.ok()) << totals.status().ToString();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ((*service)->TotalStats().decisions, requests);
}

TEST(MatchServiceTest, SubmitErrorsAreLoud) {
  const Instance ins = testing_fixtures::PaperExample();
  ServiceOptions options;
  options.shards = 2;
  options.sim = ServeConfig();
  auto service = MatchService::Create(ins, MakeTota, options);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ((*service)->SubmitEvent(-1, nullptr).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ((*service)->SubmitEvent((*service)->event_count(), nullptr).code(),
            StatusCode::kOutOfRange);
  ASSERT_TRUE((*service)->SubmitAll().ok());
  ASSERT_TRUE((*service)->Drain().ok());
  // Post-drain: the service is read-only.
  EXPECT_EQ((*service)->SubmitEvent(0, nullptr).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*service)->Drain().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(MatchServiceTest, DuplicateSubmissionIsRejectedAndShardStaysHealthy) {
  // A repeated, stale or skipped index is the client's mistake: it gets an
  // error of its own and the shard keeps serving the rest of the stream.
  const Instance ins = SmallSynthetic();
  const uint64_t seed = 11;
  const SimResult batch = BatchRun(ins, MakeDemCom, seed);

  ServiceOptions options;
  options.shards = 1;
  options.seed = seed;
  options.sim = ServeConfig();
  auto service = MatchService::Create(ins, MakeDemCom, options);
  ASSERT_TRUE(service.ok());
  MatchService& svc = **service;
  ASSERT_GT(svc.event_count(), 5);
  ASSERT_TRUE(svc.SubmitEvent(0, nullptr).ok());
  ASSERT_TRUE(svc.SubmitEvent(1, nullptr).ok());
  EXPECT_EQ(svc.SubmitEvent(1, nullptr).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(svc.SubmitEvent(2, nullptr).ok());
  EXPECT_EQ(svc.SubmitEvent(0, nullptr).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(svc.SubmitEvent(4, nullptr).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(svc.SubmitEvent(3, nullptr).ok());
  std::atomic<int64_t> failed{0};
  for (int64_t i = 4; i < svc.event_count(); ++i) {
    ASSERT_TRUE(svc.SubmitEvent(i, [&failed](const Status& status,
                                             const ShardDecision&) {
                     if (!status.ok()) failed.fetch_add(1);
                   }).ok())
        << "event " << i;
  }
  auto totals = svc.Drain();
  ASSERT_TRUE(totals.ok()) << totals.status().ToString();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(totals->total_revenue, batch.metrics.TotalRevenue());
  EXPECT_EQ(totals->assignments, batch.metrics.Aggregate().completed);
  EXPECT_EQ(totals->rejected, batch.metrics.Aggregate().rejected);
  EXPECT_EQ(svc.TotalStats().submitted, svc.event_count());
}

std::string ShardWalPath(const std::string& wal_dir, int32_t shard) {
  return wal_dir + "/shard-" + std::to_string(shard) + "/wal.log";
}

std::string ReadFileBytes(const std::string& path) {
  std::string bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return bytes;
  char chunk[4096];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.append(chunk, n);
  }
  std::fclose(f);
  return bytes;
}

TEST(MatchServiceTest, FlushJournalsMakesEveryProcessedStepDurable) {
  const Instance ins = SmallSynthetic(5);
  ServiceOptions options;
  options.shards = 2;
  options.seed = 3;
  options.sim = ServeConfig();
  const ScopedTempDir temp_dir("comx_serve_wal_test");
  options.wal_dir = temp_dir.path();
  options.wal.group_commit_records = 8;  // several batches per shard
  auto service = MatchService::Create(ins, MakeDemCom, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const int64_t half = (*service)->event_count() / 2;
  for (int64_t i = 0; i < half; ++i) {
    ASSERT_TRUE((*service)->SubmitEvent(i, nullptr).ok());
  }
  ASSERT_TRUE((*service)->FlushJournals().ok());

  const std::vector<ShardSnapshot> stats = (*service)->ShardStats();
  int64_t steps = 0;
  for (int32_t k = 0; k < (*service)->shard_count(); ++k) {
    auto scan = recovery::ScanWal(ShardWalPath(options.wal_dir, k));
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    EXPECT_FALSE(scan->torn_tail) << "shard " << k << ": "
                                  << scan->tail_warning;
    EXPECT_FALSE(scan->torn_header) << "shard " << k;
    EXPECT_EQ(scan->boundary_records, scan->records.size()) << "shard " << k;
    ASSERT_FALSE(scan->records.empty());
    EXPECT_EQ(scan->records.front().type, recovery::WalRecordType::kRunBegin);
    // One terminal record per processed step: nothing processed is lost.
    int64_t journaled = 0;
    for (const recovery::WalRecord& rec : scan->records) {
      if (rec.type == recovery::WalRecordType::kArrival ||
          rec.type == recovery::WalRecordType::kDecision) {
        ++journaled;
      }
    }
    EXPECT_EQ(journaled, stats[static_cast<size_t>(k)].steps)
        << "shard " << k;
    steps += journaled;
  }
  EXPECT_GE(steps, half);
}

TEST(MatchServiceTest, DrainEndsEveryShardWalWithRunEnd) {
  const Instance ins = SmallSynthetic(9);
  ServiceOptions options;
  options.shards = 2;
  options.seed = 4;
  options.sim = ServeConfig();
  const ScopedTempDir temp_dir("comx_serve_wal_test");
  options.wal_dir = temp_dir.path();
  auto service = MatchService::Create(ins, MakeDemCom, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE((*service)->SubmitAll().ok());
  auto totals = (*service)->Drain();
  ASSERT_TRUE(totals.ok()) << totals.status().ToString();
  for (int32_t k = 0; k < (*service)->shard_count(); ++k) {
    auto scan = recovery::ScanWal(ShardWalPath(options.wal_dir, k));
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    EXPECT_FALSE(scan->torn_tail) << "shard " << k;
    ASSERT_FALSE(scan->records.empty());
    const recovery::WalRecord& end = scan->records.back();
    EXPECT_EQ(end.type, recovery::WalRecordType::kRunEnd) << "shard " << k;
    EXPECT_EQ(end.total_revenue,
              totals->shard_results[static_cast<size_t>(k)]
                  .metrics.TotalRevenue())
        << "shard " << k;
  }
}

// One matcher per platform of `ins`, owned by `owned`.
std::vector<OnlineMatcher*> MatchersFor(
    const Instance& ins,
    const std::function<std::unique_ptr<OnlineMatcher>()>& factory,
    std::vector<std::unique_ptr<OnlineMatcher>>* owned) {
  owned->clear();
  std::vector<OnlineMatcher*> matchers;
  for (int32_t p = 0; p < ins.PlatformCount(); ++p) {
    owned->push_back(factory());
    matchers.push_back(owned->back().get());
  }
  return matchers;
}

TEST(MatchServiceTest, EveryShardWalIsByteIdenticalToDurableSimulation) {
  // Every WAL producer journals through one recovery::DurableRun, so each
  // shard journals exactly the bytes RunDurableSimulation writes for that
  // shard's sub-instance.
  const Instance ins = SmallSynthetic(17);
  const uint64_t seed = 23;

  for (const int32_t shards : {1, 2, 4}) {
    ServiceOptions options;
    options.shards = shards;
    options.seed = seed;
    options.sim = ServeConfig();
    const ScopedTempDir temp_dir("comx_serve_wal_test");
    options.wal_dir = temp_dir.path();
    auto service = MatchService::Create(ins, MakeDemCom, options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    ASSERT_TRUE((*service)->SubmitAll().ok());
    ASSERT_TRUE((*service)->Drain().ok());

    for (int32_t k = 0; k < shards; ++k) {
      const Instance& sub =
          (*service)->plan().instances[static_cast<size_t>(k)];
      // Every stripe of this fixture holds events, so every shard has a WAL.
      ASSERT_FALSE(sub.events().empty()) << "shards=" << shards << " " << k;
      std::vector<std::unique_ptr<OnlineMatcher>> owned;
      recovery::DurableOptions durable;
      const ScopedTempDir durable_dir("comx_serve_wal_test");
      durable.dir = durable_dir.path();
      durable.checkpoint_every_steps = 0;
      auto outcome = recovery::RunDurableSimulation(
          sub, MatchersFor(sub, MakeDemCom, &owned), ServeConfig(), seed,
          durable);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      ASSERT_FALSE(outcome->crashed);

      const std::string served =
          ReadFileBytes(ShardWalPath(options.wal_dir, k));
      const std::string driven = ReadFileBytes(recovery::WalPath(durable.dir));
      if (shards == 1) {
        EXPECT_GT(outcome->stats.wal_commits, 1);
      }
      EXPECT_EQ(static_cast<int64_t>(driven.size()), outcome->stats.wal_bytes);
      EXPECT_EQ(served.size(), driven.size())
          << "shards=" << shards << " shard " << k;
      EXPECT_TRUE(served == driven) << "shards=" << shards << " shard " << k;
    }
  }
}

TEST(MatchServiceTest, ServedWalRecoversToTheUninterruptedShardResults) {
  // The service is stopped the way a signal stops comx_serve: half the
  // stream submitted, FlushJournals(), then torn down with no kRunEnd.
  // Each shard's WAL then recovers (WAL only, byte-verified replay) to
  // exactly what the uninterrupted service's shard produced.
  SyntheticConfig config;
  config.platforms = 2;
  config.requests_per_platform = {120};
  config.workers_per_platform = {60};
  config.seed = 29;
  auto generated = GenerateSynthetic(config);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const Instance& ins = *generated;
  const uint64_t seed = 31;

  for (const int32_t shards : {1, 2, 4}) {
    ServiceOptions options;
    options.shards = shards;
    options.seed = seed;
    options.sim = ServeConfig();
    auto reference = MatchService::Create(ins, MakeDemCom, options);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_TRUE((*reference)->SubmitAll().ok());
    auto totals = (*reference)->Drain();
    ASSERT_TRUE(totals.ok()) << totals.status().ToString();

    const ScopedTempDir temp_dir("comx_serve_wal_test");
    options.wal_dir = temp_dir.path();
    {
      auto served = MatchService::Create(ins, MakeDemCom, options);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      const int64_t half = (*served)->event_count() / 2;
      for (int64_t i = 0; i < half; ++i) {
        ASSERT_TRUE((*served)->SubmitEvent(i, nullptr).ok());
      }
      ASSERT_TRUE((*served)->FlushJournals().ok());
    }

    for (int32_t k = 0; k < shards; ++k) {
      const Instance& sub =
          (*reference)->plan().instances[static_cast<size_t>(k)];
      ASSERT_FALSE(sub.events().empty()) << "shards=" << shards << " " << k;
      std::vector<std::unique_ptr<OnlineMatcher>> owned;
      recovery::DurableOptions durable;
      durable.dir = options.wal_dir + "/shard-" + std::to_string(k);
      durable.checkpoint_every_steps = 0;
      auto outcome = recovery::RecoverAndResume(
          sub, MatchersFor(sub, MakeDemCom, &owned), ServeConfig(), seed,
          durable);
      ASSERT_TRUE(outcome.ok())
          << "shards=" << shards << " shard " << k << ": "
          << outcome.status().ToString();
      EXPECT_FALSE(outcome->crashed);
      EXPECT_GT(outcome->stats.replayed_records, 0)
          << "shards=" << shards << " shard " << k;
      for (const check::OracleViolation& v : check::CheckRecoveryEquivalence(
               totals->shard_results[static_cast<size_t>(k)],
               outcome->result)) {
        ADD_FAILURE() << "shards=" << shards << " shard " << k << " "
                      << v.oracle << ": " << v.detail;
      }
    }
  }
}

TEST(MatchServiceTest, BatchModeWithWalDirIsRefused) {
  // Window steps carry no per-request decision records, so a batch shard
  // cannot journal: Create fails before any shard writes a wal.log. The
  // same batch service without a WAL runs.
  const Instance ins = SmallSynthetic();
  ServiceOptions options;
  options.shards = 2;
  options.sim = ServeConfig();
  options.sim.batch_mode = true;
  options.sim.batch_window_seconds = 30.0;
  const ScopedTempDir temp_dir("comx_serve_wal_test");
  options.wal_dir = temp_dir.path();
  auto service = MatchService::Create(ins, MakeTota, options);
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument)
      << service.status().ToString();
  for (int32_t k = 0; k < options.shards; ++k) {
    EXPECT_NE(::access(ShardWalPath(options.wal_dir, k).c_str(), F_OK), 0)
        << "shard " << k;
  }

  options.wal_dir.clear();
  auto plain = MatchService::Create(ins, MakeTota, options);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE((*plain)->SubmitAll().ok());
  auto totals = (*plain)->Drain();
  ASSERT_TRUE(totals.ok()) << totals.status().ToString();
  EXPECT_GT(totals->assignments, 0);
}

}  // namespace
}  // namespace serve
}  // namespace comx
