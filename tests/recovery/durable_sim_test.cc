// End-to-end durability: a durable run equals a plain run bit for bit, a
// run killed at an arbitrary WAL byte recovers to the same bits, corrupt
// checkpoints fall back to WAL-only replay, a tampered-but-CRC-valid
// record is caught by replay verification (the recovery-bit-exact oracle),
// and a batch-mode run is refused before it writes anything.

#include "recovery/durable_sim.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/recovery_oracles.h"
#include "check/scenario_gen.h"
#include "gtest/gtest.h"
#include "recovery/checkpoint.h"
#include "recovery/crash_injector.h"
#include "recovery/wal.h"
#include "sim/sim_engine.h"
#include "util/binio.h"
#include "util/crc32c.h"

namespace comx {
namespace recovery {
namespace {

std::string MakeTempDir() {
  char tmpl[] = "/tmp/comx_durable_test.XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string("/tmp") : std::string(dir);
}

std::string MakeSubDir(const std::string& parent, const std::string& name) {
  const std::string dir = parent + "/" + name;
  EXPECT_EQ(::mkdir(dir.c_str(), 0755), 0) << dir;
  return dir;
}

struct ScenarioFixture {
  check::Scenario scenario;
  Instance instance;
};

// First scenario of the fixed stream matching the fault-plan requirement
// (fault plans exercise the two-phase reserve/confirm WAL records).
ScenarioFixture MakeScenario(bool want_fault_plan) {
  for (uint64_t i = 0;; ++i) {
    check::Scenario s = check::DrawScenario(0x5EED2020ull, i);
    if (s.with_fault_plan != want_fault_plan) continue;
    auto instance = check::BuildScenarioInstance(s);
    if (!instance.ok()) continue;
    return {std::move(s), std::move(instance).value()};
  }
}

std::vector<OnlineMatcher*> Matchers(
    check::MatcherKind kind, int32_t platforms,
    std::vector<std::unique_ptr<OnlineMatcher>>* owned) {
  owned->clear();
  std::vector<OnlineMatcher*> raw;
  for (int32_t p = 0; p < platforms; ++p) {
    owned->push_back(check::MakeMatcher(kind));
    raw.push_back(owned->back().get());
  }
  return raw;
}

void ExpectEquivalent(const SimResult& baseline, const SimResult& other) {
  for (const check::OracleViolation& v :
       check::CheckRecoveryEquivalence(baseline, other)) {
    ADD_FAILURE() << v.oracle << ": " << v.detail;
  }
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("open " + path);
  std::string bytes;
  char chunk[4096];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.append(chunk, n);
  }
  std::fclose(f);
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);
}

TEST(DurableSimTest, DurableRunMatchesPlainRunBitExactly) {
  const ScenarioFixture fx = MakeScenario(/*want_fault_plan=*/true);
  const SimConfig sim = fx.scenario.MakeSimConfig(nullptr);
  const int32_t platforms = fx.instance.PlatformCount();
  std::vector<std::unique_ptr<OnlineMatcher>> owned;

  auto plain = RunSimulation(
      fx.instance, Matchers(check::MatcherKind::kDemCom, platforms, &owned),
      sim, fx.scenario.sim_seed);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  DurableOptions opts;
  opts.dir = MakeTempDir();
  opts.checkpoint_every_steps = 16;
  auto durable = RunDurableSimulation(
      fx.instance, Matchers(check::MatcherKind::kDemCom, platforms, &owned),
      sim, fx.scenario.sim_seed, opts);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  ASSERT_FALSE(durable->crashed);
  ExpectEquivalent(*plain, durable->result);
  EXPECT_GT(durable->stats.wal_records, 0);
  EXPECT_GT(durable->stats.wal_bytes, kWalHeaderBytes);
  EXPECT_GT(durable->stats.checkpoints, 0);

  // The completed WAL witnesses a clean two-phase history.
  auto scan = ScanWal(WalPath(opts.dir));
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->torn_tail);
  for (const check::OracleViolation& v :
       check::CheckWalCommitProtocol(scan->records)) {
    ADD_FAILURE() << v.oracle << ": " << v.detail;
  }
}

TEST(DurableSimTest, CrashAtFixedWalOffsetsRecoversBitExactly) {
  const ScenarioFixture fx = MakeScenario(/*want_fault_plan=*/true);
  const SimConfig sim = fx.scenario.MakeSimConfig(nullptr);
  const int32_t platforms = fx.instance.PlatformCount();
  std::vector<std::unique_ptr<OnlineMatcher>> owned;
  const std::string root = MakeTempDir();

  DurableOptions opts;
  opts.dir = MakeSubDir(root, "baseline");
  opts.checkpoint_every_steps = 16;
  auto baseline = RunDurableSimulation(
      fx.instance, Matchers(check::MatcherKind::kRamCom, platforms, &owned),
      sim, fx.scenario.sim_seed, opts);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const int64_t wal_bytes = baseline->stats.wal_bytes;
  ASSERT_GT(wal_bytes, kWalHeaderBytes + 4);

  // Kill inside the header, early, mid-run, and one byte short of done.
  const int64_t cuts[] = {kWalHeaderBytes - 3, kWalHeaderBytes + 5,
                          wal_bytes / 2, wal_bytes - 1};
  int case_index = 0;
  for (const int64_t cut : cuts) {
    const std::string dir =
        MakeSubDir(root, "crash_" + std::to_string(case_index++));
    CrashPoint point;
    point.kind = CrashPoint::Kind::kWalOffset;
    point.wal_offset = cut;
    CrashInjector injector(point);
    opts.dir = dir;
    opts.crash = &injector;
    auto crashed = RunDurableSimulation(
        fx.instance, Matchers(check::MatcherKind::kRamCom, platforms, &owned),
        sim, fx.scenario.sim_seed, opts);
    ASSERT_TRUE(crashed.ok()) << crashed.status().ToString();
    ASSERT_TRUE(crashed->crashed) << "cut=" << cut;

    opts.crash = nullptr;
    auto recovered = RecoverAndResume(
        fx.instance, Matchers(check::MatcherKind::kRamCom, platforms, &owned),
        sim, fx.scenario.sim_seed, opts);
    ASSERT_TRUE(recovered.ok())
        << "cut=" << cut << ": " << recovered.status().ToString();
    EXPECT_FALSE(recovered->crashed);
    ExpectEquivalent(baseline->result, recovered->result);
    EXPECT_EQ(recovered->stats.wal_bytes > 0, true);

    // After recovery the WAL reads back untorn and protocol-clean.
    auto scan = ScanWal(WalPath(dir));
    ASSERT_TRUE(scan.ok());
    EXPECT_FALSE(scan->torn_tail) << "cut=" << cut;
    for (const check::OracleViolation& v :
         check::CheckWalCommitProtocol(scan->records)) {
      ADD_FAILURE() << "cut=" << cut << " " << v.oracle << ": " << v.detail;
    }
  }
}

TEST(DurableSimTest, CorruptCheckpointsFallBackToWalOnlyReplay) {
  const ScenarioFixture fx = MakeScenario(/*want_fault_plan=*/false);
  const SimConfig sim = fx.scenario.MakeSimConfig(nullptr);
  const int32_t platforms = fx.instance.PlatformCount();
  std::vector<std::unique_ptr<OnlineMatcher>> owned;
  const std::string root = MakeTempDir();

  DurableOptions opts;
  opts.dir = MakeSubDir(root, "baseline");
  opts.checkpoint_every_steps = 8;
  opts.keep_checkpoints = 8;  // retain every generation for this test
  auto baseline = RunDurableSimulation(
      fx.instance, Matchers(check::MatcherKind::kTota, platforms, &owned),
      sim, fx.scenario.sim_seed, opts);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  // Crash late, so the crashed run has written checkpoints to corrupt.
  const std::string dir = MakeSubDir(root, "crashed");
  CrashPoint point;
  point.kind = CrashPoint::Kind::kWalOffset;
  point.wal_offset = baseline->stats.wal_bytes - 2;
  CrashInjector injector(point);
  opts.dir = dir;
  opts.crash = &injector;
  auto crashed = RunDurableSimulation(
      fx.instance, Matchers(check::MatcherKind::kTota, platforms, &owned),
      sim, fx.scenario.sim_seed, opts);
  ASSERT_TRUE(crashed.ok());
  ASSERT_TRUE(crashed->crashed);
  ASSERT_GT(crashed->stats.checkpoints, 0);

  // Flip a bit in every checkpoint generation the crashed run left.
  int corrupted = 0;
  for (;;) {
    auto pick = FindLatestValidCheckpoint(dir);
    ASSERT_TRUE(pick.ok());
    if (!pick->best.has_value()) break;
    const std::string path =
        CheckpointPath(dir, pick->best->meta.generation);
    auto bytes = ReadFileBytes(path);
    ASSERT_TRUE(bytes.ok());
    std::string mutated = *bytes;
    mutated[mutated.size() / 2] ^= 0x01;
    WriteFileBytes(path, mutated);
    ++corrupted;
  }
  ASSERT_GT(corrupted, 0);

  // Recovery must reject every generation, replay the whole WAL, and
  // still land on the baseline bits.
  opts.crash = nullptr;
  auto recovered = RecoverAndResume(
      fx.instance, Matchers(check::MatcherKind::kTota, platforms, &owned),
      sim, fx.scenario.sim_seed, opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->stats.recovered_generation, -1);
  EXPECT_EQ(recovered->stats.checkpoint_fallbacks, corrupted);
  ExpectEquivalent(baseline->result, recovered->result);
}

TEST(DurableSimTest, TamperedRecordWithValidCrcIsCaughtByReplay) {
  const ScenarioFixture fx = MakeScenario(/*want_fault_plan=*/false);
  const SimConfig sim = fx.scenario.MakeSimConfig(nullptr);
  const int32_t platforms = fx.instance.PlatformCount();
  std::vector<std::unique_ptr<OnlineMatcher>> owned;

  DurableOptions opts;
  opts.dir = MakeTempDir();
  opts.checkpoint_every_steps = 0;  // WAL-only: every record is replayed
  auto baseline = RunDurableSimulation(
      fx.instance, Matchers(check::MatcherKind::kTota, platforms, &owned),
      sim, fx.scenario.sim_seed, opts);
  ASSERT_TRUE(baseline.ok());

  // Walk the frames and tamper the LAST byte of the first kDecision
  // payload (past the lsn field, so the for_compare encoding sees it),
  // then re-seal the frame with a freshly computed masked CRC. The scan
  // cannot notice; only replay verification can.
  const std::string wal = WalPath(opts.dir);
  auto bytes = ReadFileBytes(wal);
  ASSERT_TRUE(bytes.ok());
  std::string mutated = *bytes;
  size_t at = static_cast<size_t>(kWalHeaderBytes);
  bool tampered = false;
  while (at + static_cast<size_t>(kWalFrameOverhead) <= mutated.size()) {
    uint32_t len = 0;
    std::memcpy(&len, mutated.data() + at, sizeof(len));
    const size_t payload_at = at + static_cast<size_t>(kWalFrameOverhead);
    ASSERT_LE(payload_at + len, mutated.size());
    if (static_cast<uint8_t>(mutated[payload_at]) ==
        static_cast<uint8_t>(WalRecordType::kDecision)) {
      mutated[payload_at + len - 1] ^= 0x01;
      const uint32_t crc =
          Crc32cMask(Crc32c(mutated.data() + payload_at, len));
      std::memcpy(mutated.data() + at + sizeof(len), &crc, sizeof(crc));
      tampered = true;
      break;
    }
    at = payload_at + len;
  }
  ASSERT_TRUE(tampered) << "no kDecision record found to tamper";
  WriteFileBytes(wal, mutated);

  // The scan itself accepts the forged frame...
  auto scan = ScanWal(wal);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->torn_tail);

  // ...but recovery's byte-for-byte replay verification refuses it.
  auto recovered = RecoverAndResume(
      fx.instance, Matchers(check::MatcherKind::kTota, platforms, &owned),
      sim, fx.scenario.sim_seed, opts);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kDataLoss)
      << recovered.status().ToString();
}

TEST(DurableSimTest, BatchModeIsRefused) {
  // A batch run's window enqueue and flush steps carry no per-request
  // decision records, so its WAL could neither be replayed nor rebuilt
  // into a trace. Both entry points refuse the mode before wal.log exists,
  // with and without checkpoints.
  const ScenarioFixture fx = MakeScenario(/*want_fault_plan=*/false);
  const SimConfig sim = fx.scenario.MakeSimConfig(nullptr, /*batch=*/true);
  ASSERT_TRUE(sim.batch_mode);
  const int32_t platforms = fx.instance.PlatformCount();
  std::vector<std::unique_ptr<OnlineMatcher>> owned;
  for (const int64_t cadence : {0, 16}) {
    DurableOptions opts;
    opts.dir = MakeTempDir();
    opts.checkpoint_every_steps = cadence;
    auto run = RunDurableSimulation(
        fx.instance, Matchers(check::MatcherKind::kTota, platforms, &owned),
        sim, fx.scenario.sim_seed, opts);
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument)
        << "cadence=" << cadence << ": " << run.status().ToString();
    auto recovered = RecoverAndResume(
        fx.instance, Matchers(check::MatcherKind::kTota, platforms, &owned),
        sim, fx.scenario.sim_seed, opts);
    EXPECT_EQ(recovered.status().code(), StatusCode::kInvalidArgument)
        << "cadence=" << cadence << ": " << recovered.status().ToString();
    struct stat st;
    EXPECT_NE(::stat(WalPath(opts.dir).c_str(), &st), 0)
        << "cadence=" << cadence << ": wal.log was created";
  }
}

TEST(DurableSimTest, CrashRecoveryCheckPassesAcrossSeedsAndKinds) {
  const ScenarioFixture fx = MakeScenario(/*want_fault_plan=*/true);
  const std::string root = MakeTempDir();
  for (uint64_t j = 0; j < 4; ++j) {
    const check::MatcherKind kind = check::kAllMatcherKinds[j % 3];
    auto outcome = check::RunCrashRecoveryCheck(
        kind, fx.scenario, fx.instance, root + "/p" + std::to_string(j),
        /*crash_seed=*/0x9E3779B9ull + j, /*checkpoint_every_steps=*/16);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    for (const check::OracleViolation& v : outcome->violations) {
      ADD_FAILURE() << "seed " << j << " " << v.oracle << ": " << v.detail
                    << " at " << outcome->point.ToString();
    }
  }
}

TEST(SimEngineStateTest, SaveRestoreMidRunContinuesBitExactly) {
  const ScenarioFixture fx = MakeScenario(/*want_fault_plan=*/true);
  const SimConfig sim = fx.scenario.MakeSimConfig(nullptr);
  const int32_t platforms = fx.instance.PlatformCount();
  std::vector<std::unique_ptr<OnlineMatcher>> owned_a;
  std::vector<std::unique_ptr<OnlineMatcher>> owned_b;

  // One throwaway run to learn the step count, so the snapshot lands
  // mid-run whatever size the drawn scenario is.
  int64_t total_steps = 0;
  {
    std::vector<std::unique_ptr<OnlineMatcher>> owned;
    SimEngine probe;
    ASSERT_TRUE(probe
                    .Init(fx.instance,
                          Matchers(check::MatcherKind::kDemCom, platforms,
                                   &owned),
                          sim, fx.scenario.sim_seed)
                    .ok());
    while (!probe.Done()) {
      ASSERT_TRUE(probe.Step(nullptr).ok());
      ++total_steps;
    }
    probe.Finish();
  }
  ASSERT_GT(total_steps, 2) << "fixture too small to snapshot mid-run";
  const int64_t snapshot_step = total_steps / 2;

  // Engine A: run halfway, snapshot, then run to completion.
  SimEngine a;
  ASSERT_TRUE(a.Init(fx.instance,
                     Matchers(check::MatcherKind::kDemCom, platforms,
                              &owned_a),
                     sim, fx.scenario.sim_seed)
                  .ok());
  int64_t steps = 0;
  std::string snapshot;
  uint64_t digest_at_snapshot = 0;
  while (!a.Done()) {
    if (steps == snapshot_step) {
      ByteWriter w;
      ASSERT_TRUE(a.SaveState(&w).ok());
      snapshot = w.Take();
      digest_at_snapshot = a.StateDigest();
    }
    ASSERT_TRUE(a.Step(nullptr).ok());
    ++steps;
  }
  const SimResult result_a = a.Finish();

  // Engine B: identical Init, restore the snapshot, finish the run.
  SimEngine b;
  ASSERT_TRUE(b.Init(fx.instance,
                     Matchers(check::MatcherKind::kDemCom, platforms,
                              &owned_b),
                     sim, fx.scenario.sim_seed)
                  .ok());
  ByteReader r(snapshot);
  ASSERT_TRUE(b.RestoreState(&r).ok());
  EXPECT_EQ(b.step_index(), snapshot_step);
  EXPECT_EQ(b.StateDigest(), digest_at_snapshot);
  while (!b.Done()) ASSERT_TRUE(b.Step(nullptr).ok());
  const SimResult result_b = b.Finish();

  ExpectEquivalent(result_a, result_b);
}

}  // namespace
}  // namespace recovery
}  // namespace comx
