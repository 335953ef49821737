// Checkpoint store corruption handling (src/recovery/checkpoint.h):
// flipped bits, truncations, and zero-length files must fail the CRC/
// length validation with a loud DataLoss and fall back across
// generations, never load silently wrong state.

#include "recovery/checkpoint.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "gtest/gtest.h"
#include "testing/temp_dir.h"

namespace comx {
namespace recovery {
namespace {

using testing_fixtures::ScopedTempDir;

CheckpointMeta MakeMeta(int64_t generation) {
  CheckpointMeta meta;
  meta.generation = generation;
  meta.next_lsn = 100 + static_cast<uint64_t>(generation);
  meta.wal_bytes = 4096 * generation;
  meta.step_index = 10 * generation;
  meta.seed = 0xFEEDFACEull;
  meta.instance_digest = 0xAAAAull;
  meta.config_digest = 0xBBBBull;
  return meta;
}

std::string MakeState(int64_t generation) {
  std::string state = "engine-state-gen-" + std::to_string(generation);
  state.append(512, static_cast<char>('A' + generation % 26));
  return state;
}

void WriteGeneration(const std::string& dir, int64_t generation) {
  const Status s =
      WriteCheckpoint(dir, MakeMeta(generation), MakeState(generation),
                      /*crash=*/nullptr);
  ASSERT_TRUE(s.ok()) << s.ToString();
}

void CorruptFile(const std::string& path, int64_t byte_offset,
                 uint8_t xor_mask) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fseek(f, static_cast<long>(byte_offset), SEEK_SET), 0);
  int ch = std::fgetc(f);
  ASSERT_NE(ch, EOF);
  ASSERT_EQ(std::fseek(f, static_cast<long>(byte_offset), SEEK_SET), 0);
  ASSERT_NE(std::fputc(ch ^ xor_mask, f), EOF);
  ASSERT_EQ(std::fclose(f), 0);
}

int64_t FileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return -1;
  std::fseek(f, 0, SEEK_END);
  const long n = std::ftell(f);
  std::fclose(f);
  return n;
}

TEST(CheckpointTest, WriteLoadRoundTrip) {
  const ScopedTempDir temp_dir("comx_ckpt_test");
  const std::string dir = temp_dir.path();
  WriteGeneration(dir, 5);
  auto loaded = LoadCheckpoint(CheckpointPath(dir, 5));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->meta.generation, 5);
  EXPECT_EQ(loaded->meta.next_lsn, 105u);
  EXPECT_EQ(loaded->meta.wal_bytes, 4096 * 5);
  EXPECT_EQ(loaded->meta.step_index, 50);
  EXPECT_EQ(loaded->meta.seed, 0xFEEDFACEull);
  EXPECT_EQ(loaded->state, MakeState(5));
  EXPECT_EQ(loaded->file_bytes, FileBytes(CheckpointPath(dir, 5)));
}

TEST(CheckpointTest, FindPicksNewestValidGeneration) {
  const ScopedTempDir temp_dir("comx_ckpt_test");
  const std::string dir = temp_dir.path();
  WriteGeneration(dir, 1);
  WriteGeneration(dir, 2);
  WriteGeneration(dir, 3);
  auto pick = FindLatestValidCheckpoint(dir);
  ASSERT_TRUE(pick.ok()) << pick.status().ToString();
  ASSERT_TRUE(pick->best.has_value());
  EXPECT_EQ(pick->best->meta.generation, 3);
  EXPECT_EQ(pick->fallbacks, 0);
  EXPECT_TRUE(pick->rejected.empty());
}

TEST(CheckpointTest, FlippedBitFailsLoadAndFallsBackOneGeneration) {
  const ScopedTempDir temp_dir("comx_ckpt_test");
  const std::string dir = temp_dir.path();
  WriteGeneration(dir, 1);
  WriteGeneration(dir, 2);
  // Flip a bit in the middle of the newest file's body.
  const std::string newest = CheckpointPath(dir, 2);
  CorruptFile(newest, FileBytes(newest) / 2, 0x08);

  EXPECT_EQ(LoadCheckpoint(newest).status().code(), StatusCode::kDataLoss);

  auto pick = FindLatestValidCheckpoint(dir);
  ASSERT_TRUE(pick.ok());
  ASSERT_TRUE(pick->best.has_value());
  EXPECT_EQ(pick->best->meta.generation, 1);
  EXPECT_EQ(pick->fallbacks, 1);
  ASSERT_EQ(pick->rejected.size(), 1u);
  EXPECT_NE(pick->rejected[0].find("checkpoint-000002"), std::string::npos)
      << pick->rejected[0];
}

TEST(CheckpointTest, TruncatedAndZeroLengthFilesAreRejectedLoudly) {
  const ScopedTempDir temp_dir("comx_ckpt_test");
  const std::string dir = temp_dir.path();
  WriteGeneration(dir, 1);
  WriteGeneration(dir, 2);
  WriteGeneration(dir, 3);
  // Gen 3: cut to half its bytes (a torn copy; the store itself never
  // installs a torn file, but disks do worse).
  const std::string gen3 = CheckpointPath(dir, 3);
  ASSERT_EQ(::truncate(gen3.c_str(), FileBytes(gen3) / 2), 0);
  // Gen 2: zero-length.
  ASSERT_EQ(::truncate(CheckpointPath(dir, 2).c_str(), 0), 0);

  EXPECT_EQ(LoadCheckpoint(gen3).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(LoadCheckpoint(CheckpointPath(dir, 2)).status().code(),
            StatusCode::kDataLoss);

  auto pick = FindLatestValidCheckpoint(dir);
  ASSERT_TRUE(pick.ok());
  ASSERT_TRUE(pick->best.has_value());
  EXPECT_EQ(pick->best->meta.generation, 1);
  EXPECT_EQ(pick->fallbacks, 2);
  EXPECT_EQ(pick->rejected.size(), 2u);
}

TEST(CheckpointTest, AllGenerationsCorruptMeansNoPick) {
  const ScopedTempDir temp_dir("comx_ckpt_test");
  const std::string dir = temp_dir.path();
  WriteGeneration(dir, 1);
  const std::string path = CheckpointPath(dir, 1);
  CorruptFile(path, 0, 0xFF);  // smash the magic
  auto pick = FindLatestValidCheckpoint(dir);
  ASSERT_TRUE(pick.ok());
  EXPECT_FALSE(pick->best.has_value());
  EXPECT_EQ(pick->fallbacks, 1);
}

TEST(CheckpointTest, EmptyDirectoryIsNotAnError) {
  const ScopedTempDir temp_dir("comx_ckpt_test");
  const std::string dir = temp_dir.path();
  auto pick = FindLatestValidCheckpoint(dir);
  ASSERT_TRUE(pick.ok());
  EXPECT_FALSE(pick->best.has_value());
  EXPECT_EQ(pick->fallbacks, 0);
}

TEST(CheckpointTest, RemoveOldCheckpointsKeepsNewest) {
  const ScopedTempDir temp_dir("comx_ckpt_test");
  const std::string dir = temp_dir.path();
  for (int64_t gen = 1; gen <= 4; ++gen) WriteGeneration(dir, gen);
  ASSERT_TRUE(RemoveOldCheckpoints(dir, 2).ok());
  EXPECT_EQ(FileBytes(CheckpointPath(dir, 1)), -1);
  EXPECT_EQ(FileBytes(CheckpointPath(dir, 2)), -1);
  EXPECT_GT(FileBytes(CheckpointPath(dir, 3)), 0);
  EXPECT_GT(FileBytes(CheckpointPath(dir, 4)), 0);
}

TEST(CheckpointTest, MidWriteCrashLeavesNoInstalledCheckpoint) {
  const ScopedTempDir temp_dir("comx_ckpt_test");
  const std::string dir = temp_dir.path();
  CrashPoint point;
  point.kind = CrashPoint::Kind::kCheckpoint;
  point.checkpoint_gen = 7;
  point.checkpoint_offset = 24;  // tear inside the staging write
  CrashInjector injector(point);

  const Status s =
      WriteCheckpoint(dir, MakeMeta(7), MakeState(7), &injector);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_TRUE(injector.fired());
  // The torn staging file was never renamed into place, so the store sees
  // no generation at all.
  EXPECT_EQ(FileBytes(CheckpointPath(dir, 7)), -1);
  auto pick = FindLatestValidCheckpoint(dir);
  ASSERT_TRUE(pick.ok());
  EXPECT_FALSE(pick->best.has_value());
}

}  // namespace
}  // namespace recovery
}  // namespace comx
