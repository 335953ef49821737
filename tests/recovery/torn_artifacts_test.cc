// Torn-artifact tolerance outside the WAL: the lenient trace reader
// (obs/trace.h) must drop exactly one unterminated final line with a
// warning — and only in lenient mode — while mid-file corruption stays a
// hard error. Plus the shutdown-guard exit-code contract the CLI tools
// rely on (util/signal_guard.h).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "gtest/gtest.h"
#include "obs/trace.h"
#include "testing/temp_dir.h"
#include "util/signal_guard.h"

namespace comx {
namespace obs {
namespace {

using testing_fixtures::ScopedTempDir;

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);
}

TraceEvent MakeEvent(int64_t seq, double revenue) {
  TraceEvent e;
  e.seq = seq;
  e.time = 1.0 + static_cast<double>(seq);
  e.platform = 0;
  e.request = seq;
  e.value = revenue;
  e.outcome = "inner";
  e.worker = 100 + seq;
  e.revenue = revenue;
  return e;
}

// Two decisions plus a consistent summary, each line terminated.
std::string CleanTrace() {
  std::string out;
  out += TraceEventToJson(MakeEvent(0, 4.0)) + "\n";
  out += TraceEventToJson(MakeEvent(1, 9.0)) + "\n";
  TraceSummary summary;
  summary.events_written = 2;
  summary.assignments = 2;
  summary.platform_revenue = {13.0};
  summary.total_revenue = 13.0;
  out += TraceSummaryToJson(summary) + "\n";
  return out;
}

TEST(TornTraceTest, CleanFileReplaysWithoutWarnings) {
  const ScopedTempDir temp_dir("comx_torn_test");
  const std::string path = temp_dir.path() + "/trace.jsonl";
  WriteFileBytes(path, CleanTrace());
  auto replay = ReplayTraceFile(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->decision_events, 2);
  EXPECT_TRUE(replay->has_summary);
  EXPECT_FALSE(replay->truncated_tail);
  EXPECT_TRUE(replay->tail_warning.empty());
  EXPECT_TRUE(CheckTraceReplay(*replay).ok());
}

TEST(TornTraceTest, UnterminatedGarbageTailIsDroppedWithWarning) {
  const ScopedTempDir temp_dir("comx_torn_test");
  const std::string path = temp_dir.path() + "/trace.jsonl";
  // A writer killed mid-event: valid prefix, then a torn fragment with no
  // trailing newline.
  std::string torn = TraceEventToJson(MakeEvent(0, 4.0)) + "\n";
  torn += TraceEventToJson(MakeEvent(1, 9.0)).substr(0, 25);
  WriteFileBytes(path, torn);

  auto replay = ReplayTraceFile(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->decision_events, 1);
  EXPECT_TRUE(replay->truncated_tail);
  EXPECT_NE(replay->tail_warning.find("unterminated final line"),
            std::string::npos)
      << replay->tail_warning;

  // --strict restores the old hard-failure behavior.
  TraceReplayOptions strict;
  strict.strict = true;
  EXPECT_FALSE(ReplayTraceFile(path, strict).ok());
}

TEST(TornTraceTest, TornSummaryLineLeavesReplayWithoutSummary) {
  const ScopedTempDir temp_dir("comx_torn_test");
  const std::string path = temp_dir.path() + "/trace.jsonl";
  const std::string clean = CleanTrace();
  // Cut inside the final (summary) line, dropping its newline.
  WriteFileBytes(path, clean.substr(0, clean.size() - 10));

  auto replay = ReplayTraceFile(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->decision_events, 2);
  EXPECT_FALSE(replay->has_summary);
  EXPECT_TRUE(replay->truncated_tail);

  TraceReplayOptions strict;
  strict.strict = true;
  EXPECT_FALSE(ReplayTraceFile(path, strict).ok());
}

TEST(TornTraceTest, GarbageAfterSummaryIsToleratedOnlyUnterminated) {
  const ScopedTempDir temp_dir("comx_torn_test");
  const std::string base = temp_dir.path();
  // Unterminated junk after the summary: a torn post-summary write.
  const std::string torn_path = base + "/torn.jsonl";
  WriteFileBytes(torn_path, CleanTrace() + "{\"type\":\"dec");
  auto replay = ReplayTraceFile(torn_path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->has_summary);
  EXPECT_TRUE(replay->truncated_tail);

  // The same junk WITH a newline is not a torn write — hard error in
  // both modes.
  const std::string bad_path = base + "/bad.jsonl";
  WriteFileBytes(bad_path, CleanTrace() + "{\"type\":\"dec\n");
  EXPECT_FALSE(ReplayTraceFile(bad_path).ok());
}

TEST(TornTraceTest, MidFileCorruptionStaysAHardError) {
  const ScopedTempDir temp_dir("comx_torn_test");
  const std::string path = temp_dir.path() + "/trace.jsonl";
  // Garbage line followed by more content: not a torn tail, an error in
  // lenient mode too.
  std::string bytes = "not json at all\n";
  bytes += TraceEventToJson(MakeEvent(0, 4.0)) + "\n";
  WriteFileBytes(path, bytes);
  EXPECT_FALSE(ReplayTraceFile(path).ok());
}

TEST(ShutdownGuardTest, ExitCodesAndRegistrationContract) {
  EXPECT_EQ(ShutdownExitCode(SIGINT), 130);
  EXPECT_EQ(ShutdownExitCode(SIGTERM), 143);
  EXPECT_FALSE(ShutdownRequested());
  // Registration is bounded and idempotent-safe; over-registering must
  // not crash or overflow the slot table.
  for (int i = 0; i < kMaxShutdownFiles + 4; ++i) {
    RegisterShutdownFlushFile(stderr);
  }
  for (int i = 0; i < kMaxShutdownFiles + 4; ++i) {
    UnregisterShutdownFlushFile(stderr);
  }
}

}  // namespace
}  // namespace obs
}  // namespace comx
