// Line framing (src/serve/line_framer.h): lines split across reads, CRLF,
// blank lines, and the cap on an unterminated line — reported once, skipped
// to its newline, and never buffered past the cap plus one read.

#include "serve/line_framer.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace comx {
namespace serve {
namespace {

// comx_serve reads at most this many bytes per read().
constexpr size_t kReadBytes = 1 << 16;

// Pops until kNone; too-long reports appear as "<too long>".
std::vector<std::string> Drain(LineFramer* framer) {
  std::vector<std::string> out;
  std::string line;
  for (Frame frame; (frame = framer->Pop(&line)) != Frame::kNone;) {
    out.push_back(frame == Frame::kTooLong ? "<too long>" : line);
  }
  return out;
}

using Lines = std::vector<std::string>;

TEST(LineFramerTest, LineSplitAcrossReads) {
  LineFramer framer;
  framer.Append("S 1");
  EXPECT_EQ(Drain(&framer), Lines{});
  framer.Append("2\nHEL");
  EXPECT_EQ(Drain(&framer), Lines{"S 12"});
  framer.Append("LO\nS 13\n");
  EXPECT_EQ(Drain(&framer), (Lines{"HELLO", "S 13"}));
  EXPECT_EQ(framer.buffered(), 0u);
}

TEST(LineFramerTest, StripsOneCarriageReturn) {
  LineFramer framer;
  framer.Append("S 1\r\nSTATS\r");
  EXPECT_EQ(Drain(&framer), Lines{"S 1"});
  framer.Append("\nQUIT\r\r\n");
  EXPECT_EQ(Drain(&framer), (Lines{"STATS", "QUIT\r"}));
}

TEST(LineFramerTest, SkipsBlankLines) {
  LineFramer framer;
  framer.Append("\n\r\n\nHELLO\n\n");
  EXPECT_EQ(Drain(&framer), Lines{"HELLO"});
}

TEST(LineFramerTest, LineAtTheCapIsKept) {
  LineFramer framer;
  const std::string longest(kMaxLineBytes, 'x');
  framer.Append(longest + "\n");
  EXPECT_EQ(Drain(&framer), Lines{longest});
}

TEST(LineFramerTest, OverlongLineInOneReadIsReportedOnce) {
  LineFramer framer;
  framer.Append(std::string(kMaxLineBytes + 1, 'x') + "\nS 0\n");
  EXPECT_EQ(Drain(&framer), (Lines{"<too long>", "S 0"}));
}

TEST(LineFramerTest, OverlongUnterminatedLineThenValidSubmission) {
  LineFramer framer;
  const std::string junk(4096, 'x');
  int too_long = 0;
  // Well past the cap, in reads too small to cross it on their own.
  for (size_t sent = 0; sent < 3 * kMaxLineBytes; sent += junk.size()) {
    framer.Append(junk);
    for (const std::string& line : Drain(&framer)) {
      ASSERT_EQ(line, "<too long>");
      ++too_long;
    }
  }
  EXPECT_EQ(too_long, 1);
  framer.Append("xxx\nS 5\n");
  EXPECT_EQ(Drain(&framer), Lines{"S 5"});
}

TEST(LineFramerTest, BufferNeverExceedsTheCapPlusOneRead) {
  LineFramer framer;
  const std::string read(kReadBytes, 'y');
  for (int i = 0; i < 32; ++i) {  // 2 MiB with no newline
    framer.Append(read);
    EXPECT_LE(framer.buffered(), kMaxLineBytes + kReadBytes) << "read " << i;
    const Lines want = i == 1 ? Lines{"<too long>"} : Lines{};
    EXPECT_EQ(Drain(&framer), want) << "read " << i;
    EXPECT_LE(framer.buffered(), kMaxLineBytes) << "read " << i;
  }
  framer.Append("\nHELLO\n");
  EXPECT_EQ(Drain(&framer), Lines{"HELLO"});
  EXPECT_EQ(framer.buffered(), 0u);
}

}  // namespace
}  // namespace serve
}  // namespace comx
