// Line framing (src/serve/line_framer.h): lines split across reads, CRLF,
// blank lines, and the cap on an unterminated line — reported once, skipped
// to its newline, and never buffered past the cap plus one read. A seeded
// property test checks the same rules on random streams cut into random
// reads against a whole-stream reference splitter.

#include "serve/line_framer.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

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

// What the framer must report for `stream` as a whole: split at '\n'; a
// line over the cap is one "<too long>", any other line loses one trailing
// '\r' and is dropped when empty; an unterminated tail over the cap is one
// "<too long>" as well.
Lines ReferenceFrames(const std::string& stream) {
  Lines out;
  size_t begin = 0;
  for (size_t nl; (nl = stream.find('\n', begin)) != std::string::npos;
       begin = nl + 1) {
    std::string line = stream.substr(begin, nl - begin);
    if (line.size() > kMaxLineBytes) {
      out.push_back("<too long>");
      continue;
    }
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) out.push_back(line);
  }
  if (stream.size() - begin > kMaxLineBytes) out.push_back("<too long>");
  return out;
}

// A line body of `len` bytes: letters, spaces and a few stray '\r'.
std::string RandomLine(size_t len, Rng* rng) {
  std::string line(len, 'a' + static_cast<char>(rng->UniformInt(0, 25)));
  for (int64_t i = rng->UniformInt(0, 8); i > 0 && len > 0; --i) {
    line[rng->PickIndex(len)] = rng->Bernoulli(0.3) ? '\r' : ' ';
  }
  return line;
}

std::string RandomStream(Rng* rng) {
  std::string stream;
  for (int64_t lines = rng->UniformInt(1, 12); lines > 0; --lines) {
    const double kind = rng->NextDouble();
    size_t len;
    if (kind < 0.15) {
      len = 0;  // blank line
    } else if (kind < 0.65) {
      len = static_cast<size_t>(rng->UniformInt(1, 80));
    } else if (kind < 0.8) {  // at the cap
      len = kMaxLineBytes - 2 + static_cast<size_t>(rng->UniformInt(0, 4));
    } else {
      len = static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(2 * kMaxLineBytes)));
    }
    stream += RandomLine(len, rng);
    const double end = rng->NextDouble();
    stream += end < 0.7 ? "\n" : end < 0.9 ? "\r\n" : "\r\r\n";
  }
  if (rng->Bernoulli(0.3)) {  // an unterminated tail, possibly overlong
    stream += RandomLine(
        static_cast<size_t>(
            rng->UniformInt(0, static_cast<int64_t>(2 * kMaxLineBytes))),
        rng);
  }
  return stream;
}

TEST(LineFramerTest, RandomStreamsInRandomReadsMatchTheReferenceSplitter) {
  Rng rng(0x11E5F4A3ull);
  for (int s = 0; s < 1000; ++s) {
    const std::string stream = RandomStream(&rng);
    std::vector<size_t> newlines;
    for (size_t p = 0; (p = stream.find('\n', p)) != std::string::npos; ++p) {
      newlines.push_back(p);
    }
    LineFramer framer;
    Lines got;
    size_t next_newline = 0;
    size_t line_start = 0;  // first byte after the last '\n' read so far
    for (size_t at = 0; at < stream.size();) {
      // A read of up to 2^0 .. 2^17 bytes (2^17 is twice the cap).
      const int64_t max_read = int64_t{1} << rng.UniformInt(0, 17);
      const size_t want = static_cast<size_t>(rng.UniformInt(1, max_read));
      const size_t n = std::min(want, stream.size() - at);
      framer.Append(std::string_view(stream).substr(at, n));
      at += n;
      while (next_newline < newlines.size() && newlines[next_newline] < at) {
        line_start = newlines[next_newline++] + 1;
      }
      ASSERT_LE(framer.buffered(), kMaxLineBytes + n) << "stream " << s;
      for (std::string& line : Drain(&framer)) got.push_back(std::move(line));
      // Drained, the framer holds exactly the unterminated line so far, or
      // nothing once that line is over the cap.
      const size_t partial = at - line_start;
      ASSERT_EQ(framer.buffered(), partial > kMaxLineBytes ? 0 : partial)
          << "stream " << s;
    }
    ASSERT_EQ(got, ReferenceFrames(stream)) << "stream " << s;
  }
}

}  // namespace
}  // namespace serve
}  // namespace comx
