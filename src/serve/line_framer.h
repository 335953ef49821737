// Line framing for comx_serve's text protocol: splits the bytes of
// successive socket reads into protocol lines, and caps how much of an
// unterminated line the server holds.
//
// A line ends at '\n'. One trailing '\r' is stripped (CRLF clients), and
// blank lines are skipped. A line with more than kMaxLineBytes bytes before
// its '\n' is reported once as too long and discarded up to its newline;
// the line after it is framed normally. A caller that pops until kNone after
// every Append therefore never buffers more than kMaxLineBytes plus the
// bytes of one Append.

#ifndef COMX_SERVE_LINE_FRAMER_H_
#define COMX_SERVE_LINE_FRAMER_H_

#include <cstddef>
#include <string>
#include <string_view>

namespace comx {
namespace serve {

/// Longest line kept, in bytes before its '\n' (a '\r' counts). Far above
/// every line the protocol defines.
inline constexpr size_t kMaxLineBytes = 64 * 1024;

/// What LineFramer::Pop found.
enum class Frame {
  kNone,     // no complete line buffered; Append more bytes
  kLine,     // one line, without its terminator
  kTooLong,  // a line over kMaxLineBytes (reported once, then discarded)
};

/// Incremental splitter over one connection's byte stream.
class LineFramer {
 public:
  /// Buffers one read's bytes.
  void Append(std::string_view bytes) { buf_.append(bytes); }

  /// Pops the next event; on kLine, `*line` holds the line.
  Frame Pop(std::string* line);

  /// Bytes held, consumed lines included until the next kNone.
  size_t buffered() const { return buf_.size(); }

 private:
  std::string buf_;
  size_t start_ = 0;         // first byte of buf_ not yet framed
  bool discarding_ = false;  // inside an overlong line already reported
};

}  // namespace serve
}  // namespace comx

#endif  // COMX_SERVE_LINE_FRAMER_H_
