#include "serve/line_framer.h"

namespace comx {
namespace serve {

Frame LineFramer::Pop(std::string* line) {
  for (;;) {
    const size_t nl = buf_.find('\n', start_);
    if (nl == std::string::npos) {
      // Keep only the unterminated tail, and at most the cap of it.
      buf_.erase(0, start_);
      start_ = 0;
      if (discarding_) {
        buf_.clear();
        return Frame::kNone;
      }
      if (buf_.size() > kMaxLineBytes) {
        buf_.clear();
        discarding_ = true;
        return Frame::kTooLong;
      }
      return Frame::kNone;
    }
    const size_t begin = start_;
    start_ = nl + 1;
    if (discarding_) {  // the end of a line reported as too long
      discarding_ = false;
      continue;
    }
    size_t len = nl - begin;
    if (len > kMaxLineBytes) return Frame::kTooLong;
    if (len > 0 && buf_[begin + len - 1] == '\r') --len;
    if (len == 0) continue;  // blank line
    line->assign(buf_, begin, len);
    return Frame::kLine;
  }
}

}  // namespace serve
}  // namespace comx
