#include "probes.h"

#include <cstdio>

#include "stats.h"
#include "util/string_util.h"

namespace perfbench {

using comx::Status;
using comx::StrFormat;

int32_t SpanLog::Open(SpanKind kind, int64_t request) {
  Span s;
  s.kind = kind;
  s.request = request;
  s.parent = open_.empty() ? -1 : open_.back();
  const int32_t id = static_cast<int32_t>(spans_.size());
  spans_.push_back(s);
  open_.push_back(id);
  spans_.back().start_ns = NowNanos();
  return id;
}

void SpanLog::Close(int32_t id, uint8_t tag, int32_t count) {
  const int64_t end = NowNanos();
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_ns = end;
  s.tag = tag;
  s.count = count;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

Status SpanLog::CheckNesting() const {
  if (!open_.empty()) {
    return Status::FailedPrecondition(
        StrFormat("%zu spans never closed", open_.size()));
  }
  std::vector<int64_t> last_child_end(spans_.size(), 0);
  int64_t last_root_end = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) {
      return Status::FailedPrecondition(
          StrFormat("span %zu ends before it starts", i));
    }
    int64_t& prev_end =
        s.parent < 0 ? last_root_end
                     : last_child_end[static_cast<size_t>(s.parent)];
    if (s.start_ns < prev_end) {
      return Status::FailedPrecondition(
          StrFormat("span %zu overlaps its previous sibling", i));
    }
    prev_end = s.end_ns;
    if (s.parent >= 0) {
      const Span& p = spans_[static_cast<size_t>(s.parent)];
      if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
        return Status::FailedPrecondition(
            StrFormat("span %zu is not inside its parent %d", i, s.parent));
      }
    }
  }
  return Status::OK();
}

Status SpanLog::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  std::fprintf(f, "start_ns,end_ns,parent,kind,tag,flag,count,request\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%lld,%lld,%d,%d,%d,%d,%d,%lld\n",
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<int>(s.kind), s.tag, s.flag, s.count,
                 static_cast<long long>(s.request));
  }
  if (std::fclose(f) != 0) return Status::IoError("cannot close " + path);
  return Status::OK();
}

std::vector<comx::WorkerId> TracedView::FeasibleInnerWorkers(
    const comx::Request& r) const {
  const int32_t id = log_->Open(SpanKind::kInnerScan, r.id);
  std::vector<comx::WorkerId> out = inner_->FeasibleInnerWorkers(r);
  log_->Close(id, 0, static_cast<int32_t>(out.size()));
  return out;
}

std::vector<comx::WorkerId> TracedView::FeasibleOuterWorkers(
    const comx::Request& r) const {
  const int32_t id = log_->Open(SpanKind::kOuterScan, r.id);
  std::vector<comx::WorkerId> out = inner_->FeasibleOuterWorkers(r);
  log_->Close(id, 0, static_cast<int32_t>(out.size()));
  return out;
}

double TracedView::DistanceTo(comx::WorkerId w, const comx::Request& r) const {
  const int32_t id = log_->Open(SpanKind::kDistance, r.id);
  const double d = inner_->DistanceTo(w, r);
  log_->Close(id, 0, 1);
  return d;
}

void TracedView::BatchDistanceTo(const std::vector<comx::WorkerId>& ids,
                                 const comx::Request& r,
                                 std::vector<double>* out) const {
  const int32_t id = log_->Open(SpanKind::kBatchDistance, r.id);
  inner_->BatchDistanceTo(ids, r, out);
  log_->Close(id, 0, static_cast<int32_t>(ids.size()));
}

comx::Decision TracedMatcher::OnRequest(const comx::Request& r,
                                        const comx::PlatformView& view) {
  const TracedView traced(view, log_);
  const int32_t id = log_->Open(SpanKind::kOnRequest, r.id);
  comx::Decision d = inner_->OnRequest(r, traced);
  log_->Close(id, static_cast<uint8_t>(d.kind), 0);
  log_->decisions().push_back({d.kind, d.attempted_outer, d.stats});
  return d;
}

}  // namespace perfbench
