// Layer probes: forwarding decorators around the program's public layer
// interfaces, so every layer is timed from outside without instrumenting
// the program itself.
//
//   Step         (sim)   the benchmark opens a span around SimEngine::Step
//   OnRequest    (core)  TracedMatcher wraps each platform's OnlineMatcher
//   view calls   (geo)   TracedView wraps the PlatformView the engine hands
//                        to OnRequest (candidate scans + distance kernels)
//
// Spans nest strictly (one thread, call stack order), are kept in memory,
// and are written out once at the end of the run. A layer's self time is
// its span's duration minus the time its child spans cover.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/online_matcher.h"
#include "util/status.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  kStep = 0,
  kOnRequest = 1,
  kInnerScan = 2,
  kOuterScan = 3,
  kDistance = 4,
  kBatchDistance = 5,
};

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span in the log; -1 for a root (Step) span.
  int32_t parent = -1;
  SpanKind kind = SpanKind::kStep;
  /// kStep: comx::StepRecord::Kind; kOnRequest: comx::Decision::Kind.
  uint8_t tag = 0;
  /// kStep: 1 for a worker re-arrival. Otherwise unused.
  uint8_t flag = 0;
  /// Candidates returned (scans), distances computed (distance calls),
  /// requests decided (a batch flush step).
  int32_t count = 0;
  /// Request id shared by every span of one request; -1 for arrivals and
  /// batch flushes.
  int64_t request = -1;
};

/// Per-request pricing by-product copied from the Decision the matcher
/// returned (plain fields; no clocks).
struct DecisionSample {
  comx::Decision::Kind kind = comx::Decision::Kind::kReject;
  bool attempted_outer = false;
  comx::DecisionStats stats;
};

/// In-memory span recorder for one thread.
class SpanLog {
 public:
  /// Starts a span nested in the innermost open one; returns its index.
  int32_t Open(SpanKind kind, int64_t request);
  /// Ends the innermost open span, which must be `id`.
  void Close(int32_t id, uint8_t tag, int32_t count);
  Span& at(int32_t id) { return spans_[static_cast<size_t>(id)]; }

  const std::vector<Span>& spans() const { return spans_; }
  std::vector<DecisionSample>& decisions() { return decisions_; }
  const std::vector<DecisionSample>& decisions() const { return decisions_; }

  /// Checks that every span ended, lies inside its parent and after its
  /// previous sibling; returns the first violation.
  comx::Status CheckNesting() const;

  /// Writes the spans as CSV (start_ns,end_ns,parent,kind,tag,flag,count,
  /// request), one line per span.
  comx::Status WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  std::vector<DecisionSample> decisions_;
};

/// Forwarding PlatformView: one span per scan / distance call.
class TracedView : public comx::PlatformView {
 public:
  TracedView(const comx::PlatformView& inner, SpanLog* log)
      : inner_(&inner), log_(log) {}

  std::vector<comx::WorkerId> FeasibleInnerWorkers(
      const comx::Request& r) const override;
  std::vector<comx::WorkerId> FeasibleOuterWorkers(
      const comx::Request& r) const override;
  double DistanceTo(comx::WorkerId w, const comx::Request& r) const override;
  void BatchDistanceTo(const std::vector<comx::WorkerId>& ids,
                       const comx::Request& r,
                       std::vector<double>* out) const override;
  const comx::Instance& instance() const override { return inner_->instance(); }
  const comx::AcceptanceModel& acceptance() const override {
    return inner_->acceptance();
  }

 private:
  const comx::PlatformView* inner_;
  SpanLog* log_;
};

/// Forwarding OnlineMatcher: a span per OnRequest, the view wrapped in a
/// TracedView, and the returned Decision's pricing by-product kept.
class TracedMatcher : public comx::OnlineMatcher {
 public:
  TracedMatcher(comx::OnlineMatcher* inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  void Reset(const comx::Instance& instance, comx::PlatformId platform,
             uint64_t seed) override {
    inner_->Reset(instance, platform, seed);
  }
  comx::Decision OnRequest(const comx::Request& r,
                           const comx::PlatformView& view) override;
  std::string name() const override { return inner_->name(); }

 private:
  comx::OnlineMatcher* inner_;
  SpanLog* log_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
