// Scoped timing spans feeding per-phase latency histograms and the
// hierarchical span profiler.
//
//   void DemCom::OnRequest(...) {
//     ...
//     { COMX_SPAN("pricing_estimate"); estimate = ...; }
//   }
//
// Each COMX_SPAN site interns one log-linear LatencyHistogram named
// comx_span_seconds{phase="<name>"} plus one profiler site id on first
// execution. A live span then records, on scope exit:
//   - total wall nanoseconds into the flat per-phase histogram, and
//   - (count, total, self) into the profiler node for its call *path* —
//     nested spans move a thread-local cursor through the call tree, and
//     self time is total minus the sum of direct children's totals
//     (measured with the same clock reads, so the decomposition is exact).
//
// Gating: entering a scope samples SpansEnabled() once — a relaxed load +
// branch when disabled, with no clock read. Spans are off unless
// obs::SetCollectionEnabled(true) is active AND SetSpansDisabled(true) has
// not switched them off.
//
// ScopedSpan::Stop() is idempotent: the destructor after an explicit
// Stop(), or a second Stop(), is a no-op, so a span can never double-
// record or corrupt the thread's span stack.

#ifndef COMX_OBS_SPAN_H_
#define COMX_OBS_SPAN_H_

#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "util/timer.h"

namespace comx {
namespace obs {

namespace internal {
extern std::atomic<bool> g_spans_disabled;
}  // namespace internal

/// True when span recording is active: global collection on and spans not
/// disabled via SetSpansDisabled. Two relaxed loads.
inline bool SpansEnabled() {
  return CollectionEnabled() &&
         !internal::g_spans_disabled.load(std::memory_order_relaxed);
}

/// Switches span recording off (or back on) while collection stays on
/// (tests and the span-overhead microbench).
void SetSpansDisabled(bool disabled);

/// One static span site: resolves the phase histogram and profiler site
/// id once.
class SpanSite {
 public:
  explicit SpanSite(const char* phase);
  LatencyHistogram* histogram() const { return histogram_; }
  int site() const { return site_; }

 private:
  LatencyHistogram* histogram_;
  int site_;
};

/// RAII timer recording into a SpanSite's histogram and profiler node.
class ScopedSpan {
 public:
  explicit ScopedSpan(const SpanSite& site) {
    if (SpansEnabled()) Begin(site);
  }
  ~ScopedSpan() { Stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span early. Idempotent: later calls (including the
  /// destructor) are no-ops.
  void Stop();

 private:
  void Begin(const SpanSite& site);

  LatencyHistogram* histogram_ = nullptr;  // null <=> inactive
  int32_t node_ = kProfilerInvalidNode;
  int32_t prev_node_ = kProfilerRootNode;
  int64_t child_nanos_ = 0;       // sum of direct children's totals
  int64_t* parent_child_acc_ = nullptr;
  Stopwatch watch_;
};

}  // namespace obs
}  // namespace comx

#define COMX_SPAN_CONCAT_INNER(a, b) a##b
#define COMX_SPAN_CONCAT(a, b) COMX_SPAN_CONCAT_INNER(a, b)

/// Times the rest of the enclosing scope as phase `phase` (string literal).
#define COMX_SPAN(phase)                                       \
  static const ::comx::obs::SpanSite COMX_SPAN_CONCAT(         \
      comx_span_site_, __LINE__)(phase);                       \
  ::comx::obs::ScopedSpan COMX_SPAN_CONCAT(                    \
      comx_span_scope_, __LINE__)(COMX_SPAN_CONCAT(            \
      comx_span_site_, __LINE__))

#endif  // COMX_OBS_SPAN_H_
