#include "obs/span.h"

#include <algorithm>

namespace comx {
namespace obs {

namespace internal {

std::atomic<bool> g_spans_disabled{false};

}  // namespace internal

void SetSpansDisabled(bool disabled) {
  internal::g_spans_disabled.store(disabled, std::memory_order_relaxed);
}

SpanSite::SpanSite(const char* phase)
    : histogram_(MetricsRegistry::Global().GetLatencyHistogram(
          MetricName("comx_span_seconds", "phase", phase),
          "Wall time of one instrumented phase (nanosecond log-linear "
          "buckets, exported as a seconds summary)")),
      site_(SpanProfiler::Global().RegisterSite(phase)) {}

void ScopedSpan::Begin(const SpanSite& site) {
  histogram_ = site.histogram();
  prev_node_ = internal::CurrentThreadNode();
  node_ = SpanProfiler::Global().EnterChild(prev_node_, site.site());
  internal::SetCurrentThreadNode(node_);
  int64_t** slot = internal::ThreadChildNanosSlot();
  parent_child_acc_ = *slot;
  *slot = &child_nanos_;
  watch_.Reset();
}

void ScopedSpan::Stop() {
  if (histogram_ == nullptr) return;  // inactive or already stopped
  const int64_t total = watch_.ElapsedNanos();
  histogram_->ObserveNanos(total);
  if (node_ != kProfilerInvalidNode) {
    SpanProfiler::Global().RecordSpan(
        node_, total, std::max<int64_t>(total - child_nanos_, 0));
  }
  if (parent_child_acc_ != nullptr) *parent_child_acc_ += total;
  *internal::ThreadChildNanosSlot() = parent_child_acc_;
  internal::SetCurrentThreadNode(prev_node_);
  histogram_ = nullptr;
}

}  // namespace obs
}  // namespace comx
