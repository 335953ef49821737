// Hierarchical span profiler: attributes wall time to a tree of span
// sites so nested COMX_SPAN scopes (e.g. decide -> pricing_estimate ->
// mer_price -> ecdf_scan) record self-time vs total-time per call path,
// not just flat per-phase totals.
//
// Model: every thread carries a cursor into a process-wide call-tree.
// Entering a span moves the cursor to the child node for (current node,
// site), creating it on first visit; leaving restores the parent. A node
// therefore identifies a call *path* (the same site reached under two
// different parents is two nodes). Each node accumulates count / total /
// self nanoseconds in kShardCount sharded cells plus a per-node
// LatencyHistogram of total time, so perf_report can render p50/p99/p999
// per path. Self time is exact by construction: a span subtracts the sum
// of its direct children's totals (measured with the same clock reads)
// from its own total.
//
// The tree is append-only and bounded (kProfilerMaxNodes nodes,
// kProfilerMaxDepth depth). Beyond either bound, spans still record into
// their flat per-phase histogram but skip tree accounting. Nodes are
// never freed: SpanSite phases are string literals and the profiler is a
// process-lifetime singleton, so lock-free readers never chase a dangling
// pointer.
//
// Outputs:
//   CollapsedStacks() — flamegraph-compatible "a;b;c <self_nanos>" lines.
//   ProfileJsonl()    — one flat JSON object per node (parseable by
//                       util::ParseJsonFlatObject), consumed by
//                       tools/perf_report.

#ifndef COMX_OBS_PROFILER_H_
#define COMX_OBS_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/latency_histogram.h"
#include "util/status.h"

namespace comx {
namespace obs {

/// Node id of the synthetic root (every thread's initial cursor).
inline constexpr int32_t kProfilerRootNode = 0;
/// Sentinel for "no node": tree accounting is skipped for this span.
inline constexpr int32_t kProfilerInvalidNode = -1;

inline constexpr int kProfilerMaxSites = 256;
inline constexpr int kProfilerMaxNodes = 1024;
inline constexpr int kProfilerMaxDepth = 32;

/// Schema tag of the first line of a ProfileJsonl() dump.
inline constexpr const char* kProfileSchema = "comx-perf-profile-v1";

/// Merged view of one call-tree node. `parent` is always a smaller node
/// id (creation order), so a single forward pass resolves paths.
struct ProfileNode {
  int32_t node = 0;
  int32_t parent = kProfilerInvalidNode;
  int32_t depth = 0;
  std::string phase;  // empty for the root
  std::string path;   // "a;b;c" from the root; empty for the root
  int64_t count = 0;
  int64_t total_nanos = 0;
  int64_t self_nanos = 0;
  LatencySnapshot latency;  // distribution of total time per entry
};

class SpanProfiler {
 public:
  /// The process-wide profiler used by all COMX_SPAN sites.
  static SpanProfiler& Global();

  SpanProfiler();
  SpanProfiler(const SpanProfiler&) = delete;
  SpanProfiler& operator=(const SpanProfiler&) = delete;

  /// Interns `phase` (which must outlive the profiler — COMX_SPAN passes
  /// string literals) and returns its site id, or -1 if the site table is
  /// full (such spans skip tree accounting).
  int RegisterSite(const char* phase);

  /// Name of a registered site (empty for out-of-range ids).
  std::string SiteName(int site) const;

  /// Child of `parent` for `site`, created on first visit. Returns
  /// kProfilerInvalidNode when parent is invalid, `site` is -1, the depth
  /// cap is hit, or the node table is full. Lock-free on the hit path.
  int32_t EnterChild(int32_t parent, int site);

  /// Adds one completed span to `node`'s accounting (no-op for
  /// kProfilerInvalidNode).
  void RecordSpan(int32_t node, int64_t total_nanos, int64_t self_nanos);

  /// Merged view of every node, indexed by node id (root included at 0).
  /// Exact once span-recording threads are quiescent.
  std::vector<ProfileNode> Snapshot() const;

  /// Flamegraph collapsed-stack lines ("path self_nanos\n") for every
  /// non-root node with count > 0, in node-id order.
  std::string CollapsedStacks() const;

  /// Flat-JSONL profile dump: a schema header line, then one line per
  /// non-root node with count > 0.
  std::string ProfileJsonl() const;
  Status WriteProfile(const std::string& path) const;

  /// Zeroes all node statistics (tree structure and sites survive, so
  /// live spans keep valid node ids). For tests and phase separation.
  void ResetStats();

 private:
  struct Node;
  struct ChildLink;

  Node* NodeAt(int32_t id) const {
    return nodes_[static_cast<size_t>(id)].load(std::memory_order_acquire);
  }

  mutable std::mutex mu_;  // guards creation only; lookups are lock-free
  std::atomic<int32_t> node_count_{0};
  std::atomic<int> site_count_{0};
  std::vector<std::atomic<Node*>> nodes_;
  std::vector<std::atomic<const char*>> site_names_;
};

namespace internal {
/// The calling thread's call-tree cursor (root initially). ScopedSpan
/// saves/restores it; exposed for tests.
int32_t CurrentThreadNode();
void SetCurrentThreadNode(int32_t node);
/// Address of the innermost live span's child-time accumulator on this
/// thread (null at top level). ScopedSpan chains these to compute exact
/// self time.
int64_t** ThreadChildNanosSlot();
}  // namespace internal

}  // namespace obs
}  // namespace comx

#endif  // COMX_OBS_PROFILER_H_
