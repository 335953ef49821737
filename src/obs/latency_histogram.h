// HDR-style log-linear latency histogram: quantile-accurate (<= 2^-7 ~
// 0.79% relative bucket width), lock-free to update, and mergeable.
//
// Values are non-negative nanosecond durations. Bucketing is the classic
// log-linear scheme: values below 256 ns land in exact 1-ns buckets; above
// that, every power-of-two octave is split into 128 linear sub-buckets, so
// a bucket's width is always <= 1/128 of its lower bound. Quantiles read
// from a snapshot report the bucket's inclusive upper bound (clamped to
// the exact observed max), so the relative quantile error is bounded by
// the bucket width — the property the tests verify against a sorted-vector
// oracle.
//
// Concurrency mirrors obs::Counter: kShardCount cache-line-padded shards,
// relaxed atomic increments, merge on snapshot. Shard bucket arrays are
// allocated lazily on first use, so an idle histogram costs a few hundred
// bytes, not kLatencyBucketCount * kShardCount counters.
//
// Unlike Counter and Gauge, ObserveNanos does NOT check
// obs::CollectionEnabled(): per-run local histograms (the simulator's
// decision-latency measurement, gated on SimConfig::measure_response_time)
// must record regardless of the global metrics switch. Registry-owned
// instances are gated at the call site (ScopedSpan samples the switch on
// scope entry).

#ifndef COMX_OBS_LATENCY_HISTOGRAM_H_
#define COMX_OBS_LATENCY_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace comx {
namespace obs {

/// log2 of the sub-buckets per octave: 7 -> 128 sub-buckets, <= 0.79%
/// relative bucket width everywhere outside the exact linear region.
inline constexpr int kLatencyPrecisionBits = 7;
inline constexpr int kLatencySubBuckets = 1 << kLatencyPrecisionBits;

/// Largest trackable value: ~73 minutes in nanoseconds. Larger
/// observations clamp into the last bucket (count stays exact).
inline constexpr int64_t kLatencyMaxTrackableNanos =
    (int64_t{1} << 42) - 1;

/// Dense bucket-array size for the scheme above: the top octave
/// [2^41, 2^42) uses shift 42 - 1 - kLatencyPrecisionBits, whose largest
/// mantissa is 2^(P+1) - 1, so the last index is
/// ((42 - 1 - P) << P) + 2^(P+1) - 1 = ((42 - P + 1) << P) - 1.
inline constexpr int kLatencyBucketCount =
    ((42 - kLatencyPrecisionBits + 1) << kLatencyPrecisionBits);

/// Bucket index of a nanosecond value (negative clamps to 0, overlarge to
/// the last bucket). Monotone in `nanos`.
inline int LatencyBucketIndex(int64_t nanos) {
  uint64_t v = nanos < 0 ? 0 : static_cast<uint64_t>(nanos);
  if (v > static_cast<uint64_t>(kLatencyMaxTrackableNanos)) {
    v = static_cast<uint64_t>(kLatencyMaxTrackableNanos);
  }
  if (v < (uint64_t{1} << (kLatencyPrecisionBits + 1))) {
    return static_cast<int>(v);  // exact linear region
  }
  const int exponent = 63 - std::countl_zero(v);
  const int shift = exponent - kLatencyPrecisionBits;
  return static_cast<int>((static_cast<int64_t>(shift)
                           << kLatencyPrecisionBits) +
                          static_cast<int64_t>(v >> shift));
}

/// Inclusive lower bound of bucket `index` in nanoseconds.
inline int64_t LatencyBucketLowerNanos(int index) {
  if (index < (1 << (kLatencyPrecisionBits + 1))) return index;
  const int shift = (index >> kLatencyPrecisionBits) - 1;
  const int64_t mantissa =
      index - (static_cast<int64_t>(shift) << kLatencyPrecisionBits);
  return mantissa << shift;
}

/// Inclusive upper bound of bucket `index` in nanoseconds.
inline int64_t LatencyBucketUpperNanos(int index) {
  if (index < (1 << (kLatencyPrecisionBits + 1))) return index;
  const int shift = (index >> kLatencyPrecisionBits) - 1;
  return LatencyBucketLowerNanos(index) + (int64_t{1} << shift) - 1;
}

/// A merged, point-in-time view of one LatencyHistogram. Plain data:
/// copyable, single-threaded, and usable as a small accumulator of its own
/// (Observe) when rebuilding a histogram from recorded values — e.g.
/// trace_inspect re-deriving decision latencies from a JSONL trace.
struct LatencySnapshot {
  /// Dense per-bucket counts (kLatencyBucketCount entries) — empty until
  /// the first observation, so an idle snapshot is cheap to copy.
  std::vector<int64_t> counts;
  int64_t count = 0;
  int64_t sum_nanos = 0;
  /// Exact maximum observed value (after clamping to the trackable range).
  int64_t max_nanos = 0;

  bool empty() const { return count == 0; }

  /// Single-threaded observation (for rebuilds and tests).
  void Observe(int64_t nanos);

  /// Adds `other`'s counts into this snapshot. Associative and
  /// commutative: any merge tree over the same snapshots yields identical
  /// counts, sum, and max.
  void Merge(const LatencySnapshot& other);

  /// Value at quantile q in [0, 1]: the inclusive upper bound of the
  /// bucket holding the ceil(q * count)-th smallest observation, clamped
  /// to max_nanos. 0 when empty. Relative error vs the exact order
  /// statistic is bounded by the bucket width (<= 2^-7).
  int64_t ValueAtQuantileNanos(double q) const;

  /// ValueAtQuantileNanos in microseconds (convenience for reports).
  double QuantileMicros(double q) const {
    return static_cast<double>(ValueAtQuantileNanos(q)) / 1e3;
  }

  /// (bucket index, count) pairs for every non-empty bucket, ascending.
  std::vector<std::pair<int32_t, int64_t>> NonZeroBuckets() const;
};

/// Builds a snapshot from sparse (bucket index, count) pairs plus the
/// recorded totals — the inverse of NonZeroBuckets(), used when re-reading
/// an exported latency block. Out-of-range indices are rejected by
/// returning an empty snapshot with count -1 (callers validate).
LatencySnapshot LatencySnapshotFromSparse(
    const std::vector<std::pair<int32_t, int64_t>>& buckets, int64_t count,
    int64_t sum_nanos, int64_t max_nanos);

/// Sharded concurrent histogram. Observation cost: one bit-scan plus four
/// relaxed atomic RMWs on this thread's shard.
class LatencyHistogram {
 public:
  LatencyHistogram() = default;
  explicit LatencyHistogram(std::string name, std::string help = "")
      : name_(std::move(name)), help_(std::move(help)) {}
  ~LatencyHistogram();
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Thread-safe, unconditional record (see file comment re gating).
  void ObserveNanos(int64_t nanos);

  /// Merged view across all shards. Exact once updating threads are
  /// quiescent; a racy-but-consistent-counted estimate while they run.
  LatencySnapshot Snapshot() const;

  /// Merged observation count (cheaper than a full Snapshot).
  int64_t Count() const;

  /// Zeroes every shard (allocations are kept).
  void Reset();

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  struct alignas(64) Shard {
    /// Lazily allocated dense bucket array (kLatencyBucketCount).
    std::atomic<std::atomic<int64_t>*> counts{nullptr};
    std::atomic<int64_t> count{0};
    std::atomic<int64_t> sum{0};
    std::atomic<int64_t> max{0};
  };

  std::atomic<int64_t>* ShardCounts(Shard& shard);

  std::string name_;
  std::string help_;
  std::array<Shard, 16> shards_;  // kShardCount; kept literal to avoid a
                                  // metrics_registry.h include cycle
};

}  // namespace obs
}  // namespace comx

#endif  // COMX_OBS_LATENCY_HISTOGRAM_H_
