// Streaming and batch descriptive statistics used by the metrics collectors
// and the benchmark harness.

#ifndef COMX_UTIL_STATS_H_
#define COMX_UTIL_STATS_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace comx {

/// Welford-style streaming accumulator: count, mean, variance, min, max.
class RunningStats {
 public:
  /// Adds one observation.
  void Add(double x);

  /// Merges another accumulator into this one (parallel-combinable).
  void Merge(const RunningStats& other);

  /// Number of observations added.
  int64_t count() const { return count_; }
  /// Mean of the observations (0 when empty).
  double mean() const { return mean_; }
  /// Unbiased sample variance (0 when count < 2).
  double variance() const;
  /// Sample standard deviation.
  double stddev() const;
  /// Smallest observation (+inf when empty).
  double min() const { return min_; }
  /// Largest observation (-inf when empty).
  double max() const { return max_; }
  /// Sum of all observations.
  double sum() const { return mean_ * static_cast<double>(count_); }

  /// Raw Welford accumulator (sum of squared deviations) — together with
  /// count/mean/min/max this is the full internal state, exposed so
  /// checkpoints (src/recovery/) can serialize and restore it bit-exactly.
  double m2() const { return m2_; }

  /// Rebuilds an accumulator from previously captured raw state.
  static RunningStats FromRaw(int64_t count, double mean, double m2,
                              double min, double max);

  /// Resets to the empty state.
  void Reset();

  /// "n=..., mean=..., sd=..., min=..., max=..." for logging.
  std::string ToString() const;

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Returns the q-th quantile (q in [0,1]) of `values` using linear
/// interpolation between order statistics. Copies and sorts internally.
/// Returns 0 for an empty vector.
double Quantile(std::vector<double> values, double q);

}  // namespace comx

#endif  // COMX_UTIL_STATS_H_
