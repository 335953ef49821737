// Flattened empirical-CDF storage + batched evaluation — the vectorized
// Algorithm-2 path. The per-worker sorted value histories are packed into
// one contiguous array with offsets plus summary arrays (min, max, size),
// so one Monte-Carlo/bisection sweep evaluates every candidate's
// acceptance probability in a single cache-friendly pass: the min/max
// summaries short-circuit the common all-below/all-above probes and the
// interior case runs a branchless binary search over the flat slice.
//
// Contract: Evaluate()/BatchEvaluate() return bit-identical doubles to
// ValueHistory::Ecdf (same upper_bound count, same count/size division),
// so swapping the estimator onto this path changes no simulation output.

#ifndef COMX_KERNELS_ECDF_BATCH_H_
#define COMX_KERNELS_ECDF_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace comx {
namespace kernels {

/// Immutable flat ECDF table over dense worker ids [0, worker_count).
class EcdfIndex {
 public:
  /// Workers are appended densely in id order; `sorted_values` must be
  /// ascending (ValueHistory guarantees this). Empty histories are legal
  /// (probability 0 everywhere, as in Definition 3.1 with N = 0).
  void AddWorker(const double* sorted_values, size_t n);

  void Reserve(size_t workers, size_t total_values);

  size_t worker_count() const { return offsets_.size() - 1; }

  /// pr(payment, w): fraction of w's history values <= payment.
  double Evaluate(int64_t w, double payment) const;

  /// probs_out[i] = Evaluate(ids[i], payment) for i in [0, n).
  void BatchEvaluate(const int64_t* ids, size_t n, double payment,
                     double* probs_out) const;

  /// probs_out[j] = Evaluate(w, payments[j]) for an ASCENDING payments
  /// array: one merge walk over the worker's sorted history instead of n
  /// independent binary searches (the MER scan walks each candidate over
  /// the grid points from its history minimum up to the zero frontier,
  /// both placed by hist_min()/hist_max()). Results are bit-identical to
  /// Evaluate — same count, same count/size division.
  void EvaluateAscending(int64_t w, const double* payments, size_t n,
                         double* probs_out) const;

  /// Summary arrays (value-history summaries of the SoA worker mirror).
  /// min/max are +inf/-inf for empty histories.
  const double* hist_min() const { return min_.data(); }
  const double* hist_max() const { return max_.data(); }

 private:
  std::vector<double> values_;    // all histories, concatenated ascending
  std::vector<size_t> offsets_;   // worker w owns [offsets_[w], offsets_[w+1])
  std::vector<double> min_;       // first value or +inf
  std::vector<double> max_;       // last value or -inf
  std::vector<double> size_;      // history length as double (exact divisor)
};

}  // namespace kernels
}  // namespace comx

#endif  // COMX_KERNELS_ECDF_BATCH_H_
