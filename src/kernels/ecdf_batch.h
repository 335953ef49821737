// The one store and the one evaluator of Definition 3.1: every worker's
// completed-request values, sorted and packed into one contiguous array
// with offsets plus summary arrays (min, max, size). Evaluate() answers
// pr(payment, w) for Algorithm 2, the acceptance draw and the group
// probability: the min/max summaries short-circuit the common
// all-below/all-above probes and the interior case runs a branchless
// binary search over the worker's slice. EvaluateAscending() serves the
// MER scan, and Values() hands MER a worker's sorted history.
//
// Contract: Evaluate() returns the std::upper_bound count of the values
// <= payment divided by the history size (0 for an empty history), and
// EvaluateAscending() returns the same doubles.

#ifndef COMX_KERNELS_ECDF_BATCH_H_
#define COMX_KERNELS_ECDF_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace comx {
namespace kernels {

/// Immutable flat ECDF table over dense worker ids [0, worker_count).
class EcdfIndex {
 public:
  /// Appends the next worker (ids are dense, in call order). `history` is
  /// taken as stored and sorted ascending inside the index. Empty
  /// histories are legal (probability 0 everywhere, as in Definition 3.1
  /// with N = 0).
  void AddWorker(std::span<const double> history);

  void Reserve(size_t workers, size_t total_values);

  size_t worker_count() const { return offsets_.size() - 1; }

  /// pr(payment, w): fraction of w's history values <= payment.
  double Evaluate(int64_t w, double payment) const;

  /// probs_out[j] = Evaluate(w, payments[j]) for an ASCENDING payments
  /// array: one merge walk over the worker's sorted history instead of n
  /// independent binary searches (the MER scan walks each candidate over
  /// the grid points from its history minimum up to the zero frontier,
  /// both placed by hist_min()/hist_max()). Results are bit-identical to
  /// Evaluate — same count, same count/size division.
  void EvaluateAscending(int64_t w, const double* payments, size_t n,
                         double* probs_out) const;

  /// Worker w's history, ascending.
  std::span<const double> Values(int64_t w) const {
    const size_t i = static_cast<size_t>(w);
    return {values_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }

  /// Per-worker summaries; min/max are +inf/-inf for empty histories.
  const double* hist_min() const { return min_.data(); }
  const double* hist_max() const { return max_.data(); }

 private:
  std::vector<double> values_;         // every history, each slice ascending
  std::vector<size_t> offsets_ = {0};  // w owns [offsets_[w], offsets_[w+1])
  std::vector<double> min_;            // first value or +inf
  std::vector<double> max_;            // last value or -inf
  std::vector<double> size_;           // length as double (exact divisor)
};

}  // namespace kernels
}  // namespace comx

#endif  // COMX_KERNELS_ECDF_BATCH_H_
