#include "kernels/ecdf_batch.h"

#include <algorithm>
#include <limits>

#include "obs/span.h"

namespace comx {
namespace kernels {
namespace {

// upper_bound count over an ascending slice, branch-light: standard
// half-interval search keeping (lo, len). Returns the number of elements
// <= payment, exactly like std::upper_bound(begin, end, payment) - begin.
inline size_t UpperBoundCount(const double* values, size_t len,
                              double payment) {
  size_t lo = 0;
  while (len > 0) {
    const size_t half = len / 2;
    // values[lo + half] <= payment -> the boundary is right of the probe.
    const size_t next = lo + half + 1;
    const bool right = values[lo + half] <= payment;
    lo = right ? next : lo;
    len = right ? len - half - 1 : half;
  }
  return lo;
}

}  // namespace

void EcdfIndex::Reserve(size_t workers, size_t total_values) {
  values_.reserve(total_values);
  offsets_.reserve(workers + 1);
  min_.reserve(workers);
  max_.reserve(workers);
  size_.reserve(workers);
}

void EcdfIndex::AddWorker(std::span<const double> history) {
  const size_t begin = values_.size();
  values_.insert(values_.end(), history.begin(), history.end());
  std::sort(values_.begin() + static_cast<std::ptrdiff_t>(begin),
            values_.end());
  offsets_.push_back(values_.size());
  if (history.empty()) {
    min_.push_back(std::numeric_limits<double>::infinity());
    max_.push_back(-std::numeric_limits<double>::infinity());
  } else {
    min_.push_back(values_[begin]);
    max_.push_back(values_.back());
  }
  size_.push_back(static_cast<double>(history.size()));
}

double EcdfIndex::Evaluate(int64_t w, double payment) const {
  const size_t i = static_cast<size_t>(w);
  // Summary short-circuits: below every value -> 0 (count 0), at/above the
  // maximum -> size/size == 1.0 exactly. Both match the full search.
  if (payment < min_[i] || size_[i] == 0.0) return 0.0;
  if (payment >= max_[i]) return 1.0;
  const size_t begin = offsets_[i];
  const size_t count =
      UpperBoundCount(values_.data() + begin, offsets_[i + 1] - begin,
                      payment);
  return static_cast<double>(count) / size_[i];
}

void EcdfIndex::EvaluateAscending(int64_t w, const double* payments, size_t n,
                                  double* probs_out) const {
  COMX_SPAN("ecdf_scan");
  const size_t i = static_cast<size_t>(w);
  const double size = size_[i];
  if (size == 0.0) {
    for (size_t j = 0; j < n; ++j) probs_out[j] = 0.0;
    return;
  }
  const double* values = values_.data() + offsets_[i];
  const size_t len = offsets_[i + 1] - offsets_[i];
  size_t count = 0;  // values[0..count) <= current payment; monotone in j
  for (size_t j = 0; j < n; ++j) {
    const double payment = payments[j];
    while (count < len && values[count] <= payment) ++count;
    // Same division as Evaluate: count 0 gives exactly 0.0, count == len
    // gives exactly 1.0.
    probs_out[j] = static_cast<double>(count) / size;
  }
}

}  // namespace kernels
}  // namespace comx
