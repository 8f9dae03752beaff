// O(1) range-sum queries over a fixed series, used by the regression kernels
// to avoid recomputing sum(x) and sum(x^2) for every candidate shift.
#ifndef SBR_UTIL_PREFIX_SUMS_H_
#define SBR_UTIL_PREFIX_SUMS_H_

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

namespace sbr {

/// Precomputed prefix sums of a series and of its squares. Supports
/// incremental extension via Append: appending values one at a time
/// performs the same left-to-right additions Reset would, so an
/// incrementally grown table is bitwise identical to one rebuilt from the
/// full series (the property the encode workspace's trial-base extension
/// relies on).
class PrefixSums {
 public:
  PrefixSums() = default;

  explicit PrefixSums(std::span<const double> values) { Reset(values); }

  /// Rebuilds the tables for a new series. Keeps existing capacity.
  void Reset(std::span<const double> values) {
    sum_.assign(values.size() + 1, 0.0);
    sum_sq_.assign(values.size() + 1, 0.0);
    for (size_t i = 0; i < values.size(); ++i) {
      sum_[i + 1] = sum_[i] + values[i];
      sum_sq_[i + 1] = sum_sq_[i] + values[i] * values[i];
    }
  }

  /// Reserves table capacity for a series of `n` values, so subsequent
  /// Append calls do not reallocate.
  void Reserve(size_t n) {
    sum_.reserve(n + 1);
    sum_sq_.reserve(n + 1);
  }

  /// Extends the series by one value in O(1). Usable on a
  /// default-constructed table (an empty series).
  void Append(double value) {
    if (sum_.empty()) {
      sum_.push_back(0.0);
      sum_sq_.push_back(0.0);
    }
    sum_.push_back(sum_.back() + value);
    sum_sq_.push_back(sum_sq_.back() + value * value);
  }

  /// Shrinks the series to its first `n` values (n <= size()); the kept
  /// entries are untouched, so the table equals a fresh Reset over them.
  void Truncate(size_t n) {
    assert(n <= size());
    sum_.resize(n + 1);
    sum_sq_.resize(n + 1);
  }

  /// Number of values covered.
  size_t size() const { return sum_.empty() ? 0 : sum_.size() - 1; }

  /// True when [start, start + length) lies within the covered series.
  /// Written without computing start + length, which could wrap on
  /// adversarial inputs and make a malformed range look valid.
  bool CoversRange(size_t start, size_t length) const {
    return start <= size() && length <= size() - start;
  }

  /// Sum of values in [start, start + length).
  double RangeSum(size_t start, size_t length) const {
    assert(CoversRange(start, length));
    return sum_[start + length] - sum_[start];
  }

  /// Sum of squared values in [start, start + length).
  double RangeSumSquares(size_t start, size_t length) const {
    assert(CoversRange(start, length));
    return sum_sq_[start + length] - sum_sq_[start];
  }

 private:
  std::vector<double> sum_;
  std::vector<double> sum_sq_;
};

}  // namespace sbr

#endif  // SBR_UTIL_PREFIX_SUMS_H_
