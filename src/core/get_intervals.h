// GetIntervals (paper Algorithm 3): recursively partitions the concatenated
// data series into a budget-bounded number of intervals, splitting the
// worst-approximated interval in two at every step, and maps each interval
// onto the base signal via BestMap.
#ifndef SBR_CORE_GET_INTERVALS_H_
#define SBR_CORE_GET_INTERVALS_H_

#include <span>
#include <vector>

#include "core/best_map.h"
#include "core/interval.h"
#include "util/status.h"

namespace sbr::core {

/// Options for GetIntervals.
struct GetIntervalsOptions {
  /// Per-interval mapping knobs. When best_map.workspace is set, every
  /// BestMap call of this run shares the workspace's prefix sums, moment
  /// cache and arena scratch (see core/workspace.h); the workspace's
  /// prefix table must cover the `x` passed in. Bitwise-neutral.
  BestMapOptions best_map;
  /// Transmission cost of one interval record: 4 values
  /// (start, shift, a, b) with a base signal, 3 (start, a, b) for the plain
  /// linear-regression encoder that has no shift pointer.
  size_t values_per_interval = 4;
  /// When > 0, splitting stops as soon as the total error under the active
  /// metric drops to or below this target, even if budget remains
  /// (paper Section 4.5: combined error and space bounds).
  double error_target = 0.0;
};

/// The approximation produced for one chunk.
struct ApproximationResult {
  /// Final intervals, sorted by start; their union covers [0, |y|).
  std::vector<Interval> intervals;
  /// Total error under the active metric (sum, or max for kMaxAbs).
  double total_error = 0.0;
  /// Transmission cost in values: intervals.size() * values_per_interval.
  size_t values_used = 0;
};

/// Approximates the concatenated series `y` (num_signals rows of equal
/// length) against base signal `x` using at most `budget_values` values.
/// Fails if the budget cannot afford one interval per signal.
/// Runs in O(|y| log(budget) + budget * |x| * w) for the SSE metric.
StatusOr<ApproximationResult> GetIntervals(std::span<const double> x,
                                           std::span<const double> y,
                                           size_t num_signals,
                                           size_t budget_values, size_t w,
                                           const GetIntervalsOptions& options);

/// Multi-rate form (paper Section 3.2, footnote 2: quantities recorded on
/// different schedules): `y` is the concatenation of rows whose lengths
/// are given by `row_lengths`; each row seeds one initial interval.
StatusOr<ApproximationResult> GetIntervalsMultiRate(
    std::span<const double> x, std::span<const double> y,
    std::span<const size_t> row_lengths, size_t budget_values, size_t w,
    const GetIntervalsOptions& options);

/// Sample `i` (0-based within the interval) of interval `iv` mapped onto
/// base `x`: the one reconstruction formula every decode path evaluates,
/// so a chunk, a range or a single point of it agree bit for bit. `iv` is
/// an encoder-side Interval or a wire IntervalRecord (both carry shift,
/// a, b and c).
template <typename Iv>
inline double IntervalSample(std::span<const double> x, const Iv& iv,
                             size_t i) {
  if (iv.shift == kShiftLinearFallback) {
    const double t = static_cast<double>(i);
    return iv.a * t + iv.b + iv.c * t * t;
  }
  const double xv = x[static_cast<size_t>(iv.shift) + i];
  return iv.a * xv + iv.b + iv.c * xv * xv;
}

/// Reconstructs the approximate series from intervals produced by
/// GetIntervals, on the encoder's side (a receiver decodes the wire
/// records with core::ReconstructRange). `x` must be the same base
/// signal the intervals were encoded against.
std::vector<double> ReconstructFromIntervals(
    std::span<const double> x, size_t total_len,
    std::span<const Interval> intervals);

}  // namespace sbr::core

#endif  // SBR_CORE_GET_INTERVALS_H_
