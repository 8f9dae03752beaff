// BestMap (paper Algorithm 2): finds the best encoding of one data
// interval, either as a linear projection of some equal-length segment of
// the base signal (scanning all shifts) or via the linear-in-time
// fall-back regression.
#ifndef SBR_CORE_BEST_MAP_H_
#define SBR_CORE_BEST_MAP_H_

#include <cstddef>
#include <span>

#include "core/error_metric.h"
#include "core/interval.h"

namespace sbr::core {

class EncodeWorkspace;

/// Knobs shared by BestMap and GetIntervals.
struct BestMapOptions {
  ErrorMetric metric = ErrorMetric::kSse;
  /// Floor for relative-error denominators.
  double relative_floor = 1.0;
  /// When false, the linear-in-time fall-back is disabled and only base
  /// shifts are considered (used by the Table 5 experiment, which isolates
  /// base-signal quality). If the base signal is empty or the interval is
  /// longer than the shift limit the fall-back is still used as a last
  /// resort so every interval gets *some* encoding.
  bool allow_linear_fallback = true;
  /// Intervals longer than max_shift_multiple * W skip the shift scan
  /// (paper: 2, "reduced likelihood that large intervals map well").
  size_t max_shift_multiple = 2;
  /// Non-linear encoding extension (paper Section 6): fit
  /// y' = a x + b + c x^2 instead of a line. SSE metric only; each
  /// interval then costs 5 transmitted values instead of 4.
  bool quadratic = false;
  /// Optional encode workspace (see core/workspace.h): supplies the shared
  /// base-signal prefix sums, the per-interval moment cache and the arena
  /// scratch, making the scan allocation-free. The caller must have
  /// called BeginChunk for the current chunk and SetBase/AppendBase so the
  /// prefix table covers the `x` being scanned. Null (the default) keeps
  /// every kernel self-contained, materializing its state per call.
  /// Purely an allocation/reuse knob: results are bitwise identical with
  /// or without a workspace.
  EncodeWorkspace* workspace = nullptr;
};

/// Fills interval->shift / a / b / err with the best mapping of
/// Y[interval->start .. +length) found over the base signal `x` and the
/// fall-back. `w` is the base-interval width used for the length cutoff.
/// O(length + |x| * length) when the shift scan runs, O(length) otherwise.
/// A malformed interval (zero length, or start + length beyond `y`) is
/// rejected without touching `y`: it comes back as the linear-fallback
/// marker with infinite error and zero coefficients.
/// Exact error ties between shifts select the lowest shift, so the result
/// does not depend on scan order.
void BestMap(std::span<const double> x, std::span<const double> y,
             size_t w, const BestMapOptions& options, Interval* interval);

}  // namespace sbr::core

#endif  // SBR_CORE_BEST_MAP_H_
