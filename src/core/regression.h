// Regression kernels: fit y ~ a * x + b over paired value ranges under a
// chosen error metric (paper Algorithm 1 and its Section 4.5 variants).
//
// All kernels run in O(length) time except the minimax fit, which is
// O(length * iterations) via ternary search over the (convex) strip-width
// function; see FitMaxAbs for details.
#ifndef SBR_CORE_REGRESSION_H_
#define SBR_CORE_REGRESSION_H_

#include <cstddef>
#include <optional>
#include <span>

#include "core/error_metric.h"

namespace sbr {
class PrefixSums;
}  // namespace sbr

namespace sbr::core {

class EncodeArena;

/// Result of fitting y' = a * x + b: the coefficients and the error of the
/// fit under the metric that produced it.
struct RegressionResult {
  double a = 0.0;
  double b = 0.0;
  double err = 0.0;
};

/// Fits y ~ a * x + b minimizing the sum of squared residuals.
/// Degenerate x (zero variance) falls back to a = 0, b = mean(y).
RegressionResult FitSse(std::span<const double> x, std::span<const double> y);

/// FitSse's closed form from its five ascending sums over n > 0 points.
/// Returns nullopt when x is degenerate: that fit needs a second pass over
/// y, so callers holding only the sums hand such pairs to FitSse.
std::optional<RegressionResult> FitSseFromSums(size_t n, double sum_x,
                                               double sum_y, double sum_xy,
                                               double sum_x2, double sum_y2);

/// Fits y ~ a * x + b minimizing sum ((y - y') / max(|y|, floor))^2
/// (weighted least squares with weights fixed by y).
RegressionResult FitSseRelative(std::span<const double> x,
                                std::span<const double> y,
                                double floor);

/// Fits y ~ a * x + b minimizing max |y - y'| (Chebyshev). The width
/// function f(a) = max_i(y_i - a x_i) - min_i(y_i - a x_i) is convex in a,
/// so the optimum is located by ternary search between the extreme
/// pairwise slopes; b centers the residual band. Accurate to ~1e-12 of the
/// slope range.
RegressionResult FitMaxAbs(std::span<const double> x,
                           std::span<const double> y);

/// Metric-dispatching fit of y against a base segment x.
RegressionResult Fit(ErrorMetric metric, std::span<const double> x,
                     std::span<const double> y,
                     double relative_floor);

/// Fits y ~ a * t + b against the time index t = 0..len-1 (the "standard
/// linear regression" fall-back of Algorithm 2), under the given metric.
/// The ramp is materialized from `arena` when given (allocation-free on a
/// warm workspace) or from a shared thread-local fallback arena otherwise.
RegressionResult FitTime(ErrorMetric metric, std::span<const double> y,
                         double relative_floor,
                         EncodeArena* arena = nullptr);

/// BestMap's SSE shift scan of one interval: fits y[0, len) against every
/// window x[shift, shift + len) of a base signal. sum_x and sum_x2 of a
/// window come from the base's prefix sums, sum_y and sum_y2 are hoisted
/// per interval, so only sum_xy costs O(len) per shift.
struct SseShiftScan {
  const double* x = nullptr;
  const double* y = nullptr;
  size_t len = 0;
  const PrefixSums* prefix = nullptr;  ///< over x; covers every window
  double sum_y = 0.0;
  double sum_y2 = 0.0;
};

/// The scan's fit at one shift, sum_xy added in ascending order: the
/// reference every block kernel reproduces bit for bit.
RegressionResult FitShiftSse(const SseShiftScan& scan, size_t shift);

/// Shifts one call of a shift-scan block kernel covers.
inline constexpr size_t kShiftBlock = 16;

/// Writes FitShiftSse(scan, shift + k).err to err[k] for k < kShiftBlock,
/// bitwise: each sum_xy is still added in ascending order, and no product
/// is fused into an FMA (DESIGN.md §5e). The caller guarantees the block's
/// windows lie inside x.
using ShiftBlockKernel = void (*)(const SseShiftScan& scan, size_t shift,
                                  double* err);

/// The block kernel compiled for the baseline instruction set.
void FitShiftBlockBaseline(const SseShiftScan& scan, size_t shift,
                           double* err);

#if defined(__x86_64__) || defined(__i386__)
#define SBR_SHIFT_BLOCK_AVX2 1
/// The same kernel compiled for AVX2 (without FMA). Call it only when
/// CpuHasAvx2() is true.
void FitShiftBlockAvx2(const SseShiftScan& scan, size_t shift, double* err);
#endif

/// True when the running CPU supports AVX2 (always false off x86).
bool CpuHasAvx2();

/// The block kernel this host runs: the AVX2 instance when the CPU has
/// it, the baseline one otherwise. Chosen once per process.
ShiftBlockKernel SelectShiftBlockKernel();

/// Evaluates the error of a *given* line y' = a x + b under the metric
/// (used by tests and by the decoder-side quality reporting).
double EvaluateLine(ErrorMetric metric, std::span<const double> x,
                    std::span<const double> y, double a, double b,
                    double relative_floor);

/// Result of the quadratic (non-linear) encoding extension of the paper's
/// Section 6: y' = a * x + b + c * x^2.
struct QuadraticResult {
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
  double err = 0.0;
};

/// Least-squares quadratic fit y ~ a x + b + c x^2 (SSE metric; the
/// quadratic extension is defined for the default metric only).
/// Falls back to the linear fit when the 3x3 normal equations are
/// ill-conditioned, so it is never worse than FitSse.
QuadraticResult FitQuadratic(std::span<const double> x,
                             std::span<const double> y);

/// Quadratic-in-time fall-back: y ~ a t + b + c t^2, t = 0..len-1. Ramp
/// sourcing as in FitTime.
QuadraticResult FitTimeQuadratic(std::span<const double> y,
                                 EncodeArena* arena = nullptr);

}  // namespace sbr::core

#endif  // SBR_CORE_REGRESSION_H_
