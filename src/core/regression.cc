#include "core/regression.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include "core/workspace.h"
#include "util/prefix_sums.h"
#include "util/stats.h"

namespace sbr::core {
namespace {

// The single time-ramp code path: every linear-in-time fit materializes
// t = 0..n-1 from an EncodeArena's grow-only buffer. Workspace callers
// pass the workspace arena; workspace-less callers share one
// thread-local fallback arena, so no call allocates a fresh ramp.
std::span<const double> TimeRampFor(size_t n, EncodeArena* arena) {
  if (arena != nullptr) return arena->TimeRamp(n);
  static thread_local EncodeArena fallback;
  return fallback.TimeRamp(n);
}

// Treats near-zero normal-equation denominators as degenerate; relative to
// the magnitude of the sums involved.
constexpr double kDegenerate = 1e-12;

// Width of the minimal vertical strip containing the points when lines of
// slope a are used: f(a) = max_i (y_i - a x_i) - min_i (y_i - a x_i).
// Also reports the centering intercept b.
double StripWidth(std::span<const double> x, std::span<const double> y,
                  double a, double* b_out) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < x.size(); ++i) {
    const double r = y[i] - a * x[i];
    lo = std::min(lo, r);
    hi = std::max(hi, r);
  }
  if (b_out != nullptr) *b_out = 0.5 * (lo + hi);
  return hi - lo;
}

}  // namespace

std::optional<RegressionResult> FitSseFromSums(size_t n, double sum_x,
                                               double sum_y, double sum_xy,
                                               double sum_x2, double sum_y2) {
  const double len = static_cast<double>(n);
  const double denom = len * sum_x2 - sum_x * sum_x;
  const double scale = std::max(len * sum_x2, sum_x * sum_x);
  if (denom <= kDegenerate * std::max(scale, 1.0)) return std::nullopt;
  RegressionResult r;
  r.a = (len * sum_xy - sum_x * sum_y) / denom;
  r.b = (sum_y - r.a * sum_x) / len;
  // Residual sum of squares via the normal equations; clamp tiny negative
  // round-off to zero.
  r.err = std::max(0.0, sum_y2 - r.a * sum_xy - r.b * sum_y);
  return r;
}

RegressionResult FitSse(std::span<const double> x, std::span<const double> y) {
  assert(x.size() == y.size());
  const size_t n = x.size();
  RegressionResult r;
  if (n == 0) return r;

  double sum_x = 0.0, sum_y = 0.0, sum_xy = 0.0, sum_x2 = 0.0, sum_y2 = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum_x += x[i];
    sum_y += y[i];
    sum_xy += x[i] * y[i];
    sum_x2 += x[i] * x[i];
    sum_y2 += y[i] * y[i];
  }
  const auto fit = FitSseFromSums(n, sum_x, sum_y, sum_xy, sum_x2, sum_y2);
  if (fit) return *fit;
  // x carries no information: best constant fit.
  r.a = 0.0;
  r.b = sum_y / static_cast<double>(n);
  double err = 0.0;
  for (size_t i = 0; i < n; ++i) err += (y[i] - r.b) * (y[i] - r.b);
  r.err = err;
  return r;
}

RegressionResult FitShiftSse(const SseShiftScan& scan, size_t shift) {
  double sum_xy = 0.0;
  const double* xs = scan.x + shift;
  for (size_t i = 0; i < scan.len; ++i) sum_xy += xs[i] * scan.y[i];

  const double flen = static_cast<double>(scan.len);
  const double sum_x = scan.prefix->RangeSum(shift, scan.len);
  const double sum_x2 = scan.prefix->RangeSumSquares(shift, scan.len);
  const double denom = flen * sum_x2 - sum_x * sum_x;
  RegressionResult f;
  if (denom <= 1e-12 * std::max(1.0, flen * sum_x2)) {
    f.a = 0.0;
    f.b = scan.sum_y / flen;
    f.err = std::max(0.0, scan.sum_y2 - f.b * scan.sum_y);
  } else {
    f.a = (flen * sum_xy - sum_x * scan.sum_y) / denom;
    f.b = (scan.sum_y - f.a * sum_x) / flen;
    f.err = std::max(0.0, scan.sum_y2 - f.a * sum_xy - f.b * scan.sum_y);
  }
  return f;
}

namespace {

// A vector of kLanes doubles. Each instance uses its ISA's register width
// (2 for SSE2, 4 for AVX2): GCC lowers a wider vector to register pairs
// that round-trip through the stack, which costs more than the block saves.
template <size_t kLanes>
struct VectorOf {
  typedef double type __attribute__((vector_size(kLanes * sizeof(double))));
};

// The shift-scan block, written once and compiled per instruction set by
// the instances below. Lane l of accumulator v sums
// x[shift + kLanes * v + l + i] * y[i] in ascending i — FitShiftSse's
// sequence, so every sum_xy has its bits (the scalar loop is one add
// chain, the block is sixteen independent ones). The epilogue is
// FitShiftSse's closed form lane by lane: the degenerate branch is a
// select, and both clamps use std::max's own comparison, (lo < v ? v : lo),
// so -0 and NaN clamp as they do there. Every vector lives in this body:
// none crosses a call, whose ABI would differ between the instances.
template <size_t kLanes>
[[gnu::always_inline]] inline void ShiftBlockBody(const SseShiftScan& scan,
                                                  size_t shift, double* err) {
  using V = typename VectorOf<kLanes>::type;
  constexpr size_t kVectors = kShiftBlock / kLanes;
  V acc[kVectors] = {};
  const double* xs = scan.x + shift;
  for (size_t i = 0; i < scan.len; ++i) {
    V yv;
    for (size_t l = 0; l < kLanes; ++l) yv[l] = scan.y[i];
    for (size_t v = 0; v < kVectors; ++v) {
      V xv;
      std::memcpy(&xv, xs + i + kLanes * v, sizeof(xv));
      acc[v] += xv * yv;
    }
  }

  const double flen = static_cast<double>(scan.len);
  const double deg_b = scan.sum_y / flen;
  const double deg_err = std::max(0.0, scan.sum_y2 - deg_b * scan.sum_y);
  const V zero = {};
  const V one = zero + 1.0;
  const V degenerate_err = zero + deg_err;
  for (size_t v = 0; v < kVectors; ++v) {
    V sum_x, sum_x2;
    for (size_t l = 0; l < kLanes; ++l) {
      sum_x[l] = scan.prefix->RangeSum(shift + kLanes * v + l, scan.len);
      sum_x2[l] =
          scan.prefix->RangeSumSquares(shift + kLanes * v + l, scan.len);
    }
    const V sum_xy = acc[v];
    const V n_x2 = flen * sum_x2;
    const V denom = n_x2 - sum_x * sum_x;
    const V scale = one < n_x2 ? n_x2 : one;
    const V a = (flen * sum_xy - sum_x * scan.sum_y) / denom;
    const V b = (scan.sum_y - a * sum_x) / flen;
    const V r = scan.sum_y2 - a * sum_xy - b * scan.sum_y;
    const V fit_err = zero < r ? r : zero;
    const V e = denom <= 1e-12 * scale ? degenerate_err : fit_err;
    std::memcpy(err + kLanes * v, &e, sizeof(e));
  }
}

}  // namespace

void FitShiftBlockBaseline(const SseShiftScan& scan, size_t shift,
                           double* err) {
  ShiftBlockBody<2>(scan, shift, err);
}

#if SBR_SHIFT_BLOCK_AVX2
// AVX2 alone. "fma", "arch=x86-64-v3" and "avx512f" (whose EVEX scalar
// FMA GCC 12 uses) all let GCC fuse a * b + c into one rounding, which
// changes the kernel's bits (DESIGN.md §5e).
[[gnu::target("avx2")]] void FitShiftBlockAvx2(const SseShiftScan& scan,
                                               size_t shift, double* err) {
  ShiftBlockBody<4>(scan, shift, err);
}
#endif

bool CpuHasAvx2() {
#if SBR_SHIFT_BLOCK_AVX2
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

ShiftBlockKernel SelectShiftBlockKernel() {
  static const ShiftBlockKernel kernel = []() -> ShiftBlockKernel {
#if SBR_SHIFT_BLOCK_AVX2
    if (CpuHasAvx2()) return FitShiftBlockAvx2;
#endif
    return FitShiftBlockBaseline;
  }();
  return kernel;
}

RegressionResult FitSseRelative(std::span<const double> x,
                                std::span<const double> y, double floor) {
  assert(x.size() == y.size());
  const size_t n = x.size();
  RegressionResult r;
  if (n == 0) return r;

  // Weighted least squares, w_i = 1 / max(|y_i|, floor)^2.
  double sw = 0.0, swx = 0.0, swy = 0.0, swxy = 0.0, swx2 = 0.0, swy2 = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = std::max(std::abs(y[i]), floor);
    const double w = 1.0 / (d * d);
    sw += w;
    swx += w * x[i];
    swy += w * y[i];
    swxy += w * x[i] * y[i];
    swx2 += w * x[i] * x[i];
    swy2 += w * y[i] * y[i];
  }
  const double denom = sw * swx2 - swx * swx;
  const double scale = std::max(sw * swx2, swx * swx);
  if (denom <= kDegenerate * std::max(scale, 1.0)) {
    r.a = 0.0;
    r.b = swy / sw;
    r.err = std::max(0.0, swy2 - 2.0 * r.b * swy + r.b * r.b * sw);
    return r;
  }
  r.a = (sw * swxy - swx * swy) / denom;
  r.b = (swy - r.a * swx) / sw;
  // Weighted residual sum via the weighted normal equations.
  r.err = std::max(0.0, swy2 - r.a * swxy - r.b * swy);
  return r;
}

RegressionResult FitMaxAbs(std::span<const double> x,
                           std::span<const double> y) {
  assert(x.size() == y.size());
  const size_t n = x.size();
  RegressionResult r;
  if (n == 0) return r;
  if (n == 1) {
    r.a = 0.0;
    r.b = y[0];
    r.err = 0.0;
    return r;
  }

  // Bracket the optimal slope by the extreme pairwise slopes; the SSE slope
  // is a good interior seed. f(a) is convex and piecewise linear.
  const RegressionResult sse = FitSse(x, y);
  auto [xmin, xmax] = std::minmax_element(x.begin(), x.end());
  const double xspan = *xmax - *xmin;
  if (xspan <= 0.0) {
    // Vertical stack of points: slope is irrelevant, center the band.
    double b = 0.0;
    const double width = StripWidth(x, y, 0.0, &b);
    return {0.0, b, 0.5 * width};
  }
  auto [ymin, ymax] = std::minmax_element(y.begin(), y.end());
  const double max_slope = 2.0 * (*ymax - *ymin) / xspan + 1.0;
  double lo = std::min(sse.a, -max_slope);
  double hi = std::max(sse.a, max_slope);

  // Ternary search on the convex width function.
  for (int iter = 0; iter < 200 && hi - lo > 1e-14 * (1.0 + std::abs(lo));
       ++iter) {
    const double m1 = lo + (hi - lo) / 3.0;
    const double m2 = hi - (hi - lo) / 3.0;
    if (StripWidth(x, y, m1, nullptr) <= StripWidth(x, y, m2, nullptr)) {
      hi = m2;
    } else {
      lo = m1;
    }
  }
  const double a = 0.5 * (lo + hi);
  double b = 0.0;
  const double width = StripWidth(x, y, a, &b);
  r.a = a;
  r.b = b;
  r.err = 0.5 * width;

  // Guard: never return a fit worse than the SSE line under this metric.
  double b_sse = 0.0;
  const double width_sse = StripWidth(x, y, sse.a, &b_sse);
  if (0.5 * width_sse < r.err) {
    r.a = sse.a;
    r.b = b_sse;
    r.err = 0.5 * width_sse;
  }
  return r;
}

RegressionResult Fit(ErrorMetric metric, std::span<const double> x,
                     std::span<const double> y, double relative_floor) {
  switch (metric) {
    case ErrorMetric::kSse:
      return FitSse(x, y);
    case ErrorMetric::kSseRelative:
      return FitSseRelative(x, y, relative_floor);
    case ErrorMetric::kMaxAbs:
      return FitMaxAbs(x, y);
  }
  return {};
}

RegressionResult FitTime(ErrorMetric metric, std::span<const double> y,
                         double relative_floor, EncodeArena* arena) {
  // Materializing the ramp keeps all kernels on one code path; interval
  // lengths are at most a few thousand so this is cheap relative to the
  // shift scans that dominate.
  return Fit(metric, TimeRampFor(y.size(), arena), y, relative_floor);
}

QuadraticResult FitQuadratic(std::span<const double> x,
                             std::span<const double> y) {
  assert(x.size() == y.size());
  const size_t n = x.size();
  QuadraticResult q;
  if (n == 0) return q;

  // Normal equations for the basis {x, 1, x^2}:
  //   [Sx2  Sx   Sx3 ] [a]   [Sxy ]
  //   [Sx   n    Sx2 ] [b] = [Sy  ]
  //   [Sx3  Sx2  Sx4 ] [c]   [Sx2y]
  double sx = 0, sx2 = 0, sx3 = 0, sx4 = 0;
  double sy = 0, sy2 = 0, sxy = 0, sx2y = 0;
  for (size_t i = 0; i < n; ++i) {
    const double xi = x[i];
    const double xi2 = xi * xi;
    sx += xi;
    sx2 += xi2;
    sx3 += xi2 * xi;
    sx4 += xi2 * xi2;
    sy += y[i];
    sy2 += y[i] * y[i];
    sxy += xi * y[i];
    sx2y += xi2 * y[i];
  }
  double m[3][4] = {{sx2, sx, sx3, sxy},
                    {sx, static_cast<double>(n), sx2, sy},
                    {sx3, sx2, sx4, sx2y}};
  // Gaussian elimination with partial pivoting.
  bool singular = false;
  for (int col = 0; col < 3 && !singular; ++col) {
    int pivot = col;
    for (int r = col + 1; r < 3; ++r) {
      if (std::abs(m[r][col]) > std::abs(m[pivot][col])) pivot = r;
    }
    for (int k = 0; k < 4; ++k) std::swap(m[col][k], m[pivot][k]);
    if (std::abs(m[col][col]) < 1e-10 * std::max(1.0, sx4)) {
      singular = true;
      break;
    }
    for (int r = 0; r < 3; ++r) {
      if (r == col) continue;
      const double f = m[r][col] / m[col][col];
      for (int k = col; k < 4; ++k) m[r][k] -= f * m[col][k];
    }
  }
  if (!singular) {
    q.a = m[0][3] / m[0][0];
    q.b = m[1][3] / m[1][1];
    q.c = m[2][3] / m[2][2];
    // Residual via the normal equations, clamped against round-off.
    q.err = std::max(0.0, sy2 - q.a * sxy - q.b * sy - q.c * sx2y);
    // Guard against conditioning trouble: verify directly and fall back to
    // the linear fit if the quadratic is not actually better.
    const double direct = [&] {
      double acc = 0;
      for (size_t i = 0; i < n; ++i) {
        const double r = y[i] - (q.a * x[i] + q.b + q.c * x[i] * x[i]);
        acc += r * r;
      }
      return acc;
    }();
    if (std::isfinite(direct)) q.err = direct;
    else singular = true;
  }
  const RegressionResult lin = FitSse(x, y);
  if (singular || !(q.err <= lin.err)) {
    q.a = lin.a;
    q.b = lin.b;
    q.c = 0.0;
    q.err = lin.err;
  }
  return q;
}

QuadraticResult FitTimeQuadratic(std::span<const double> y,
                                 EncodeArena* arena) {
  return FitQuadratic(TimeRampFor(y.size(), arena), y);
}

double EvaluateLine(ErrorMetric metric, std::span<const double> x,
                    std::span<const double> y, double a, double b,
                    double relative_floor) {
  assert(x.size() == y.size());
  double acc = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double resid = y[i] - (a * x[i] + b);
    switch (metric) {
      case ErrorMetric::kSse:
        acc += resid * resid;
        break;
      case ErrorMetric::kSseRelative: {
        const double d = std::max(std::abs(y[i]), relative_floor);
        acc += (resid / d) * (resid / d);
        break;
      }
      case ErrorMetric::kMaxAbs:
        acc = std::max(acc, std::abs(resid));
        break;
    }
  }
  return acc;
}

}  // namespace sbr::core
