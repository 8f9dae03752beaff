#include "core/best_map.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

#include "core/regression.h"
#include "core/workspace.h"
#include "obs/metrics.h"
#include "util/prefix_sums.h"

namespace sbr::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Deterministic selection rule shared by the reference and the memoized
// scan: lower error wins, and an *exact* error tie goes to the lower
// shift, so both pick the same interval bitwise.
bool BetterShift(double err, int64_t shift, const Interval& best) {
  return err < best.err || (err == best.err && shift < best.shift);
}

void TakeShift(Interval* best, int64_t shift, double a, double b, double c,
               double err) {
  best->shift = shift;
  best->a = a;
  best->b = b;
  best->c = c;
  best->err = err;
}

// The fit one shift produces: coefficients of y' = a x + b (+ c x^2) and
// the residual error under the policy's metric.
struct ShiftFit {
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
  double err = 0.0;
};

// The workspace-less shift scan, kept as the reference the memoized scan
// is tested against (best_map_test). Every metric used to own a
// near-identical copy of this loop; a metric policy supplies only the
// per-shift residual math via `Fit(shift) -> ShiftFit`.
//
// The driver guards its own geometry: len > x.size() would underflow
// num_shifts into a near-infinite out-of-bounds scan, so a caller bug must
// degrade to a no-op here rather than rely on BestMap's gate.
template <typename Policy>
void ScanShifts(std::span<const double> x, std::span<const double> yseg,
                Interval* best, const Policy& policy) {
  const size_t len = yseg.size();
  if (len == 0 || len > x.size()) return;
  const size_t num_shifts = x.size() - len + 1;
  SBR_OBS_COUNT("encode.best_map.shifts_scanned", num_shifts);
  for (size_t shift = 0; shift < num_shifts; ++shift) {
    const ShiftFit f = policy.Fit(shift);
    if (BetterShift(f.err, static_cast<int64_t>(shift), *best)) {
      TakeShift(best, static_cast<int64_t>(shift), f.a, f.b, f.c, f.err);
    }
  }
}

// Errors of shifts [begin, end) into err[0 .. end - begin). A policy with
// a blocked kernel (`FitBlock`) covers whole blocks of kShiftBlock shifts
// with it; every error is bitwise the one Fit(shift) gives.
template <typename Policy>
void FitErrors(const Policy& policy, size_t begin, size_t end, double* err) {
  if constexpr (requires { policy.FitBlock(begin, err); }) {
    for (; end - begin >= kShiftBlock; begin += kShiftBlock) {
      policy.FitBlock(begin, err);
      err += kShiftBlock;
    }
  }
  for (; begin < end; ++begin) *err++ = policy.Fit(begin).err;
}

// The shift scan every workspace caller runs (DESIGN.md §5e). The
// workspace memoizes, per interval, how many shifts of the shared trial
// buffer are scanned and the steps of the ascending scan's running best.
// A call evaluates only the shifts no earlier call of this chunk did,
// lists the new steps with one sweep, and takes the last step below
// num_shifts. Fit depends only on x[shift, shift + len), the shared
// prefix sums and the interval's y moments, and every trial base is a
// prefix of one buffer, so that step is exactly the shift the reference
// scan selects; its fit is recomputed once with the same Fit, giving the
// same bits.
template <typename Policy>
void ScanShiftsMemo(size_t x_size, size_t start, size_t len, uint8_t tag,
                    const BestMapOptions& options, Interval* best,
                    const Policy& policy) {
  if (len == 0 || len > x_size) return;
  const size_t num_shifts = x_size - len + 1;
  EncodeWorkspace& ws = *options.workspace;
  EncodeArena& arena = ws.arena();
  const ShiftCursor cursor = ws.ResumeShifts(start, len, tag, num_shifts);
  std::vector<uint32_t>& steps = arena.shift_steps();
  steps.clear();
  double running = cursor.best_err;
  if (num_shifts > cursor.from) {
    const size_t from = cursor.from;
    const size_t n = num_shifts - from;
    SBR_OBS_COUNT("encode.best_map.shifts_scanned", n);
    std::vector<double>& errors = arena.shift_errors();
    if (errors.size() < n) errors.resize(n);
    double* err = errors.data();
    FitErrors(policy, from, num_shifts, err);
    for (size_t i = 0; i < n; ++i) {
      if (err[i] < running) {
        running = err[i];
        steps.push_back(static_cast<uint32_t>(from + i));
      }
    }
  }
  const int64_t shift =
      ws.CommitShifts(start, len, tag, cursor, num_shifts, steps, running);
  if (shift < 0) return;
  const ShiftFit f = policy.Fit(static_cast<size_t>(shift));
  if (BetterShift(f.err, shift, *best)) {
    TakeShift(best, shift, f.a, f.b, f.c, f.err);
  }
}

// Runs the memoized scan with a workspace and the reference scan without.
template <typename Policy>
void Scan(std::span<const double> x, std::span<const double> yseg,
          size_t start, uint8_t tag, const BestMapOptions& options,
          Interval* best, const Policy& policy) {
  if (options.workspace != nullptr) {
    ScanShiftsMemo(x.size(), start, yseg.size(), tag, options, best, policy);
  } else {
    ScanShifts(x, yseg, best, policy);
  }
}

// SSE policy: sum_x and sum_x2 come from prefix sums, only sum_xy needs an
// O(len) pass per shift, and the residual error follows from the normal
// equations without a second pass. With a workspace the prefix table is
// the shared one over the trial base (built once, extended incrementally)
// and the y-side moments come from the per-interval cache; without one,
// both are materialized locally exactly as the standalone kernel did.
class SsePolicy {
 public:
  SsePolicy(std::span<const double> x, std::span<const double> yseg,
            const PrefixSums* shared_prefix, const SseMoments& moments)
      : block_(SelectShiftBlockKernel()) {
    if (shared_prefix != nullptr) {
      // The workspace invariant: the shared table covers (at least) the
      // base signal being scanned, with identical values.
      assert(shared_prefix->size() >= x.size());
    } else {
      local_prefix_.Reset(x);
    }
    scan_.x = x.data();
    scan_.y = yseg.data();
    scan_.len = yseg.size();
    scan_.prefix = shared_prefix != nullptr ? shared_prefix : &local_prefix_;
    scan_.sum_y = moments.sum_y;
    scan_.sum_y2 = moments.sum_y2;
  }
  // scan_ points into local_prefix_.
  SsePolicy(const SsePolicy&) = delete;
  SsePolicy& operator=(const SsePolicy&) = delete;

  ShiftFit Fit(size_t shift) const {
    const RegressionResult r = FitShiftSse(scan_, shift);
    return {r.a, r.b, 0.0, r.err};
  }

  // Errors of the kShiftBlock shifts starting at `shift`, bitwise Fit's,
  // from the explicit-SIMD block kernel this host runs (regression.h).
  void FitBlock(size_t shift, double* err) const { block_(scan_, shift, err); }

 private:
  ShiftBlockKernel block_;
  SseShiftScan scan_;
  PrefixSums local_prefix_;
};

// Relative-error policy: weights depend only on y, so the y-side weighted
// sums are hoisted out of the shift loop (memoized per interval with a
// workspace) and the weight arrays live in reusable arena scratch.
class RelativePolicy {
 public:
  RelativePolicy(std::span<const double> x, const double* w, const double* wy,
                 size_t len, const RelativeMoments& moments)
      : xp_(x.data()), w_(w), wy_(wy), len_(len), moments_(moments) {}

  ShiftFit Fit(size_t shift) const {
    const double* xs = xp_ + shift;
    double swx = 0.0, swx2 = 0.0, swxy = 0.0;
    for (size_t i = 0; i < len_; ++i) {
      swx += w_[i] * xs[i];
      swx2 += w_[i] * xs[i] * xs[i];
      swxy += wy_[i] * xs[i];
    }
    const double sw = moments_.sw;
    const double swy = moments_.swy;
    const double swy2 = moments_.swy2;
    const double denom = sw * swx2 - swx * swx;
    ShiftFit f;
    if (denom <= 1e-12 * std::max(1.0, sw * swx2)) {
      f.a = 0.0;
      f.b = swy / sw;
      f.err = std::max(0.0, swy2 - 2.0 * f.b * swy + f.b * f.b * sw);
    } else {
      f.a = (sw * swxy - swx * swy) / denom;
      f.b = (swy - f.a * swx) / sw;
      f.err = std::max(0.0, swy2 - f.a * swxy - f.b * swy);
    }
    return f;
  }

 private:
  const double* xp_;
  const double* w_;
  const double* wy_;
  size_t len_;
  RelativeMoments moments_;
};

// Minimax policy: each shift runs a full Chebyshev fit. Costly (see
// regression.h); intended for the error-bound workloads where budgets, and
// therefore scan counts, are small.
class MaxAbsPolicy {
 public:
  MaxAbsPolicy(std::span<const double> x, std::span<const double> yseg)
      : x_(x), yseg_(yseg) {}

  ShiftFit Fit(size_t shift) const {
    const RegressionResult r =
        FitMaxAbs(x_.subspan(shift, yseg_.size()), yseg_);
    return {r.a, r.b, 0.0, r.err};
  }

 private:
  std::span<const double> x_;
  std::span<const double> yseg_;
};

// Quadratic-extension policy: a full 3x3 solve per shift. O(len) per shift
// like the other policies, larger constant.
class QuadraticPolicy {
 public:
  QuadraticPolicy(std::span<const double> x, std::span<const double> yseg)
      : x_(x), yseg_(yseg) {}

  ShiftFit Fit(size_t shift) const {
    const QuadraticResult q =
        FitQuadratic(x_.subspan(shift, yseg_.size()), yseg_);
    return {q.a, q.b, q.c, q.err};
  }

 private:
  std::span<const double> x_;
  std::span<const double> yseg_;
};

// Shift-memo tag of the quadratic policy; the linear policies use their
// ErrorMetric value.
constexpr uint8_t kQuadraticTag = 0xff;

// Computes the y-side SSE moments locally (the no-workspace path).
SseMoments ComputeSseMoments(std::span<const double> yseg) {
  SseMoments m;
  for (double v : yseg) {
    m.sum_y += v;
    m.sum_y2 += v * v;
  }
  return m;
}

// Computes the relative-metric weights and moments into local buffers
// (the no-workspace path).
RelativeMoments ComputeRelativeMoments(std::span<const double> yseg,
                                       double floor, std::vector<double>* w,
                                       std::vector<double>* wy) {
  const size_t len = yseg.size();
  w->resize(len);
  wy->resize(len);
  RelativeMoments m;
  for (size_t i = 0; i < len; ++i) {
    const double d = std::max(std::abs(yseg[i]), floor);
    (*w)[i] = 1.0 / (d * d);
    (*wy)[i] = (*w)[i] * yseg[i];
    m.sw += (*w)[i];
    m.swy += (*wy)[i];
    m.swy2 += (*wy)[i] * yseg[i];
  }
  return m;
}

// Builds the policy for the configured metric and runs the shared scan
// driver. `start` keys the workspace moment cache; the interval geometry
// has been validated by BestMap.
void RunMetricScan(std::span<const double> x, std::span<const double> yseg,
                   size_t start, const BestMapOptions& options,
                   Interval* best) {
  EncodeWorkspace* ws = options.workspace;

  // Shift-memo tag: one per policy, so a workspace reused across metrics
  // never answers one policy's scan from another's staircase.
  if (options.quadratic) {
    Scan(x, yseg, start, kQuadraticTag, options, best,
         QuadraticPolicy(x, yseg));
    return;
  }
  const uint8_t tag = static_cast<uint8_t>(options.metric);
  switch (options.metric) {
    case ErrorMetric::kSse: {
      const SseMoments m =
          ws != nullptr ? ws->Sse(yseg, start) : ComputeSseMoments(yseg);
      const PrefixSums* shared = ws != nullptr ? &ws->base_prefix() : nullptr;
      Scan(x, yseg, start, tag, options, best,
           SsePolicy(x, yseg, shared, m));
      break;
    }
    case ErrorMetric::kSseRelative: {
      std::vector<double> local_w, local_wy;
      const double* w;
      const double* wy;
      RelativeMoments m;
      if (ws != nullptr) {
        m = ws->Relative(yseg, start, options.relative_floor);
        w = ws->arena().weights().data();
        wy = ws->arena().weighted_values().data();
      } else {
        m = ComputeRelativeMoments(yseg, options.relative_floor, &local_w,
                                   &local_wy);
        w = local_w.data();
        wy = local_wy.data();
      }
      Scan(x, yseg, start, tag, options, best,
           RelativePolicy(x, w, wy, yseg.size(), m));
      break;
    }
    case ErrorMetric::kMaxAbs:
      Scan(x, yseg, start, tag, options, best, MaxAbsPolicy(x, yseg));
      break;
  }
}

}  // namespace

void BestMap(std::span<const double> x, std::span<const double> y,
             size_t w, const BestMapOptions& options, Interval* interval) {
  SBR_OBS_COUNT("encode.best_map.calls", 1);
  // Real validation, not an assert: a malformed interval — e.g. decoded
  // from a corrupted frame — must not read out of bounds in a release
  // build. It gets the fall-back marker with infinite error and zeroed
  // coefficients, which downstream consumers already treat as "worthless".
  if (interval->length == 0 || interval->start > y.size() ||
      interval->length > y.size() - interval->start) {
    interval->shift = kShiftLinearFallback;
    interval->a = 0.0;
    interval->b = 0.0;
    interval->c = 0.0;
    interval->err = kInf;
    return;
  }
  const std::span<const double> yseg =
      y.subspan(interval->start, interval->length);

  interval->shift = kShiftLinearFallback;
  interval->c = 0.0;
  interval->err = kInf;

  const bool scan_possible =
      interval->length <= options.max_shift_multiple * w &&
      x.size() >= interval->length;

  if (scan_possible) {
    RunMetricScan(x, yseg, interval->start, options, interval);
  }

  if (options.allow_linear_fallback || !scan_possible) {
    EncodeWorkspace* ws = options.workspace;
    if (options.quadratic) {
      const QuadraticResult q =
          FitTimeQuadratic(yseg, ws != nullptr ? &ws->arena() : nullptr);
      if (q.err < interval->err) {
        interval->shift = kShiftLinearFallback;
        interval->a = q.a;
        interval->b = q.b;
        interval->c = q.c;
        interval->err = q.err;
      }
    } else {
      const RegressionResult r =
          ws != nullptr ? ws->TimeFit(yseg, interval->start, options.metric,
                                      options.relative_floor)
                        : FitTime(options.metric, yseg, options.relative_floor);
      if (r.err < interval->err) {
        SBR_OBS_COUNT("encode.best_map.linear_fallbacks", 1);
        interval->shift = kShiftLinearFallback;
        interval->a = r.a;
        interval->b = r.b;
        interval->c = 0.0;
        interval->err = r.err;
      }
    }
  }
}

}  // namespace sbr::core
