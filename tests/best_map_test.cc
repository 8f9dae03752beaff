// Unit tests for BestMap: shift selection over the base signal, the
// linear-in-time fall-back, the 2W length cutoff, optimality against
// brute-force scans, malformed-interval rejection, deterministic
// tie-breaks, the workspace's shift memo checked bit for bit against
// fresh scans, the explicit-SIMD scan-block instances against the scalar
// shift fit, and the linear fall-back's time-fit memo across metric
// switches.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "core/best_map.h"
#include "core/encoder.h"
#include "core/regression.h"
#include "core/workspace.h"
#include "datagen/weather.h"
#include "util/prefix_sums.h"
#include "util/rng.h"

namespace sbr::core {
namespace {

TEST(BestMap, FindsExactEmbeddedPattern) {
  // Base signal contains a distinctive pattern at shift 7; the data
  // interval is an affine image of it, so the scan must locate shift 7 and
  // achieve ~zero error.
  Rng rng(1);
  std::vector<double> x(64);
  for (auto& v : x) v = rng.Uniform(-1, 1);
  std::vector<double> y(16);
  for (size_t i = 0; i < 16; ++i) y[i] = 3.0 * x[7 + i] - 2.0;

  Interval iv;
  iv.start = 0;
  iv.length = 16;
  BestMapOptions opts;
  BestMap(x, y, /*w=*/16, opts, &iv);
  EXPECT_EQ(iv.shift, 7);
  EXPECT_NEAR(iv.a, 3.0, 1e-9);
  EXPECT_NEAR(iv.b, -2.0, 1e-9);
  EXPECT_NEAR(iv.err, 0.0, 1e-9);
}

TEST(BestMap, ScansAllShiftsIncludingLast) {
  // The matching segment sits flush at the end of the base signal.
  Rng rng(2);
  std::vector<double> x(40);
  for (auto& v : x) v = rng.Uniform(-1, 1);
  const size_t len = 8;
  const size_t last_shift = x.size() - len;
  std::vector<double> y(len);
  for (size_t i = 0; i < len; ++i) y[i] = x[last_shift + i];

  Interval iv;
  iv.start = 0;
  iv.length = len;
  BestMapOptions opts;
  BestMap(x, y, /*w=*/len, opts, &iv);
  EXPECT_EQ(iv.shift, static_cast<int64_t>(last_shift));
  EXPECT_NEAR(iv.err, 0.0, 1e-9);
}

TEST(BestMap, FallsBackToLinearWhenBaseEmpty) {
  std::vector<double> y{1, 2, 3, 4, 5};
  Interval iv;
  iv.start = 0;
  iv.length = 5;
  BestMapOptions opts;
  BestMap({}, y, /*w=*/4, opts, &iv);
  EXPECT_EQ(iv.shift, kShiftLinearFallback);
  EXPECT_NEAR(iv.a, 1.0, 1e-12);
  EXPECT_NEAR(iv.b, 1.0, 1e-12);
  EXPECT_NEAR(iv.err, 0.0, 1e-12);
}

TEST(BestMap, LongIntervalSkipsShiftScan) {
  // length > 2 * w: the scan is skipped even though the base could host it.
  Rng rng(3);
  std::vector<double> x(100);
  for (auto& v : x) v = rng.Uniform(-1, 1);
  std::vector<double> y(50);
  for (size_t i = 0; i < 50; ++i) y[i] = x[10 + i];  // perfect match exists

  Interval iv;
  iv.start = 0;
  iv.length = 50;
  BestMapOptions opts;  // max_shift_multiple = 2, w = 16 -> cutoff 32 < 50
  BestMap(x, y, /*w=*/16, opts, &iv);
  EXPECT_EQ(iv.shift, kShiftLinearFallback);
}

TEST(BestMap, CutoffBoundaryExactlyTwoW) {
  Rng rng(4);
  std::vector<double> x(100);
  for (auto& v : x) v = rng.Uniform(-1, 1);
  const size_t w = 16;
  std::vector<double> y(2 * w);
  for (size_t i = 0; i < y.size(); ++i) y[i] = x[5 + i];

  Interval iv;
  iv.start = 0;
  iv.length = y.size();
  BestMapOptions opts;
  BestMap(x, y, w, opts, &iv);
  EXPECT_EQ(iv.shift, 5);  // length == 2W is still scanned
}

TEST(BestMap, DisallowedFallbackStillUsedAsLastResort) {
  // Fall-back disabled but the base is too short for this interval: the
  // interval must still get an encoding.
  std::vector<double> x(4, 1.0);
  std::vector<double> y{5, 6, 7, 8, 9, 10};
  Interval iv;
  iv.start = 0;
  iv.length = 6;
  BestMapOptions opts;
  opts.allow_linear_fallback = false;
  BestMap(x, y, /*w=*/8, opts, &iv);
  EXPECT_EQ(iv.shift, kShiftLinearFallback);
  EXPECT_TRUE(std::isfinite(iv.err));
}

TEST(BestMap, DisallowedFallbackUsesBaseEvenWhenWorse) {
  // A perfect ramp would have zero fall-back error, but with the fall-back
  // disabled the best base mapping must be chosen instead.
  Rng rng(5);
  std::vector<double> x(32);
  for (auto& v : x) v = rng.Uniform(-1, 1);
  std::vector<double> y{1, 2, 3, 4, 5, 6, 7, 8};
  Interval iv;
  iv.start = 0;
  iv.length = 8;
  BestMapOptions opts;
  opts.allow_linear_fallback = false;
  BestMap(x, y, /*w=*/8, opts, &iv);
  EXPECT_GE(iv.shift, 0);
}

TEST(BestMap, MatchesBruteForceOverShifts) {
  Rng rng(6);
  std::vector<double> x(48), full_y(64);
  for (auto& v : x) v = rng.Uniform(-2, 2);
  for (auto& v : full_y) v = rng.Uniform(-2, 2);

  Interval iv;
  iv.start = 10;
  iv.length = 12;
  BestMapOptions opts;
  BestMap(x, full_y, /*w=*/12, opts, &iv);

  // Brute force: every shift plus the fall-back.
  std::span<const double> yseg(full_y.data() + 10, 12);
  double best = FitTime(ErrorMetric::kSse, yseg, 1.0).err;
  for (size_t s = 0; s + 12 <= x.size(); ++s) {
    best = std::min(
        best, FitSse(std::span<const double>(x.data() + s, 12), yseg).err);
  }
  EXPECT_NEAR(iv.err, best, 1e-9 * std::max(1.0, best));
}

TEST(BestMap, RelativeMetricMatchesBruteForce) {
  Rng rng(7);
  std::vector<double> x(32), full_y(32);
  for (auto& v : x) v = rng.Uniform(1, 3);
  for (auto& v : full_y) v = rng.Uniform(5, 50);

  Interval iv;
  iv.start = 4;
  iv.length = 8;
  BestMapOptions opts;
  opts.metric = ErrorMetric::kSseRelative;
  BestMap(x, full_y, /*w=*/8, opts, &iv);

  std::span<const double> yseg(full_y.data() + 4, 8);
  double best = FitTime(ErrorMetric::kSseRelative, yseg, 1.0).err;
  for (size_t s = 0; s + 8 <= x.size(); ++s) {
    best = std::min(best,
                    FitSseRelative(
                        std::span<const double>(x.data() + s, 8), yseg, 1.0)
                        .err);
  }
  EXPECT_NEAR(iv.err, best, 1e-9 * std::max(1.0, best));
}

TEST(BestMap, MaxAbsMetricSelectsSaneShift) {
  Rng rng(8);
  std::vector<double> x(24);
  for (auto& v : x) v = rng.Uniform(-1, 1);
  std::vector<double> y(6);
  for (size_t i = 0; i < 6; ++i) y[i] = -2.0 * x[9 + i] + 1.0;

  Interval iv;
  iv.start = 0;
  iv.length = 6;
  BestMapOptions opts;
  opts.metric = ErrorMetric::kMaxAbs;
  BestMap(x, y, /*w=*/6, opts, &iv);
  EXPECT_EQ(iv.shift, 9);
  EXPECT_NEAR(iv.err, 0.0, 1e-8);
}

TEST(BestMap, ChoosesBetterOfBaseAndFallback) {
  // The data is a perfect ramp (fall-back error 0) and the base is random
  // noise: the fall-back must win.
  Rng rng(9);
  std::vector<double> x(32);
  for (auto& v : x) v = rng.Uniform(-1, 1);
  std::vector<double> y(8);
  for (size_t i = 0; i < 8; ++i) y[i] = 5.0 * static_cast<double>(i) + 1.0;

  Interval iv;
  iv.start = 0;
  iv.length = 8;
  BestMapOptions opts;
  BestMap(x, y, /*w=*/8, opts, &iv);
  EXPECT_EQ(iv.shift, kShiftLinearFallback);
  EXPECT_NEAR(iv.err, 0.0, 1e-9);
}

TEST(BestMap, SingleValueInterval) {
  std::vector<double> x{1.0, 2.0, 3.0};
  std::vector<double> y{42.0};
  Interval iv;
  iv.start = 0;
  iv.length = 1;
  BestMapOptions opts;
  BestMap(x, y, /*w=*/2, opts, &iv);
  EXPECT_NEAR(iv.err, 0.0, 1e-12);
}

// ------------------------------------------------------------- edge grid

TEST(BestMap, LengthOneInteriorInterval) {
  // length == 1 in the middle of y: a single point is always exactly
  // representable, whichever encoding wins.
  std::vector<double> x{0.5, -1.5, 2.5, 3.5};
  std::vector<double> y{9.0, -7.0, 3.0};
  Interval iv;
  iv.start = 1;
  iv.length = 1;
  BestMapOptions opts;
  BestMap(x, y, /*w=*/2, opts, &iv);
  EXPECT_NEAR(iv.err, 0.0, 1e-12);
}

TEST(BestMap, LengthEqualsBaseSizeHasSingleShift) {
  // length == x.size(): exactly one shift (0) is scannable, and it must
  // actually be scanned, not skipped.
  Rng rng(20);
  std::vector<double> x(16);
  for (auto& v : x) v = rng.Uniform(-1, 1);
  std::vector<double> y(16);
  for (size_t i = 0; i < 16; ++i) y[i] = -4.0 * x[i] + 0.5;
  Interval iv;
  iv.start = 0;
  iv.length = 16;
  BestMapOptions opts;
  BestMap(x, y, /*w=*/16, opts, &iv);
  EXPECT_EQ(iv.shift, 0);
  EXPECT_NEAR(iv.a, -4.0, 1e-9);
  EXPECT_NEAR(iv.b, 0.5, 1e-9);
  EXPECT_NEAR(iv.err, 0.0, 1e-9);
}

TEST(BestMap, ConstantBaseSegmentDegenerateDenominator) {
  // A constant base window makes the normal-equation denominator ~0: the
  // scan must fall into the mean-only branch (a = 0, b = mean(y)) instead
  // of dividing by (near) zero.
  std::vector<double> x(12, 3.0);
  std::vector<double> y{2.0, 4.0, 6.0, 8.0};
  Interval iv;
  iv.start = 0;
  iv.length = 4;
  BestMapOptions opts;
  opts.allow_linear_fallback = false;  // force the base mapping
  BestMap(x, y, /*w=*/4, opts, &iv);
  ASSERT_GE(iv.shift, 0);
  EXPECT_DOUBLE_EQ(iv.a, 0.0);
  EXPECT_NEAR(iv.b, 5.0, 1e-12);  // mean of y
  double expect_err = 0.0;
  for (double v : y) expect_err += (v - 5.0) * (v - 5.0);
  EXPECT_NEAR(iv.err, expect_err, 1e-9);
  EXPECT_TRUE(std::isfinite(iv.err));
}

TEST(BestMap, RelativeMetricBelowFloorMatchesBruteForce) {
  // Every |y| is far below relative_floor, so all the weights clamp to
  // 1/floor^2; the scan must still agree with the brute-force fits.
  Rng rng(21);
  std::vector<double> x(32), full_y(16);
  for (auto& v : x) v = rng.Uniform(-1, 1);
  for (auto& v : full_y) v = rng.Uniform(-0.01, 0.01);  // << floor of 1.0

  Interval iv;
  iv.start = 2;
  iv.length = 8;
  BestMapOptions opts;
  opts.metric = ErrorMetric::kSseRelative;
  opts.relative_floor = 1.0;
  BestMap(x, full_y, /*w=*/8, opts, &iv);

  std::span<const double> yseg(full_y.data() + 2, 8);
  double best = FitTime(ErrorMetric::kSseRelative, yseg, 1.0).err;
  for (size_t s = 0; s + 8 <= x.size(); ++s) {
    best = std::min(best,
                    FitSseRelative(
                        std::span<const double>(x.data() + s, 8), yseg, 1.0)
                        .err);
  }
  EXPECT_NEAR(iv.err, best, 1e-9 * std::max(1.0, best));
}

// ------------------------------------------------- malformed input guard

TEST(BestMap, MalformedIntervalRejectedNotRead) {
  // An interval overrunning y (e.g. decoded from a corrupted frame) must
  // come back as the infinite-error fall-back marker, not crash or scan
  // out of bounds — this used to be a debug-only assert.
  std::vector<double> x(16, 1.0);
  std::vector<double> y(8, 2.0);
  Interval iv;
  iv.start = 4;
  iv.length = 100;  // start + length far beyond y.size()
  BestMapOptions opts;
  BestMap(x, y, /*w=*/4, opts, &iv);
  EXPECT_EQ(iv.shift, kShiftLinearFallback);
  EXPECT_TRUE(std::isinf(iv.err));
  EXPECT_DOUBLE_EQ(iv.a, 0.0);
  EXPECT_DOUBLE_EQ(iv.b, 0.0);
  EXPECT_DOUBLE_EQ(iv.c, 0.0);
}

TEST(BestMap, ZeroLengthIntervalRejected) {
  std::vector<double> x(8, 1.0);
  std::vector<double> y(8, 2.0);
  Interval iv;
  iv.start = 3;
  iv.length = 0;
  BestMapOptions opts;
  BestMap(x, y, /*w=*/4, opts, &iv);
  EXPECT_EQ(iv.shift, kShiftLinearFallback);
  EXPECT_TRUE(std::isinf(iv.err));
}

TEST(BestMap, StartBeyondSeriesRejected) {
  std::vector<double> y(8, 2.0);
  Interval iv;
  iv.start = 9;  // > y.size(); start + length would overflow a naive check
  iv.length = static_cast<uint64_t>(-2);
  BestMapOptions opts;
  BestMap({}, y, /*w=*/4, opts, &iv);
  EXPECT_EQ(iv.shift, kShiftLinearFallback);
  EXPECT_TRUE(std::isinf(iv.err));
}

// ---------------------------------------------------------- determinism

TEST(BestMap, ExactTiePrefersLowestShift) {
  // A periodic integer-valued base makes shifts {0, 4, 8, ...} produce
  // bitwise-identical (zero) errors; the deterministic tie-break must pick
  // shift 0.
  std::vector<double> x;
  for (int r = 0; r < 16; ++r) {
    x.push_back(1.0);
    x.push_back(2.0);
    x.push_back(4.0);
    x.push_back(3.0);
  }
  std::vector<double> y(x.begin(), x.begin() + 8);
  Interval iv;
  iv.start = 0;
  iv.length = 8;
  BestMapOptions opts;
  BestMap(x, y, /*w=*/8, opts, &iv);
  EXPECT_EQ(iv.shift, 0);
  EXPECT_NEAR(iv.err, 0.0, 1e-12);
}

// ------------------------------------------------------ shift-scan memo

// Bitwise equality of two BestMap answers (EXPECT_EQ on doubles would
// accept 0.0 == -0.0).
void ExpectSameBits(const Interval& got, const Interval& want,
                    const std::string& where) {
  EXPECT_EQ(got.shift, want.shift) << where;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.a), std::bit_cast<uint64_t>(want.a))
      << where;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.b), std::bit_cast<uint64_t>(want.b))
      << where;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.c), std::bit_cast<uint64_t>(want.c))
      << where;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.err),
            std::bit_cast<uint64_t>(want.err))
      << where;
}

// The answer of a fresh workspace-less scan: the reference the memo must
// reproduce.
Interval FreshScan(std::span<const double> x, std::span<const double> y,
                   size_t start, size_t length, BestMapOptions opts) {
  opts.workspace = nullptr;
  Interval iv;
  iv.start = start;
  iv.length = length;
  BestMap(x, y, /*w=*/64, opts, &iv);
  return iv;
}

// A shared trial buffer with the cases the memo must get right: random
// stretches, a periodic integer run whose windows tie exactly (zero
// error at every period), and a constant run whose windows have a
// degenerate normal-equation denominator. The stretch before the periodic
// run is dyadic, so every prefix sum up to the run's end is exact and the
// tied windows' errors are bitwise equal.
std::vector<double> MemoTrialBuffer() {
  Rng rng(31);
  std::vector<double> x;
  for (int i = 0; i < 90; ++i) {
    x.push_back(std::round(rng.Uniform(-2, 2) * 8.0) / 8.0);
  }
  for (int r = 0; r < 12; ++r) {
    for (double v : {1.0, 2.0, 4.0, 3.0}) x.push_back(v);
  }
  for (int i = 0; i < 40; ++i) x.push_back(rng.Uniform(-2, 2));
  for (int i = 0; i < 30; ++i) x.push_back(3.0);
  for (int i = 0; i < 48; ++i) x.push_back(rng.Uniform(-2, 2));
  return x;  // 256 values; the periodic run starts at shift 90
}

// The y series and the intervals probed over it: one interval per
// regime above, plus a long one that fits only the longest prefixes.
struct MemoIntervals {
  std::vector<double> y;
  std::vector<std::pair<size_t, size_t>> intervals;  // (start, length)
};

MemoIntervals MakeMemoIntervals(const std::vector<double>& x) {
  MemoIntervals m;
  Rng rng(32);
  for (int i = 0; i < 64; ++i) m.y.push_back(rng.Uniform(-1, 1));
  // An exact copy of the periodic run: every period ties at zero error.
  m.y.insert(m.y.end(), x.begin() + 90, x.begin() + 106);
  // An affine image of a random stretch.
  for (size_t i = 0; i < 16; ++i) m.y.push_back(0.5 * x[150 + i] - 1.0);
  for (int i = 0; i < 64; ++i) m.y.push_back(std::sin(0.3 * i));
  m.intervals = {{0, 1},  {3, 8},   {10, 33}, {64, 16}, {64, 8},
                 {80, 16}, {96, 40}, {100, 64}, {0, 128}};
  return m;
}

struct MemoPolicy {
  const char* name;
  ErrorMetric metric;
  bool quadratic;
};

constexpr MemoPolicy kMemoPolicies[] = {
    {"sse", ErrorMetric::kSse, false},
    {"relative", ErrorMetric::kSseRelative, false},
    {"maxabs", ErrorMetric::kMaxAbs, false},
    {"quadratic", ErrorMetric::kSse, true},
};

// Builds the trial buffer the way the search does: SetBase with the first
// piece, then AppendBase up to each later length, so every length in
// `lengths` is a trial length the memo keeps answers for.
void GrowTrial(EncodeWorkspace* ws, const std::vector<double>& x,
               std::vector<size_t> lengths) {
  std::sort(lengths.begin(), lengths.end());
  ws->SetBase(std::span<const double>(x.data(), lengths[0]));
  for (size_t i = 1; i < lengths.size(); ++i) {
    ws->AppendBase(std::span<const double>(x.data() + lengths[i - 1],
                                           lengths[i] - lengths[i - 1]));
  }
}

TEST(ShiftMemo, PrefixesInAnyOrderMatchFreshScans) {
  // One trial buffer, BestMap over its prefixes in ascending, descending
  // and shuffled order: every answer must equal a fresh workspace-less
  // scan bit for bit, for every policy. The prefix
  // lengths include len == |x| (one shift) for the 128-long interval.
  // "grown" builds the buffer as the search does, so every prefix is a
  // trial length; "whole" sets it in one piece, so only |x| is, and the
  // shorter prefixes below the recorded range take non-recording scans.
  const std::vector<double> x = MemoTrialBuffer();
  const MemoIntervals mi = MakeMemoIntervals(x);
  const std::vector<size_t> ascending = {8, 40, 97, 106, 128, 161, 200, 256};
  std::vector<size_t> descending(ascending.rbegin(), ascending.rend());
  std::vector<size_t> shuffled = {128, 40, 256, 97, 8, 200, 106, 161};
  const std::vector<std::pair<const char*, std::vector<size_t>>> orders = {
      {"ascending", ascending},
      {"descending", descending},
      {"shuffled", shuffled}};

  for (const MemoPolicy& p : kMemoPolicies) {
    for (const auto& [order_name, order] : orders) {
      for (const bool grown : {true, false}) {
        EncodeWorkspace ws;
        ws.BeginChunk();
        if (grown) {
          GrowTrial(&ws, x, ascending);
        } else {
          ws.SetBase(x);
        }
        BestMapOptions opts;
        opts.metric = p.metric;
        opts.quadratic = p.quadratic;
        opts.workspace = &ws;
        for (size_t t : order) {
          const std::span<const double> prefix(x.data(), t);
          for (const auto& [start, length] : mi.intervals) {
            Interval iv;
            iv.start = start;
            iv.length = length;
            BestMap(prefix, mi.y, /*w=*/64, opts, &iv);
            ExpectSameBits(iv, FreshScan(prefix, mi.y, start, length, opts),
                           std::string(p.name) + " " + order_name +
                               (grown ? " grown" : " whole") +
                               " T=" + std::to_string(t) +
                               " start=" + std::to_string(start) +
                               " len=" + std::to_string(length));
          }
        }
        if (grown) {
          EXPECT_GT(ws.stats().shifts_reused, 0u)
              << p.name << " " << order_name;
        }
      }
    }
  }
}

TEST(ShiftMemo, ExactTieAndDegenerateWindowsKeepTheReferenceAnswer) {
  // The periodic copy fits exactly at shifts 90, 94, ... (and, mirrored,
  // 92, 96, ...); the errors tie bitwise at zero, so the lowest shift wins
  // whichever prefix is scanned first. The constant run is all degenerate
  // windows.
  const std::vector<double> x = MemoTrialBuffer();
  const MemoIntervals mi = MakeMemoIntervals(x);
  EncodeWorkspace ws;
  ws.BeginChunk();
  GrowTrial(&ws, x, {106, 110, 180, 200, 256});
  BestMapOptions opts;
  opts.allow_linear_fallback = false;
  opts.workspace = &ws;
  for (size_t t : {256u, 106u, 110u}) {
    const std::span<const double> prefix(x.data(), t);
    Interval iv;
    iv.start = 64;
    iv.length = 16;
    BestMap(prefix, mi.y, /*w=*/64, opts, &iv);
    EXPECT_EQ(iv.shift, 90) << "T=" << t;
    EXPECT_EQ(iv.err, 0.0) << "T=" << t;
    ExpectSameBits(iv, FreshScan(prefix, mi.y, 64, 16, opts),
                   "tie T=" + std::to_string(t));
  }
  // A y window that is itself constant: every shift is a degenerate or
  // zero-error fit, and the answer is still the reference one.
  std::vector<double> flat(16, 3.0);
  for (size_t t : {256u, 180u, 200u}) {
    const std::span<const double> prefix(x.data(), t);
    Interval iv;
    iv.start = 0;
    iv.length = 16;
    BestMap(prefix, flat, /*w=*/64, opts, &iv);
    ExpectSameBits(iv, FreshScan(prefix, flat, 0, 16, opts),
                   "degenerate T=" + std::to_string(t));
  }
}

TEST(ShiftMemo, BlockedKernelTiesBitwiseWithScalarTail) {
  // The memoized SSE scan evaluates whole blocks of kShiftBlock (16)
  // shifts with the blocked kernel and the remainder with the scalar Fit:
  // here 75 shifts, four blocks and an 11-shift tail. A window that
  // recurs at shift 5 (inside a block) and at the last shift (in the
  // tail) must produce bitwise-equal errors on both paths, or the exact
  // tie would not resolve to the lower shift as in the reference scan.
  // The base values are dyadic, so the prefix-sum terms are exact and the
  // two windows differ only in which kernel summed x * y; y is not
  // dyadic, so that sum rounds.
  Rng rng(34);
  const size_t len = 16, num_shifts = 8 * 9 + 3;
  std::vector<double> x(num_shifts + len - 1);
  for (auto& v : x) v = std::round(rng.Uniform(-2, 2) * 8.0) / 8.0;
  const size_t last = num_shifts - 1;
  std::copy(x.begin() + 5, x.begin() + 5 + len, x.begin() + last);
  for (int trial = 0; trial < 16; ++trial) {
    std::vector<double> y(len);
    for (size_t i = 0; i < len; ++i) {
      y[i] = 1.7 * x[5 + i] - 0.3 + rng.Gaussian(0, 0.05);
    }
    EncodeWorkspace ws;
    ws.BeginChunk();
    ws.SetBase(x);
    BestMapOptions opts;
    opts.workspace = &ws;
    Interval iv;
    iv.start = 0;
    iv.length = len;
    BestMap(x, y, /*w=*/64, opts, &iv);
    const Interval want = FreshScan(x, y, 0, len, opts);
    EXPECT_EQ(want.shift, 5) << "trial " << trial;
    ExpectSameBits(iv, want, "trial " + std::to_string(trial));
  }
}

TEST(ShiftMemo, SetBaseKeepsMemoOnBitwisePrefixAndDropsItOtherwise) {
  const std::vector<double> x = MemoTrialBuffer();
  const MemoIntervals mi = MakeMemoIntervals(x);
  // y[80, 96) is an affine image of x[150, 166): shift 150 fits exactly.
  const size_t start = 80, length = 16;
  EncodeWorkspace ws;
  ws.BeginChunk();
  GrowTrial(&ws, x, {200, 256});
  BestMapOptions opts;
  opts.workspace = &ws;
  Interval first;
  first.start = start;
  first.length = length;
  BestMap(x, mi.y, /*w=*/64, opts, &first);
  ASSERT_EQ(first.shift, 150);

  // Rebind to a bitwise prefix at a trial length (free-slot placement):
  // the memo answers without evaluating a single shift, and the prefix
  // table is cut, not rebuilt.
  const WorkspaceStats before = ws.stats();
  const std::vector<double> prefix(x.begin(), x.begin() + 200);
  ws.SetBase(prefix);
  Interval kept;
  kept.start = start;
  kept.length = length;
  BestMap(prefix, mi.y, /*w=*/64, opts, &kept);
  ExpectSameBits(kept, FreshScan(prefix, mi.y, start, length, opts),
                 "prefix rebind");
  EXPECT_EQ(ws.stats().prefix_resets, before.prefix_resets);
  EXPECT_EQ(ws.stats().shifts_reused,
            before.shifts_reused + (prefix.size() - length + 1));

  // A bitwise prefix at another length: the table is still cut, but the
  // memo kept no answers for that length, so it is dropped and rescanned.
  const std::vector<double> shorter(x.begin(), x.begin() + 180);
  ws.SetBase(shorter);
  const WorkspaceStats cut = ws.stats();
  EXPECT_EQ(cut.prefix_resets, before.prefix_resets);
  Interval rescanned;
  rescanned.start = start;
  rescanned.length = length;
  BestMap(shorter, mi.y, /*w=*/64, opts, &rescanned);
  ExpectSameBits(rescanned, FreshScan(shorter, mi.y, start, length, opts),
                 "prefix rebind off the trial lengths");
  EXPECT_EQ(ws.stats().shifts_reused, cut.shifts_reused);
  // The new length is the memo's trial length now, so a repeat is reused.
  BestMap(shorter, mi.y, /*w=*/64, opts, &rescanned);
  EXPECT_EQ(ws.stats().shifts_reused,
            cut.shifts_reused + (shorter.size() - length + 1));

  // Rebind to a non-prefix (eviction or compact rounding rewrote the
  // window the memo's answer came from): the memo is dropped, so the
  // answer moves with the data.
  std::vector<double> evicted = prefix;
  Rng rng(33);
  for (size_t i = 150; i < 166; ++i) evicted[i] = rng.Uniform(-2, 2);
  ws.SetBase(evicted);
  EXPECT_EQ(ws.stats().prefix_resets, before.prefix_resets + 1);
  Interval dropped;
  dropped.start = start;
  dropped.length = length;
  BestMap(evicted, mi.y, /*w=*/64, opts, &dropped);
  EXPECT_NE(dropped.shift, 150);
  ExpectSameBits(dropped, FreshScan(evicted, mi.y, start, length, opts),
                 "non-prefix rebind");

  // Cut back to a trial length (memo kept), then append different values
  // where the cut-off tail was: the memo must be dropped before they land.
  EncodeWorkspace regrow_ws;
  regrow_ws.BeginChunk();
  GrowTrial(&regrow_ws, x, {120, 256});
  opts.workspace = &regrow_ws;
  Interval full;
  full.start = start;
  full.length = length;
  BestMap(x, mi.y, /*w=*/64, opts, &full);
  ASSERT_EQ(full.shift, 150);
  regrow_ws.SetBase(std::span<const double>(x.data(), 120));
  std::vector<double> regrown(x.begin(), x.begin() + 120);
  std::vector<double> tail(x.size() - 120);
  for (auto& v : tail) v = rng.Uniform(-2, 2);
  regrow_ws.AppendBase(tail);
  regrown.insert(regrown.end(), tail.begin(), tail.end());
  Interval appended;
  appended.start = start;
  appended.length = length;
  BestMap(regrown, mi.y, /*w=*/64, opts, &appended);
  EXPECT_NE(appended.shift, 150);
  ExpectSameBits(appended, FreshScan(regrown, mi.y, start, length, opts),
                 "append after cut");
}

TEST(ShiftMemo, StaysWithinRawChunkBytesOnTable2Geometry) {
  // Memory bound of the memo on the paper's Table-2 weather geometry
  // (N=6, M=4096, M_base=3456, 10% TotalBand): the step pool, the memo
  // fields of the interval table and the arena scan scratch together stay
  // within the raw chunk, N * M * 8 bytes, on every chunk.
  datagen::WeatherOptions wo;
  wo.length = 2 * 4096;
  wo.seed = 777;
  const datagen::Dataset data = datagen::GenerateWeather(wo);
  const size_t n = 6, m = 4096;
  EncoderOptions opts;
  opts.total_band = n * m / 10;
  opts.m_base = 3456;
  SbrEncoder enc(opts);
  size_t peak = 0;
  for (size_t chunk = 0; chunk < 2; ++chunk) {
    std::vector<double> y;
    for (size_t s = 0; s < n; ++s) {
      const auto row = data.Signal(s);
      y.insert(y.end(), row.begin() + chunk * m,
               row.begin() + (chunk + 1) * m);
    }
    ASSERT_TRUE(enc.EncodeChunk(y, n).ok());
    EXPECT_GT(enc.last_stats().workspace.shifts_reused, 0u);
    peak = std::max(peak, enc.workspace().shift_memo_bytes());
  }
  RecordProperty("shift_memo_peak_bytes", std::to_string(peak));
  EXPECT_LE(peak, n * m * sizeof(double));
}


// ------------------------------------------------ explicit-SIMD scan block

// "%g" rendering of a double for failure messages (std::to_string prints
// 1e150 in full).
std::string Short(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

// Checks a scan-block instance against the scalar FitShiftSse, bit for bit,
// at every block start of every (x, y) case: all alignments, every window
// of a shift count that is not a multiple of the block. Reports the number
// of mismatching errors and the first one.
void ExpectBlockMatchesScalar(ShiftBlockKernel kernel,
                              const std::vector<double>& x,
                              const std::vector<double>& y,
                              const std::string& where) {
  ASSERT_GE(x.size(), y.size() + kShiftBlock - 1) << where;
  const PrefixSums prefix(x);
  SseShiftScan scan;
  scan.x = x.data();
  scan.y = y.data();
  scan.len = y.size();
  scan.prefix = &prefix;
  for (double v : y) {
    scan.sum_y += v;
    scan.sum_y2 += v * v;
  }
  const size_t num_shifts = x.size() - y.size() + 1;
  size_t mismatches = 0;
  std::string first;
  double err[kShiftBlock];
  for (size_t s = 0; s + kShiftBlock <= num_shifts; ++s) {
    kernel(scan, s, err);
    for (size_t k = 0; k < kShiftBlock; ++k) {
      const double want = FitShiftSse(scan, s + k).err;
      if (std::bit_cast<uint64_t>(err[k]) != std::bit_cast<uint64_t>(want)) {
        if (mismatches++ == 0) {
          first = " first at shift " + std::to_string(s + k) + ": got " +
                  Short(err[k]) + " want " + Short(want);
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << where << first;
}

// The x/y families the block kernels must reproduce: random data, base
// runs that are constant (degenerate windows, zeros included), a constant
// y, and magnitudes of 1e+-150 with mixed signs. At 1e160 the squares
// overflow, so sums go inf and the closed form NaN — the path where the
// clamps must compare exactly as std::max does.
void CheckBlockInstance(ShiftBlockKernel kernel) {
  Rng rng(61);
  for (size_t len = 1; len <= 40; ++len) {
    // num_shifts = kShiftBlock + 21 + len % 7: never a whole number of
    // blocks, so every alignment of a block inside the range is checked.
    const size_t num_shifts = kShiftBlock + 21 + len % 7;
    const size_t n = num_shifts + len - 1;
    const std::string at = " len=" + std::to_string(len);

    std::vector<double> x(n), y(len);
    for (auto& v : x) v = rng.Uniform(-2, 2);
    for (auto& v : y) v = rng.Uniform(-2, 2);
    ExpectBlockMatchesScalar(kernel, x, y, "random" + at);

    std::vector<double> flat = x;
    for (size_t i = n / 4; i < n / 2; ++i) flat[i] = 3.0;
    for (size_t i = n / 2; i < 3 * n / 4; ++i) flat[i] = 0.0;
    ExpectBlockMatchesScalar(kernel, flat, y, "constant base runs" + at);
    ExpectBlockMatchesScalar(kernel, x, std::vector<double>(len, -1.5),
                             "constant y" + at);

    for (const double xm : {1e160, 1e150, 1e-150, 1.0}) {
      for (const double ym : {1e160, 1e150, 1e-150, 1.0}) {
        std::vector<double> xs(n), ys(len);
        for (auto& v : xs) v = xm * rng.Uniform(-1, 1);
        for (auto& v : ys) v = ym * rng.Uniform(-1, 1);
        ExpectBlockMatchesScalar(kernel, xs, ys,
                                 "magnitudes x~" + Short(xm) + " y~" +
                                     Short(ym) + at);
      }
    }
  }
}

TEST(ShiftBlockKernel, BaselineInstanceMatchesScalarFitBitwise) {
  CheckBlockInstance(FitShiftBlockBaseline);
}

TEST(ShiftBlockKernel, Avx2InstanceMatchesScalarFitBitwise) {
#if SBR_SHIFT_BLOCK_AVX2
  if (!CpuHasAvx2()) GTEST_SKIP() << "host CPU lacks AVX2";
  CheckBlockInstance(FitShiftBlockAvx2);
#else
  GTEST_SKIP() << "no AVX2 instance off x86";
#endif
}

TEST(ShiftBlockKernel, DispatchPicksAvx2ExactlyWhenTheCpuHasIt) {
#if SBR_SHIFT_BLOCK_AVX2
  EXPECT_EQ(SelectShiftBlockKernel(),
            CpuHasAvx2() ? FitShiftBlockAvx2 : FitShiftBlockBaseline);
#else
  EXPECT_FALSE(CpuHasAvx2());
  EXPECT_EQ(SelectShiftBlockKernel(), FitShiftBlockBaseline);
#endif
}

TEST(ShiftBlockKernel, MemoizedScanWithBlockTailsMatchesReference) {
  // The memoized SSE scan covers whole blocks with the dispatched kernel
  // and the rest with the scalar fit. Shift counts around multiples of
  // the block, on data of every magnitude, must select the reference
  // scan's shift and fit.
  Rng rng(62);
  for (const double mag : {1.0, 1e150, 1e-150}) {
    for (size_t num_shifts : {1u, 15u, 16u, 17u, 31u, 33u, 47u, 100u}) {
      for (size_t len : {1u, 2u, 7u, 16u, 40u}) {
        std::vector<double> x(num_shifts + len - 1), y(len);
        for (auto& v : x) v = mag * rng.Uniform(-1, 1);
        for (auto& v : y) v = mag * rng.Uniform(-1, 1);
        EncodeWorkspace ws;
        ws.BeginChunk();
        ws.SetBase(x);
        BestMapOptions opts;
        opts.allow_linear_fallback = false;
        opts.workspace = &ws;
        Interval iv;
        iv.start = 0;
        iv.length = len;
        BestMap(x, y, /*w=*/64, opts, &iv);
        ExpectSameBits(iv, FreshScan(x, y, 0, len, opts),
                       "mag=" + Short(mag) +
                           " shifts=" + std::to_string(num_shifts) +
                           " len=" + std::to_string(len));
      }
    }
  }
}

// ------------------------------------------------------- time-fit memo

TEST(TimeFitMemo, MetricSwitchesOnOneWorkspaceMatchFreshFits) {
  // One workspace, one chunk, BestMap under SSE, relative, minimax and
  // quadratic in turn and then again: each linear fall-back is memoized
  // per interval under its metric's tag, so a switch must never answer
  // with another metric's fit. Ramps make the fall-back win; the 300-long
  // interval exceeds the shift cutoff and is fall-back only. A new chunk
  // with other values at the same intervals must not see the old fits.
  Rng rng(63);
  std::vector<double> x(200);
  for (auto& v : x) v = rng.Uniform(-2, 2);
  const auto make_y = [&](double slope) {
    std::vector<double> y(600);
    for (size_t i = 0; i < y.size(); ++i) {
      y[i] = slope * static_cast<double>(i % 150) / 50.0 - 1.0 +
             rng.Gaussian(0, 0.05) + (i >= 450 ? std::sin(0.2 * i) : 0.0);
    }
    return y;
  };
  const std::vector<std::pair<size_t, size_t>> intervals = {
      {0, 300}, {300, 20}, {320, 100}, {420, 30}, {450, 128}};
  const MemoPolicy order[] = {kMemoPolicies[0], kMemoPolicies[1],
                              kMemoPolicies[2], kMemoPolicies[3],
                              kMemoPolicies[0], kMemoPolicies[2],
                              kMemoPolicies[1], kMemoPolicies[0]};
  EncodeWorkspace ws;
  for (const double slope : {1.0, -0.5}) {
    const std::vector<double> y = make_y(slope);
    ws.BeginChunk();
    ws.SetBase(x);
    for (const MemoPolicy& p : order) {
      BestMapOptions opts;
      opts.metric = p.metric;
      opts.quadratic = p.quadratic;
      opts.relative_floor = 0.25;
      opts.workspace = &ws;
      size_t fallbacks = 0;
      for (const auto& [start, length] : intervals) {
        Interval iv;
        iv.start = start;
        iv.length = length;
        BestMap(x, y, /*w=*/64, opts, &iv);
        fallbacks += iv.shift == kShiftLinearFallback;
        ExpectSameBits(iv, FreshScan(x, y, start, length, opts),
                       std::string(p.name) +
                           " slope=" + std::to_string(slope) +
                           " start=" + std::to_string(start));
      }
      EXPECT_GE(fallbacks, 2u) << p.name;
    }
  }
}

}  // namespace
}  // namespace sbr::core
