// Unit tests for the insert-count binary search (Algorithms 6 & 7):
// memoization, budget guards, unimodal-minimum location, the
// insert-vs-approximate bandwidth trade-off, and the workspace's shift
// memo shared across probes.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "core/get_base.h"
#include "core/search.h"
#include "core/workspace.h"
#include "util/rng.h"

namespace sbr::core {
namespace {

std::vector<CandidateBaseInterval> MakeCandidates(
    const std::vector<std::vector<double>>& values) {
  std::vector<CandidateBaseInterval> out;
  for (size_t i = 0; i < values.size(); ++i) {
    CandidateBaseInterval cbi;
    cbi.values = values[i];
    cbi.source_index = i;
    out.push_back(std::move(cbi));
  }
  return out;
}

TEST(Search, NoCandidatesReturnsZero) {
  Rng rng(1);
  std::vector<double> y(64);
  for (auto& v : y) v = rng.Uniform(0, 1);
  std::vector<CandidateBaseInterval> candidates;
  SearchContext ctx;
  ctx.candidates = &candidates;
  ctx.y = y;
  ctx.num_signals = 1;
  ctx.w = 8;
  ctx.total_band = 40;
  const SearchResult r = SearchInsertCount(ctx);
  EXPECT_EQ(r.ins, 0u);
}

TEST(Search, PeriodicDataWantsThePeriodInserted) {
  // Strongly periodic data with an empty current base: inserting the
  // period interval slashes the error, so the search must pick ins >= 1.
  const size_t w = 16;
  std::vector<double> y(16 * w);
  for (size_t i = 0; i < y.size(); ++i) {
    y[i] = std::sin(2.0 * M_PI * static_cast<double>(i % w) / w) *
           (1.0 + 0.3 * static_cast<double>(i / w));
  }
  GetBaseOptions gb;
  auto candidates = GetBase(y, 1, w, 4, gb);
  ASSERT_FALSE(candidates.empty());

  SearchContext ctx;
  ctx.candidates = &candidates;
  ctx.y = y;
  ctx.num_signals = 1;
  ctx.w = w;
  ctx.total_band = 120;
  const SearchResult r = SearchInsertCount(ctx);
  EXPECT_GE(r.ins, 1u);
  // Chosen error strictly better than inserting nothing.
  EXPECT_LT(r.errors[r.ins], r.errors[0]);
}

TEST(Search, UselessCandidatesNotInserted) {
  // Pure ramp data: linear fall-back is perfect, base intervals only waste
  // bandwidth, so ins must be 0.
  std::vector<double> y(256);
  for (size_t i = 0; i < y.size(); ++i) y[i] = 2.0 * i;
  auto candidates = MakeCandidates({{std::vector<double>(16, 1.0)},
                                    {std::vector<double>(16, 2.0)}});
  SearchContext ctx;
  ctx.candidates = &candidates;
  ctx.y = y;
  ctx.num_signals = 1;
  ctx.w = 16;
  ctx.total_band = 100;
  const SearchResult r = SearchInsertCount(ctx);
  EXPECT_EQ(r.ins, 0u);
}

TEST(Search, NeverExceedsBudgetFeasibility) {
  // total_band so tight that even one insertion would starve the interval
  // budget: ins must be 0.
  Rng rng(2);
  std::vector<double> y(128);
  for (auto& v : y) v = rng.Uniform(0, 1);
  auto candidates =
      MakeCandidates({std::vector<double>(16, 1.0),
                      std::vector<double>(16, 2.0)});
  SearchContext ctx;
  ctx.candidates = &candidates;
  ctx.y = y;
  ctx.num_signals = 1;
  ctx.w = 16;
  ctx.total_band = 20;  // one insert costs 17, leaving 3 < 4 values
  const SearchResult r = SearchInsertCount(ctx);
  EXPECT_EQ(r.ins, 0u);
  ASSERT_GT(r.errors.size(), 1u);
  EXPECT_TRUE(std::isinf(r.errors[1]));
}

TEST(Search, ChosenInsIsLocalMinimum) {
  Rng rng(3);
  const size_t w = 12;
  std::vector<double> y(12 * w);
  for (size_t i = 0; i < y.size(); ++i) {
    y[i] = std::sin(2.0 * M_PI * static_cast<double>(i % (2 * w)) / (2 * w)) +
           rng.Gaussian(0, 0.1);
  }
  GetBaseOptions gb;
  auto candidates = GetBase(y, 1, w, 6, gb);
  SearchContext ctx;
  ctx.candidates = &candidates;
  ctx.y = y;
  ctx.num_signals = 1;
  ctx.w = w;
  ctx.total_band = 100;
  const SearchResult r = SearchInsertCount(ctx);

  // Exhaustively compute every position's error and verify the pick is a
  // local minimum of the probed curve.
  auto error_at = [&](size_t pos) {
    std::vector<double> trial;
    for (size_t i = 0; i < pos; ++i) {
      trial.insert(trial.end(), candidates[i].values.begin(),
                   candidates[i].values.end());
    }
    const size_t cost = pos * (w + 1);
    if (cost >= ctx.total_band) {
      return std::numeric_limits<double>::infinity();
    }
    auto approx = GetIntervals(trial, y, 1, ctx.total_band - cost, w,
                               ctx.get_intervals);
    return approx.ok() ? approx->total_error
                       : std::numeric_limits<double>::infinity();
  };
  const double chosen = error_at(r.ins);
  if (r.ins > 0) {
    EXPECT_LE(chosen, error_at(r.ins - 1) + 1e-9);
  }
  if (r.ins < candidates.size()) {
    EXPECT_LE(chosen, error_at(r.ins + 1) + 1e-9);
  }
}

TEST(Search, MemoizationKeepsProbeCountLogarithmic) {
  Rng rng(4);
  const size_t w = 8;
  std::vector<double> y(16 * w);
  for (size_t i = 0; i < y.size(); ++i) {
    y[i] = std::sin(i * 0.3) + rng.Gaussian(0, 0.2);
  }
  GetBaseOptions gb;
  auto candidates = GetBase(y, 1, w, 12, gb);
  SearchContext ctx;
  ctx.candidates = &candidates;
  ctx.y = y;
  ctx.num_signals = 1;
  ctx.w = w;
  ctx.total_band = 160;
  const SearchResult r = SearchInsertCount(ctx);
  // Binary search over <= 13 positions: far fewer probes than positions,
  // and certainly bounded by ~3 log2(n) + constant.
  EXPECT_LE(r.probes, 16u);
}

TEST(Search, ExistingBaseReducesNeedForInsertions) {
  // When the current base already contains the period, inserting more
  // should not be chosen.
  const size_t w = 16;
  std::vector<double> period(w);
  for (size_t i = 0; i < w; ++i) {
    period[i] = std::sin(2.0 * M_PI * static_cast<double>(i) / w);
  }
  std::vector<double> y(8 * w);
  for (size_t i = 0; i < y.size(); ++i) {
    y[i] = 5.0 * period[i % w] + 2.0;
  }
  GetBaseOptions gb;
  auto candidates = GetBase(y, 1, w, 4, gb);

  SearchContext with_base;
  with_base.current_base = period;
  with_base.candidates = &candidates;
  with_base.y = y;
  with_base.num_signals = 1;
  with_base.w = w;
  with_base.total_band = 60;
  const SearchResult r = SearchInsertCount(with_base);
  EXPECT_EQ(r.ins, 0u);
}

TEST(Search, SharedShiftMemoMatchesWorkspaceLessSearch) {
  // With a workspace every probe scans against one trial buffer and the
  // probes share its shift memo. The probe record must be bitwise the
  // workspace-less search's, for each linear metric.
  Rng rng(6);
  const size_t w = 24, num_signals = 4, m = 192;
  std::vector<double> y(num_signals * m);
  for (size_t i = 0; i < y.size(); ++i) {
    y[i] = std::sin(static_cast<double>(i % m) * 0.21) *
               (1.0 + 0.1 * static_cast<double>(i / m)) +
           rng.Gaussian(0, 0.1);
  }
  std::vector<double> current_base(3 * w);
  for (auto& v : current_base) v = rng.Uniform(-1, 1);
  const auto candidates = GetBase(y, num_signals, w, 10, GetBaseOptions{});
  ASSERT_GE(candidates.size(), 4u);

  for (ErrorMetric metric : {ErrorMetric::kSse, ErrorMetric::kSseRelative}) {
    SearchContext ctx;
    ctx.current_base = current_base;
    ctx.candidates = &candidates;
    ctx.y = y;
    ctx.num_signals = num_signals;
    ctx.w = w;
    ctx.total_band = 300;
    ctx.get_intervals.best_map.metric = metric;
    const SearchResult want = SearchInsertCount(ctx);

    EncodeWorkspace ws;
    ws.BeginChunk();
    ctx.workspace = &ws;
    const SearchResult got = SearchInsertCount(ctx);
    EXPECT_EQ(got.ins, want.ins);
    EXPECT_EQ(got.probes, want.probes);
    ASSERT_EQ(got.errors.size(), want.errors.size());
    for (size_t i = 0; i < want.errors.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(got.errors[i]),
                std::bit_cast<uint64_t>(want.errors[i]))
          << "pos=" << i;
    }
    EXPECT_GT(ws.stats().shifts_reused, 0u);
  }
}

}  // namespace
}  // namespace sbr::core
