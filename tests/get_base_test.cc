// Unit tests for GetBase and its low-memory variant: candidate
// enumeration, benefit-driven selection, the benefit-adjustment rule (the
// Figure 4 example), equivalence of the two implementations, and the SSE
// error matrix checked bit for bit against pairwise fits.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/get_base.h"
#include "core/regression.h"
#include "util/rng.h"

namespace sbr::core {
namespace {

TEST(GetBase, EmptyWhenNoCandidatesFit) {
  std::vector<double> y(10, 1.0);
  GetBaseOptions opts;
  // W larger than the per-signal length: zero candidates.
  EXPECT_TRUE(GetBase(y, /*num_signals=*/1, /*w=*/20, 4, opts).empty());
  EXPECT_TRUE(GetBase(y, 1, 5, /*max_ins=*/0, opts).empty());
}

TEST(GetBase, SelectsAtMostMaxIns) {
  Rng rng(1);
  std::vector<double> y(160);
  for (auto& v : y) v = rng.Uniform(-5, 5);
  GetBaseOptions opts;
  const auto selected = GetBase(y, /*num_signals=*/2, /*w=*/10, 3, opts);
  EXPECT_LE(selected.size(), 3u);
  for (const auto& cbi : selected) {
    EXPECT_EQ(cbi.values.size(), 10u);
  }
}

TEST(GetBase, CandidateValuesComeFromData) {
  Rng rng(2);
  const size_t m = 40, w = 10;
  std::vector<double> y(2 * m);
  for (auto& v : y) v = rng.Uniform(-5, 5);
  GetBaseOptions opts;
  const auto selected = GetBase(y, 2, w, 8, opts);
  for (const auto& cbi : selected) {
    // source_index identifies the window: row r, window k.
    const size_t per_row = m / w;
    const size_t row = cbi.source_index / per_row;
    const size_t win = cbi.source_index % per_row;
    for (size_t i = 0; i < w; ++i) {
      EXPECT_DOUBLE_EQ(cbi.values[i], y[row * m + win * w + i]);
    }
  }
}

TEST(GetBase, PeriodicSignalNeedsOnePeriod) {
  // Every window of a perfectly periodic signal is identical; one CBI
  // approximates all others with zero error, so the adjusted benefit of a
  // second CBI collapses and selection stops at 1.
  const size_t w = 16, periods = 8;
  std::vector<double> y(w * periods);
  for (size_t i = 0; i < y.size(); ++i) {
    y[i] = std::sin(2.0 * M_PI * static_cast<double>(i % w) / w);
  }
  GetBaseOptions opts;
  const auto selected = GetBase(y, 1, w, 5, opts);
  EXPECT_EQ(selected.size(), 1u);
}

TEST(GetBase, TwoDistinctFamiliesNeedTwoIntervals) {
  // Windows alternate between a sine family and a sawtooth family (both
  // affinely closed within the family but not across), so two CBIs are
  // needed and the second pick must come from the other family.
  const size_t w = 16;
  std::vector<double> y;
  for (int block = 0; block < 8; ++block) {
    for (size_t i = 0; i < w; ++i) {
      if (block % 2 == 0) {
        y.push_back(std::sin(2.0 * M_PI * i / w) * (1.0 + 0.1 * block));
      } else {
        const double saw = (i < w / 2) ? static_cast<double>(i)
                                       : static_cast<double>(w - i);
        y.push_back(saw * (1.0 + 0.1 * block) + 3.0);
      }
    }
  }
  GetBaseOptions opts;
  const auto selected = GetBase(y, 1, w, 5, opts);
  ASSERT_GE(selected.size(), 2u);
  // One pick from each parity class.
  EXPECT_NE(selected[0].source_index % 2, selected[1].source_index % 2);
}

TEST(GetBase, BenefitsDecreaseMonotonically) {
  Rng rng(3);
  std::vector<double> y(300);
  for (size_t i = 0; i < y.size(); ++i) {
    y[i] = std::sin(i * 0.21) + rng.Gaussian(0, 0.3);
  }
  GetBaseOptions opts;
  const auto selected = GetBase(y, 1, 15, 10, opts);
  for (size_t i = 1; i < selected.size(); ++i) {
    EXPECT_LE(selected[i].benefit, selected[i - 1].benefit + 1e-9);
  }
}

TEST(GetBase, FirstPickMaximizesRawBenefit) {
  // Recompute every candidate's initial benefit by brute force and verify
  // the algorithm's first selection attains the maximum.
  Rng rng(4);
  const size_t w = 8, m = 64;
  std::vector<double> y(m);
  for (auto& v : y) v = rng.Uniform(-3, 3);
  GetBaseOptions opts;
  const auto selected = GetBase(y, 1, w, 1, opts);
  ASSERT_EQ(selected.size(), 1u);

  const size_t k = m / w;
  double best = -1;
  for (size_t i = 0; i < k; ++i) {
    std::span<const double> ci(y.data() + i * w, w);
    double benefit = 0;
    for (size_t j = 0; j < k; ++j) {
      std::span<const double> cj(y.data() + j * w, w);
      const double lin = FitTime(ErrorMetric::kSse, cj, 1.0).err;
      const double err = FitSse(ci, cj).err;
      if (err < lin) benefit += lin - err;
    }
    best = std::max(best, benefit);
  }
  EXPECT_NEAR(selected[0].benefit, best, 1e-6 * std::max(1.0, best));
}

TEST(GetBase, LowMemProducesIdenticalSelection) {
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> y(240);
    for (size_t i = 0; i < y.size(); ++i) {
      y[i] = std::sin(i * (0.1 + 0.02 * trial)) + rng.Gaussian(0, 0.5);
    }
    GetBaseOptions opts;
    const auto full = GetBase(y, /*num_signals=*/3, /*w=*/8, 6, opts);
    const auto low = GetBaseLowMem(y, 3, 8, 6, opts);
    ASSERT_EQ(full.size(), low.size()) << "trial " << trial;
    for (size_t i = 0; i < full.size(); ++i) {
      EXPECT_EQ(full[i].source_index, low[i].source_index);
      EXPECT_NEAR(full[i].benefit, low[i].benefit,
                  1e-9 * std::max(1.0, full[i].benefit));
    }
  }
}

TEST(GetBase, StopsWhenNoCandidateHelps) {
  // Pure ramps: linear regression is already perfect on every window, so
  // no CBI has positive benefit and nothing should be selected.
  std::vector<double> y(128);
  for (size_t i = 0; i < y.size(); ++i) y[i] = 3.0 * i + 1.0;
  GetBaseOptions opts;
  EXPECT_TRUE(GetBase(y, 1, 16, 5, opts).empty());
}

TEST(GetBase, RelativeMetricSelectsDifferentlyOnScaledData) {
  // Mixed magnitudes: under the relative metric, approximating the small
  // rows well matters more. The selections need not match the SSE ones.
  Rng rng(6);
  const size_t w = 8, m = 32;
  std::vector<double> y(2 * m);
  for (size_t i = 0; i < m; ++i) y[i] = 1000.0 * std::sin(i * 0.7);
  for (size_t i = m; i < 2 * m; ++i) y[i] = 0.5 * std::cos(i * 1.3);
  GetBaseOptions sse_opts;
  GetBaseOptions rel_opts;
  rel_opts.metric = ErrorMetric::kSseRelative;
  rel_opts.relative_floor = 0.01;
  const auto sse_sel = GetBase(y, 2, w, 2, sse_opts);
  const auto rel_sel = GetBase(y, 2, w, 2, rel_opts);
  ASSERT_FALSE(sse_sel.empty());
  ASSERT_FALSE(rel_sel.empty());
  // The SSE pick chases the large-magnitude rows (first row windows have
  // source_index < m/w).
  EXPECT_LT(sse_sel[0].source_index, m / w);
}

TEST(GetBase, HandlesTailRemainderRows) {
  // m = 37, w = 8: 4 whole windows per row, 5 values of tail ignored.
  Rng rng(7);
  std::vector<double> y(2 * 37);
  for (auto& v : y) v = rng.Uniform(0, 1);
  GetBaseOptions opts;
  const auto selected = GetBase(y, 2, 8, 100, opts);
  EXPECT_LE(selected.size(), 8u);  // at most K = 2 * 4 candidates
}

// The greedy selection with every matrix entry an independent pairwise
// Fit — GetBase's SSE path before its error matrix came from hoisted sums,
// kept here as the reference that path must reproduce bit for bit. Serial
// ascending argmax with a strict comparison: higher benefit, then lower
// index, the rule the parallel merge implements.
std::vector<CandidateBaseInterval> PairwiseReference(
    std::span<const double> y, std::span<const size_t> row_lengths, size_t w,
    size_t max_ins) {
  std::vector<std::span<const double>> cands;
  size_t offset = 0;
  for (size_t len : row_lengths) {
    for (size_t k = 0; (k + 1) * w <= len; ++k) {
      cands.push_back(y.subspan(offset + k * w, w));
    }
    offset += len;
  }
  const size_t k = cands.size();
  std::vector<double> best_err(k), err(k * k);
  for (size_t j = 0; j < k; ++j) {
    best_err[j] = FitTime(ErrorMetric::kSse, cands[j], 1.0).err;
  }
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      err[i * k + j] = Fit(ErrorMetric::kSse, cands[i], cands[j], 1.0).err;
    }
  }
  std::vector<CandidateBaseInterval> result;
  std::vector<bool> selected(k, false);
  for (size_t round = 0; round < std::min(max_ins, k); ++round) {
    double best_benefit = -1.0;
    size_t best_i = k;
    for (size_t i = 0; i < k; ++i) {
      if (selected[i]) continue;
      double benefit = 0.0;
      for (size_t j = 0; j < k; ++j) {
        const double gain = best_err[j] - err[i * k + j];
        if (gain > 0.0) benefit += gain;
      }
      if (benefit > best_benefit) {
        best_benefit = benefit;
        best_i = i;
      }
    }
    if (best_i == k || best_benefit <= GetBaseOptions{}.min_benefit) break;
    selected[best_i] = true;
    CandidateBaseInterval cbi;
    cbi.values.assign(cands[best_i].begin(), cands[best_i].end());
    cbi.source_index = best_i;
    cbi.benefit = best_benefit;
    result.push_back(std::move(cbi));
    for (size_t j = 0; j < k; ++j) {
      best_err[j] = std::min(best_err[j], err[best_i * k + j]);
    }
  }
  return result;
}

void ExpectSameSelection(const std::vector<CandidateBaseInterval>& got,
                         const std::vector<CandidateBaseInterval>& want,
                         const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].source_index, want[i].source_index)
        << where << " pick " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].benefit),
              std::bit_cast<uint64_t>(want[i].benefit))
        << where << " pick " << i;
    EXPECT_EQ(got[i].values, want[i].values) << where << " pick " << i;
  }
}

TEST(GetBase, SseMatrixMatchesPairwiseFitsBitwise) {
  // Candidate counts on both sides of the matrix's 16-column blocks, rows
  // of differing lengths, a constant candidate (degenerate as a base: its
  // pairs take FitSse's second pass) next to an all-zero one, mixed
  // magnitudes: the selection order, indices and benefits must be the
  // pairwise reference's, bit for bit.
  Rng rng(8);
  struct Case {
    std::vector<size_t> rows;
    size_t w;
  };
  const Case cases[] = {{{40}, 8},            // K = 5
                        {{136}, 8},           // K = 17
                        {{200, 200, 200}, 8}, // K = 75
                        {{96, 150, 61}, 6}};  // K = 16 + 25 + 10
  for (const Case& c : cases) {
    for (const double mag : {1.0, 1e-3, 1e6}) {
      std::vector<double> y;
      for (size_t len : c.rows) {
        for (size_t i = 0; i < len; ++i) {
          y.push_back(mag * (std::sin(0.37 * static_cast<double>(i)) +
                             rng.Gaussian(0, 0.4)));
        }
      }
      // Window 1 constant, window 2 all zeros.
      for (size_t i = c.w; i < 2 * c.w; ++i) y[i] = 2.5 * mag;
      for (size_t i = 2 * c.w; i < 3 * c.w; ++i) y[i] = 0.0;
      const size_t max_ins = 12;
      const auto want = PairwiseReference(y, c.rows, c.w, max_ins);
      ASSERT_GE(want.size(), 2u);
      const GetBaseOptions opts;
      const std::string where = "rows=" + std::to_string(c.rows.size()) +
                                " w=" + std::to_string(c.w) +
                                " mag=" + std::to_string(mag);
      ExpectSameSelection(GetBaseMultiRate(y, c.rows, c.w, max_ins, opts),
                          want, where);
      if (c.rows.size() == 1 || c.rows[0] == c.rows[1]) {
        ExpectSameSelection(GetBase(y, c.rows.size(), c.w, max_ins, opts),
                            want, where);
      }
    }
  }
}

}  // namespace
}  // namespace sbr::core
