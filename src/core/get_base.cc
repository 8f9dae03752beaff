#include "core/get_base.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include "core/regression.h"
#include "core/workspace.h"

namespace sbr::core {
namespace {

// Enumerates the K candidate windows: each signal row contributes
// floor(len / w) non-overlapping W-wide windows; the tail remainder of
// each row is not a candidate (DESIGN.md note 5). Rows may have distinct
// lengths (multi-rate sampling, Section 3.2 footnote 2).
std::vector<std::span<const double>> EnumerateCandidates(
    std::span<const double> y, std::span<const size_t> row_lengths,
    size_t w) {
  std::vector<std::span<const double>> cands;
  if (w == 0) return cands;
  size_t offset = 0;
  for (size_t len : row_lengths) {
    for (size_t k = 0; (k + 1) * w <= len; ++k) {
      cands.push_back(y.subspan(offset + k * w, w));
    }
    offset += len;
  }
  return cands;
}

// Argmax of score(i) over the unselected candidates, ascending, so a tie
// goes to the lower index. Returns k when no candidate is left.
template <typename Score>
size_t BestCandidate(size_t k, const std::vector<bool>& selected,
                     const Score& score, double* best_benefit) {
  *best_benefit = -1.0;
  size_t best_i = k;
  for (size_t i = 0; i < k; ++i) {
    if (selected[i]) continue;
    const double benefit = score(i);
    if (benefit > *best_benefit) {
      *best_benefit = benefit;
      best_i = i;
    }
  }
  return best_i;
}

// Each candidate's linear-in-time fit error: the greedy baseline. Workspace
// callers draw the ramp from its arena, others from FitTime's thread-local
// fallback.
std::vector<double> TimeFitErrors(
    const std::vector<std::span<const double>>& cands,
    const GetBaseOptions& options) {
  EncodeArena* arena =
      options.workspace != nullptr ? &options.workspace->arena() : nullptr;
  std::vector<double> err(cands.size());
  for (size_t j = 0; j < cands.size(); ++j) {
    err[j] = FitTime(options.metric, cands[j], options.relative_floor, arena)
                 .err;
  }
  return err;
}

// Two doubles, the baseline shift-scan kernel's vector type
// (regression.cc): an SSE2 register, so the accumulators stay in registers.
constexpr size_t kLanes = 2;
typedef double Vec __attribute__((vector_size(kLanes * sizeof(double))));
// Columns of one pair-sum block, eight accumulators wide.
constexpr size_t kPairBlock = 16;

// The SSE error matrix bitwise as pairwise FitSse(cands[i], cands[j])
// computes it, from O(K W) hoisted sums and one sum_xy per unordered pair.
// Each candidate's sum and sum of squares is FitSse's own ascending loop
// (its x side and its y side add the same values in the same order), and
// sum_xy adds c_i[t] * c_j[t] in ascending t; products commute exactly, so
// (i, j) and (j, i) share its bits. The sums go through FitSse's closed
// form; a degenerate base candidate needs FitSse's second pass over y, so
// its pairs are handed to FitSse itself. At the paper's geometry this is
// about 2e6 multiply-adds per chunk, so it runs serially.
void SseErrorMatrix(const std::vector<std::span<const double>>& cands,
                    std::vector<double>* err) {
  const size_t k = cands.size();
  const size_t w = cands[0].size();
  std::vector<double> sum(k), sum2(k);
  for (size_t c = 0; c < k; ++c) {
    double s = 0.0, s2 = 0.0;
    for (double v : cands[c]) {
      s += v;
      s2 += v * v;
    }
    sum[c] = s;
    sum2[c] = s2;
  }
  // Transposed copy, columns padded to a whole pair block: row t holds
  // every candidate's t-th value, so one pass over t feeds a block of
  // columns with vector loads.
  const size_t stride = (k + kPairBlock - 1) / kPairBlock * kPairBlock;
  std::vector<double> cols(w * stride, 0.0);
  for (size_t c = 0; c < k; ++c) {
    for (size_t t = 0; t < w; ++t) cols[t * stride + c] = cands[c][t];
  }

  const auto store = [&](size_t i, size_t j, double sum_xy) {
    const std::optional<RegressionResult> fit =
        FitSseFromSums(w, sum[i], sum[j], sum_xy, sum2[i], sum2[j]);
    (*err)[i * k + j] = fit ? fit->err : FitSse(cands[i], cands[j]).err;
  };
  double sum_xy[kPairBlock];
  for (size_t i = 0; i < k; ++i) {
    const double* ci = cands[i].data();
    // Columns from i's block on: the block's columns below i repeat pairs
    // already stored, with the same bits, and are skipped.
    for (size_t j0 = i / kPairBlock * kPairBlock; j0 < k; j0 += kPairBlock) {
      Vec acc[kPairBlock / kLanes] = {};
      for (size_t t = 0; t < w; ++t) {
        const Vec xv = {ci[t], ci[t]};
        const double* row = &cols[t * stride + j0];
        for (size_t v = 0; v < kPairBlock / kLanes; ++v) {
          Vec yv;
          std::memcpy(&yv, row + kLanes * v, sizeof(yv));
          acc[v] += xv * yv;
        }
      }
      std::memcpy(sum_xy, acc, sizeof(sum_xy));
      for (size_t j = std::max(i, j0); j < std::min(k, j0 + kPairBlock); ++j) {
        store(i, j, sum_xy[j - j0]);
        if (j != i) store(j, i, sum_xy[j - j0]);
      }
    }
  }
}

// Shared greedy-selection body over a fixed candidate list.
std::vector<CandidateBaseInterval> SelectGreedy(
    const std::vector<std::span<const double>>& cands, size_t max_ins,
    const GetBaseOptions& options) {
  const size_t k = cands.size();
  std::vector<CandidateBaseInterval> result;
  if (k == 0 || max_ins == 0) return result;

  // err[i * k + j]: error of approximating CBI j as a linear projection of
  // CBI i. The diagonal is ~0 (a=1, b=0). Under SSE the matrix comes from
  // hoisted sums; otherwise every pair is fitted, O(K^2 W).
  std::vector<double> err(k * k);
  std::vector<double> best_err = TimeFitErrors(cands, options);
  if (options.metric == ErrorMetric::kSse) {
    SseErrorMatrix(cands, &err);
  } else {
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < k; ++j) {
        err[i * k + j] =
            Fit(options.metric, cands[i], cands[j], options.relative_floor)
                .err;
      }
    }
  }

  std::vector<bool> selected(k, false);
  max_ins = std::min(max_ins, k);
  result.reserve(max_ins);
  for (size_t round = 0; round < max_ins; ++round) {
    double best_benefit = -1.0;
    const size_t best_i = BestCandidate(
        k, selected,
        [&](size_t i) {
          double benefit = 0.0;
          const double* row = &err[i * k];
          for (size_t j = 0; j < k; ++j) {
            const double gain = best_err[j] - row[j];
            if (gain > 0.0) benefit += gain;
          }
          return benefit;
        },
        &best_benefit);
    if (best_i == k || best_benefit <= options.min_benefit) break;
    selected[best_i] = true;
    CandidateBaseInterval cbi;
    cbi.values.assign(cands[best_i].begin(), cands[best_i].end());
    cbi.source_index = best_i;
    cbi.benefit = best_benefit;
    result.push_back(std::move(cbi));
    const double* row = &err[best_i * k];
    for (size_t j = 0; j < k; ++j) {
      best_err[j] = std::min(best_err[j], row[j]);
    }
  }
  return result;
}

}  // namespace

std::vector<CandidateBaseInterval> GetBase(std::span<const double> y,
                                           size_t num_signals, size_t w,
                                           size_t max_ins,
                                           const GetBaseOptions& options) {
  if (num_signals == 0) return {};
  const std::vector<size_t> lengths(num_signals, y.size() / num_signals);
  return SelectGreedy(EnumerateCandidates(y, lengths, w), max_ins, options);
}

std::vector<CandidateBaseInterval> GetBaseMultiRate(
    std::span<const double> y, std::span<const size_t> row_lengths, size_t w,
    size_t max_ins, const GetBaseOptions& options) {
  return SelectGreedy(EnumerateCandidates(y, row_lengths, w), max_ins,
                      options);
}

std::vector<CandidateBaseInterval> GetBaseLowMem(
    std::span<const double> y, size_t num_signals, size_t w, size_t max_ins,
    const GetBaseOptions& options) {
  if (num_signals == 0) return {};
  const std::vector<size_t> lengths(num_signals, y.size() / num_signals);
  const auto cands = EnumerateCandidates(y, lengths, w);
  const size_t k = cands.size();
  std::vector<CandidateBaseInterval> result;
  if (k == 0 || max_ins == 0) return result;

  std::vector<double> best_err = TimeFitErrors(cands, options);

  auto pair_err = [&](size_t i, size_t j) {
    return Fit(options.metric, cands[i], cands[j], options.relative_floor)
        .err;
  };

  std::vector<bool> selected(k, false);
  max_ins = std::min(max_ins, k);
  result.reserve(max_ins);
  for (size_t round = 0; round < max_ins; ++round) {
    // The O(K^2 W) re-scoring is the whole cost of the low-memory variant.
    double best_benefit = -1.0;
    const size_t best_i = BestCandidate(
        k, selected,
        [&](size_t i) {
          double benefit = 0.0;
          for (size_t j = 0; j < k; ++j) {
            const double gain = best_err[j] - pair_err(i, j);
            if (gain > 0.0) benefit += gain;
          }
          return benefit;
        },
        &best_benefit);
    if (best_i == k || best_benefit <= options.min_benefit) break;
    selected[best_i] = true;
    CandidateBaseInterval cbi;
    cbi.values.assign(cands[best_i].begin(), cands[best_i].end());
    cbi.source_index = best_i;
    cbi.benefit = best_benefit;
    result.push_back(std::move(cbi));
    for (size_t j = 0; j < k; ++j) {
      best_err[j] = std::min(best_err[j], pair_err(best_i, j));
    }
  }
  return result;
}

}  // namespace sbr::core
