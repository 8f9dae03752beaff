#include "core/get_intervals.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <queue>

#include "core/workspace.h"
#include "obs/metrics.h"

namespace sbr::core {
namespace {

// Shared splitting loop: starts from one interval per row (rows given by
// their lengths) and splits the worst interval until the budget or the
// error target is reached.
//
// This is the split stage of the encode pipeline (ingest -> split ->
// BestMap -> Search -> serialize): every interval it enqueues flows
// through BestMap, which is where the per-interval state — prefix sums
// over `x`, y-side regression moments, arena scratch — is consumed. When
// options.best_map carries an EncodeWorkspace, that state is shared and
// memoized across every BestMap call of the chunk (the same (start,
// length) intervals recur across search probes and the final
// approximation), instead of being rebuilt O(|x|) per interval.
StatusOr<ApproximationResult> Run(std::span<const double> x,
                                  std::span<const double> y,
                                  std::span<const size_t> row_lengths,
                                  size_t budget_values, size_t w,
                                  const GetIntervalsOptions& options) {
  if (row_lengths.empty() || y.empty()) {
    return Status::InvalidArgument("empty input");
  }
  const size_t total_len =
      std::accumulate(row_lengths.begin(), row_lengths.end(), size_t{0});
  if (total_len != y.size()) {
    return Status::InvalidArgument(
        "row lengths sum to " + std::to_string(total_len) + ", series has " +
        std::to_string(y.size()) + " values");
  }
  for (size_t len : row_lengths) {
    if (len == 0) return Status::InvalidArgument("zero-length row");
  }
  const size_t max_intervals = budget_values / options.values_per_interval;
  if (max_intervals < row_lengths.size()) {
    return Status::InvalidArgument(
        "budget of " + std::to_string(budget_values) +
        " values cannot afford one interval per signal (" +
        std::to_string(row_lengths.size()) + " needed)");
  }
  // Workspace invariant (debug-only): the shared prefix-sum table must
  // cover the base signal every BestMap call below will scan.
  assert(options.best_map.workspace == nullptr ||
         options.best_map.workspace->base_prefix().size() >= x.size());

  const bool is_max_metric =
      options.best_map.metric == ErrorMetric::kMaxAbs;

  std::priority_queue<Interval> queue;
  // Intervals that cannot be split further (length 1 or zero error).
  std::vector<Interval> frozen;
  double sum_error = 0.0;  // running total for the sum-based metrics

  auto push = [&](Interval iv) {
    sum_error += iv.err;
    if (iv.length <= 1 || iv.err == 0.0) {
      frozen.push_back(iv);
    } else {
      queue.push(iv);
    }
  };

  size_t offset = 0;
  for (size_t len : row_lengths) {
    Interval iv;
    iv.start = offset;
    iv.length = len;
    BestMap(x, y, w, options.best_map, &iv);
    push(iv);
    offset += len;
  }

  auto total_error = [&]() -> double {
    if (!is_max_metric) return sum_error;
    // For the minimax metric the total is the worst interval, which is the
    // head of the priority queue or the worst frozen interval.
    double worst = queue.empty() ? 0.0 : queue.top().err;
    for (const Interval& iv : frozen) worst = std::max(worst, iv.err);
    return worst;
  };

  size_t num_intervals = row_lengths.size();
  while (num_intervals < max_intervals && !queue.empty()) {
    if (options.error_target > 0.0 && total_error() <= options.error_target) {
      break;  // error target met; save the remaining budget (Section 4.5)
    }
    const Interval parent = queue.top();
    if (parent.err == 0.0) break;  // perfect approximation already
    queue.pop();
    sum_error -= parent.err;

    Interval left;
    left.start = parent.start;
    left.length = parent.length / 2;
    BestMap(x, y, w, options.best_map, &left);

    Interval right;
    right.start = parent.start + parent.length / 2;
    right.length = parent.length - parent.length / 2;
    BestMap(x, y, w, options.best_map, &right);

    push(left);
    push(right);
    ++num_intervals;
  }

  ApproximationResult result;
  result.intervals.reserve(num_intervals);
  result.intervals.insert(result.intervals.end(), frozen.begin(),
                          frozen.end());
  while (!queue.empty()) {
    result.intervals.push_back(queue.top());
    queue.pop();
  }
  std::sort(result.intervals.begin(), result.intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  if (is_max_metric) {
    double worst = 0.0;
    for (const Interval& iv : result.intervals) {
      worst = std::max(worst, iv.err);
    }
    result.total_error = worst;
  } else {
    // Recompute from the final list to avoid drift from the running sum.
    double sum = 0.0;
    for (const Interval& iv : result.intervals) sum += iv.err;
    result.total_error = sum;
  }
  result.values_used = result.intervals.size() * options.values_per_interval;
  SBR_OBS_COUNT("encode.get_intervals.runs", 1);
  SBR_OBS_COUNT("encode.get_intervals.splits",
                num_intervals - row_lengths.size());
  return result;
}

}  // namespace

StatusOr<ApproximationResult> GetIntervals(
    std::span<const double> x, std::span<const double> y, size_t num_signals,
    size_t budget_values, size_t w, const GetIntervalsOptions& options) {
  if (num_signals == 0 || y.empty()) {
    return Status::InvalidArgument("empty input");
  }
  if (y.size() % num_signals != 0) {
    return Status::InvalidArgument("series length " +
                                   std::to_string(y.size()) +
                                   " not divisible by num_signals");
  }
  const std::vector<size_t> lengths(num_signals, y.size() / num_signals);
  return Run(x, y, lengths, budget_values, w, options);
}

StatusOr<ApproximationResult> GetIntervalsMultiRate(
    std::span<const double> x, std::span<const double> y,
    std::span<const size_t> row_lengths, size_t budget_values, size_t w,
    const GetIntervalsOptions& options) {
  return Run(x, y, row_lengths, budget_values, w, options);
}

std::vector<double> ReconstructFromIntervals(
    std::span<const double> x, size_t total_len,
    std::span<const Interval> intervals) {
  std::vector<double> out(total_len, 0.0);
  for (const Interval& iv : intervals) {
    assert(iv.start + iv.length <= total_len);
    assert(iv.shift == kShiftLinearFallback ||
           static_cast<size_t>(iv.shift) + iv.length <= x.size());
    for (size_t i = 0; i < iv.length; ++i) {
      out[iv.start + i] = IntervalSample(x, iv, i);
    }
  }
  return out;
}

}  // namespace sbr::core
