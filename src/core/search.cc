#include "core/search.h"

#include <cassert>
#include <cmath>
#include <limits>

#include "core/workspace.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sbr::core {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

class Prober {
 public:
  explicit Prober(const SearchContext& ctx)
      : ctx_(ctx),
        workspace_(ctx.workspace),
        errors_(ctx.candidates->size() + 1, kNan) {
    if (workspace_ == nullptr) return;
    // Build the maximal trial base once: the trial signal of probe `pos`
    // is a prefix of the trial signal of probe `pos + 1`, so one shared
    // buffer (and one incrementally extended prefix-sum table) serves
    // every probe as a read-only prefix view, and the workspace's shift
    // memo carries each interval's scan from probe to probe (a longer
    // trial only adds shifts). offsets_[pos] is the trial length probe
    // `pos` sees.
    size_t total = ctx.current_base.size();
    for (const auto& cand : *ctx.candidates) total += cand.values.size();
    workspace_->ReserveBase(total);
    workspace_->SetBase(ctx.current_base);
    offsets_.reserve(ctx.candidates->size() + 1);
    offsets_.push_back(workspace_->trial_size());
    for (const auto& cand : *ctx.candidates) {
      workspace_->AppendBase(cand.values);
      offsets_.push_back(workspace_->trial_size());
    }
  }

  // Memoized Algorithm 6: total error with the first `pos` candidates
  // appended to the current base signal.
  double Error(size_t pos) {
    assert(pos < errors_.size());
    if (std::isnan(errors_[pos])) {
      ++probes_;
      Evaluate(pos);
    }
    return errors_[pos];
  }

  size_t probes() const { return probes_; }
  std::vector<double> TakeErrors() { return std::move(errors_); }

 private:
  void Evaluate(size_t pos) {
    SBR_OBS_SPAN(probe_span, "encode.search.probe");
    SBR_OBS_COUNT("encode.search.probe_evals", 1);
    const size_t insert_cost = pos * (ctx_.w + 1);
    if (insert_cost >= ctx_.total_band) {
      errors_[pos] = kInf;
      return;
    }
    const size_t budget = ctx_.total_band - insert_cost;

    // With a workspace the trial base is a prefix view of the shared
    // buffer; without one it is materialized per probe as before.
    std::span<const double> trial;
    std::vector<double> local_trial;
    GetIntervalsOptions gi = ctx_.get_intervals;
    if (workspace_ != nullptr) {
      trial = workspace_->TrialPrefix(offsets_[pos]);
      gi.best_map.workspace = workspace_;
    } else {
      local_trial.assign(ctx_.current_base.begin(), ctx_.current_base.end());
      for (size_t i = 0; i < pos; ++i) {
        const auto& vals = (*ctx_.candidates)[i].values;
        local_trial.insert(local_trial.end(), vals.begin(), vals.end());
      }
      trial = local_trial;
    }
    auto approx =
        ctx_.row_lengths.empty()
            ? GetIntervals(trial, ctx_.y, ctx_.num_signals, budget, ctx_.w,
                           gi)
            : GetIntervalsMultiRate(trial, ctx_.y, ctx_.row_lengths, budget,
                                    ctx_.w, gi);
    errors_[pos] = approx.ok() ? approx->total_error : kInf;
  }

  const SearchContext& ctx_;
  EncodeWorkspace* workspace_ = nullptr;
  std::vector<size_t> offsets_;  // trial length per probe position
  std::vector<double> errors_;
  size_t probes_ = 0;
};

// Algorithm 7, verbatim structure. Returns the position of a local (and,
// under the unimodality assumption, global) minimum in [start, end].
size_t Search(Prober& prober, size_t start, size_t end) {
  if (end == start) return start;
  const size_t middle = (start + end) / 2;
  const double e_middle = prober.Error(middle);
  const double e_start = prober.Error(start);
  if (e_middle > e_start) {
    const double e_end = prober.Error(end);
    if (e_end > e_start) {
      return Search(prober, start, middle);
    }
    return Search(prober, middle, end);
  }
  const double e_next = prober.Error(middle + 1);
  if (e_next < e_middle) {
    return Search(prober, middle + 1, end);
  }
  return Search(prober, start, middle);
}

}  // namespace

SearchResult SearchInsertCount(const SearchContext& ctx) {
  assert(ctx.candidates != nullptr);
  Prober prober(ctx);
  SearchResult result;
  result.ins = Search(prober, 0, ctx.candidates->size());
  // Guard the unimodality assumption: never return a position whose error
  // is infinite (budget exhausted) or worse than inserting nothing.
  if (!(prober.Error(result.ins) < kInf) ||
      prober.Error(result.ins) > prober.Error(0)) {
    result.ins = 0;
  }
  result.probes = prober.probes();
  result.errors = prober.TakeErrors();
  return result;
}

}  // namespace sbr::core
