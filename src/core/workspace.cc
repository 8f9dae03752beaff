#include "core/workspace.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace sbr::core {

void EncodeWorkspace::BeginChunk() {
  trial_.clear();
  prefix_.Reset({});
  intervals_.clear();
  DropShiftMemo();
  stats_ = WorkspaceStats{};
}

void EncodeWorkspace::ReserveBase(size_t total) {
  trial_.reserve(total);
  prefix_.Reserve(total);
}

void EncodeWorkspace::SetBase(std::span<const double> x) {
  // Bitwise (not ==) comparison: the memo is exact only if every window
  // it scanned holds the same bits.
  if (x.size() <= trial_.size() &&
      (x.empty() ||
       std::memcmp(x.data(), trial_.data(), x.size() * sizeof(double)) ==
           0)) {
    trial_.resize(x.size());
    prefix_.Truncate(x.size());
    if (!IsTrialLength(x.size())) DropShiftMemo();
    return;
  }
  trial_.assign(x.begin(), x.end());
  prefix_.Reset(x);
  DropShiftMemo();
  ++stats_.prefix_resets;
}

void EncodeWorkspace::AppendBase(std::span<const double> values) {
  if (trial_.size() < trial_lengths_.back()) DropShiftMemo();
  trial_.insert(trial_.end(), values.begin(), values.end());
  for (double v : values) prefix_.Append(v);
  if (trial_.size() > trial_lengths_.back()) {
    trial_lengths_.push_back(trial_.size());
  }
  stats_.prefix_appends += values.size();
}

void EncodeWorkspace::DropShiftMemo() {
  ++memo_generation_;
  step_pool_.clear();
  trial_lengths_.assign(1, trial_.size());
}

bool EncodeWorkspace::IsTrialLength(size_t length) const {
  return std::binary_search(trial_lengths_.begin(), trial_lengths_.end(),
                            length);
}

SseMoments EncodeWorkspace::Sse(std::span<const double> yseg, size_t start) {
  IntervalEntry& e = intervals_[Key(start, yseg.size())];
  if (e.kind == MomentKind::kSse) {
    ++stats_.moment_hits;
    return {e.moments[0], e.moments[1]};
  }
  // The exact accumulation loop of the workspace-less kernel: summing in
  // index order keeps the cached moments bitwise identical to a local
  // recomputation.
  SseMoments m;
  for (double v : yseg) {
    m.sum_y += v;
    m.sum_y2 += v * v;
  }
  ++stats_.moment_misses;
  e.moments[0] = m.sum_y;
  e.moments[1] = m.sum_y2;
  e.kind = MomentKind::kSse;
  return m;
}

RelativeMoments EncodeWorkspace::Relative(std::span<const double> yseg,
                                          size_t start, double floor) {
  const size_t len = yseg.size();
  std::vector<double>& w = arena_.weights();
  std::vector<double>& wy = arena_.weighted_values();
  w.resize(len);
  wy.resize(len);

  IntervalEntry& e = intervals_[Key(start, len)];
  if (e.kind == MomentKind::kRelative) {
    ++stats_.moment_hits;
    // Moments are cached but the arena's weight arrays may hold another
    // interval's values; refill them. Each element is independent of the
    // others, so the fill needs no particular order to stay byte-stable.
    for (size_t i = 0; i < len; ++i) {
      const double d = std::max(std::abs(yseg[i]), floor);
      w[i] = 1.0 / (d * d);
      wy[i] = w[i] * yseg[i];
    }
    return {e.moments[0], e.moments[1], e.moments[2]};
  }
  // Miss path: the exact loop of ComputeRelativeMoments, weights and
  // running sums interleaved in index order.
  RelativeMoments m;
  for (size_t i = 0; i < len; ++i) {
    const double d = std::max(std::abs(yseg[i]), floor);
    w[i] = 1.0 / (d * d);
    wy[i] = w[i] * yseg[i];
    m.sw += w[i];
    m.swy += wy[i];
    m.swy2 += wy[i] * yseg[i];
  }
  ++stats_.moment_misses;
  e.moments[0] = m.sw;
  e.moments[1] = m.swy;
  e.moments[2] = m.swy2;
  e.kind = MomentKind::kRelative;
  return m;
}

RegressionResult EncodeWorkspace::TimeFit(std::span<const double> yseg,
                                          size_t start, ErrorMetric metric,
                                          double floor) {
  const uint8_t policy = static_cast<uint8_t>(metric);
  IntervalEntry& e = intervals_[Key(start, yseg.size())];
  if (e.has_time_fit && e.time_fit_policy == policy) return e.time_fit;
  e.time_fit = FitTime(metric, yseg, floor, &arena_);
  e.has_time_fit = true;
  e.time_fit_policy = policy;
  return e.time_fit;
}

EncodeWorkspace::ShiftMemo& EncodeWorkspace::Memo(uint64_t key,
                                                  uint8_t policy) {
  ShiftMemo& memo = intervals_[key].memo;
  if (memo.generation != memo_generation_ || memo.policy != policy) {
    memo = ShiftMemo{};
    memo.generation = memo_generation_;
    memo.policy = policy;
  }
  return memo;
}

ShiftCursor EncodeWorkspace::ResumeShifts(size_t start, size_t length,
                                          uint8_t policy, size_t num_shifts) {
  const ShiftMemo& memo = Memo(Key(start, length), policy);
  if (num_shifts < memo.scanned && !IsTrialLength(num_shifts + length - 1)) {
    return {0, std::numeric_limits<double>::infinity(), /*record=*/false};
  }
  return {memo.scanned, memo.best_err, /*record=*/true};
}

int64_t EncodeWorkspace::CommitShifts(size_t start, size_t length,
                                      uint8_t policy,
                                      const ShiftCursor& cursor,
                                      size_t num_shifts,
                                      std::span<const uint32_t> steps,
                                      double steps_err) {
  if (!cursor.record) {
    return steps.empty() ? -1 : static_cast<int64_t>(steps.back());
  }
  ShiftMemo& memo = Memo(Key(start, length), policy);
  // Nothing scans the interval between the two halves, so the memo still
  // ends where the cursor resumed.
  assert(memo.scanned == cursor.from);
  stats_.shifts_reused += std::min(cursor.from, num_shifts);
  if (num_shifts > memo.scanned) {
    // Of the new steps, keep the last one below each probe's shift count
    // (trial length - length + 1) — the only ones a probe can be answered
    // with — and the newest, which answers this scan and seeds the next
    // extension.
    auto cut = trial_lengths_.begin();
    for (auto step = steps.begin(); step != steps.end(); ++step) {
      const bool newest = step + 1 == steps.end();
      // First probe shift count above this step.
      while (cut != trial_lengths_.end() && *cut < *step + length) ++cut;
      if (newest ||
          (cut != trial_lengths_.end() && *cut - length + 1 <= step[1])) {
        const uint32_t node = static_cast<uint32_t>(step_pool_.size());
        step_pool_.push_back(*step);
        step_pool_.push_back(memo.last);
        memo.last = node;
      }
    }
    if (!steps.empty()) memo.best_err = steps_err;
    memo.scanned = static_cast<uint32_t>(num_shifts);
  }
  // The answer is the last step below num_shifts: the running best of an
  // ascending scan over exactly [0, num_shifts). It is this scan's newest
  // step if it found one; otherwise it is the last recorded step below
  // min(num_shifts, cursor.from), which the memo kept: either the newest
  // step when the cursor was taken, or a probe's answer (ResumeShifts
  // hands out recording cursors below the recorded range only for trial
  // lengths).
  if (!steps.empty()) return steps.back();
  const size_t bound = std::min(num_shifts, cursor.from);
  for (uint32_t node = memo.last; node != kNoStep;
       node = step_pool_[node + 1]) {
    if (step_pool_[node] < bound) return step_pool_[node];
  }
  return -1;
}

size_t EncodeWorkspace::shift_memo_bytes() const {
  return step_pool_.capacity() * sizeof(uint32_t) +
         intervals_.size() * sizeof(ShiftMemo) + arena_.shift_scratch_bytes();
}

}  // namespace sbr::core
