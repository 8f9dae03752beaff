// EncodeWorkspace: the shared scratch arena of the encode pipeline
// (DESIGN.md §5e). Every stage of one chunk's encode — GetBase scoring,
// the insert-count search probes, the final GetIntervals approximation —
// draws from one workspace instead of allocating per call:
//
//  * the trial-base buffer plus an *incrementally extended* prefix-sum
//    table (PrefixSums::Append performs the identical left-to-right
//    additions as a full Reset, so the grown table is bitwise identical
//    to a rebuilt one),
//  * a per-interval table keyed by the y-segment's (start, length) holding
//    the interval's y-side moments — computed by the exact original
//    accumulation loops, never by prefix-sum subtraction, so byte identity
//    with the workspace-less kernels holds —, its linear-in-time fall-back
//    fit, and its shift-scan memo: how far an ascending scan over the
//    shared trial buffer got and the steps of its running best, so every
//    (interval, shift) pair is evaluated at most once per chunk however
//    many search probes and the final approximation ask for it,
//  * one EncodeArena holding the relative-metric weight arrays, the
//    time-ramp buffer and the shift-scan scratch.
//
// One chunk's encode runs on one thread (DESIGN.md §5d), so the workspace
// takes no lock: concurrency lives one level up, one encoder and one
// workspace per sensor. The workspace is purely an allocation/reuse
// mechanism: every consumer produces bitwise-identical results with or
// without one (golden_test pins this; best_map_test checks the memo
// against fresh scans).
#ifndef SBR_CORE_WORKSPACE_H_
#define SBR_CORE_WORKSPACE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/error_metric.h"
#include "core/regression.h"
#include "util/prefix_sums.h"

namespace sbr::core {

/// y-side moments of one interval under the SSE metric, hoisted out of
/// the shift loop (they do not depend on the shift).
struct SseMoments {
  double sum_y = 0.0;
  double sum_y2 = 0.0;
};

/// y-side weighted moments of one interval under the relative metric
/// (weights depend only on y, so these too are shift-invariant).
struct RelativeMoments {
  double sw = 0.0;
  double swy = 0.0;
  double swy2 = 0.0;
};

/// Per-chunk workspace reuse counters, surfaced via EncodeStats and the
/// obs registry ("encode.workspace.*").
struct WorkspaceStats {
  size_t moment_hits = 0;     ///< moment-cache lookups served from cache
  size_t moment_misses = 0;   ///< lookups that ran the accumulation loop
  size_t prefix_resets = 0;   ///< full prefix-table rebuilds (SetBase)
  size_t prefix_appends = 0;  ///< values appended incrementally
  /// Shifts a memoized BestMap scan answered from the shift memo instead
  /// of evaluating them ("encode.best_map.shifts_scanned" counts the ones
  /// it did evaluate).
  size_t shifts_reused = 0;
};

/// Grow-only scratch of one encode: the workspace owns one, and
/// workspace-less callers keep a thread-local fallback (hence
/// default-constructible).
class EncodeArena {
 public:
  /// The time ramp t = 0, 1, ..., n-1 used by every linear-in-time fit.
  /// Grow-only: extending never changes existing values, so returned
  /// spans of length <= n stay valid and identical.
  std::span<const double> TimeRamp(size_t n) {
    for (size_t i = ramp_.size(); i < n; ++i) {
      ramp_.push_back(static_cast<double>(i));
    }
    return std::span<const double>(ramp_.data(), n);
  }

  /// Relative-metric weight array w_i = 1 / max(|y_i|, floor)^2, filled by
  /// EncodeWorkspace::Relative for the interval being scanned.
  std::vector<double>& weights() { return weights_; }
  /// The elementwise product w_i * y_i, filled alongside weights().
  std::vector<double>& weighted_values() { return weighted_values_; }

  /// Per-shift errors of the shift range a memoized scan evaluates.
  std::vector<double>& shift_errors() { return shift_errors_; }
  /// Staircase steps found in that range, before CommitShifts records them.
  std::vector<uint32_t>& shift_steps() { return shift_steps_; }

  /// Bytes of capacity held by the shift-scan scratch.
  size_t shift_scratch_bytes() const {
    return shift_errors_.capacity() * sizeof(double) +
           shift_steps_.capacity() * sizeof(uint32_t);
  }

 private:
  std::vector<double> ramp_;
  std::vector<double> weights_;
  std::vector<double> weighted_values_;
  std::vector<double> shift_errors_;
  std::vector<uint32_t> shift_steps_;
};

/// Where a memoized shift scan of one interval resumes: shifts
/// [0, from) are already recorded, and best_err is the error of the
/// running best among them (+inf when none has a finite error). `record`
/// is false when the memo cannot answer this scan (see ResumeShifts):
/// the scan then starts from shift 0 and is not recorded.
struct ShiftCursor {
  size_t from = 0;
  double best_err = std::numeric_limits<double>::infinity();
  bool record = true;
};

/// One workspace per encoder (owned by SbrEncoder, or borrowed via its
/// two-argument constructor). BeginChunk resets it at the start of every
/// encode; sharing across *sequentially* encoding encoders is therefore
/// safe, concurrent sharing is not: nothing in it is synchronized.
class EncodeWorkspace {
 public:
  EncodeWorkspace() = default;
  EncodeWorkspace(const EncodeWorkspace&) = delete;
  EncodeWorkspace& operator=(const EncodeWorkspace&) = delete;

  /// Starts a new chunk: clears the per-interval table — moments, time
  /// fits and shift memos (the y-series changes) — and zeroes the
  /// per-chunk stats. Arena, trial and step-pool buffers keep their
  /// capacity across chunks — that reuse is the point.
  void BeginChunk();

  /// Reserves trial-base capacity for `total` values so the subsequent
  /// SetBase/AppendBase sequence does not reallocate.
  void ReserveBase(size_t total);

  /// Rebinds the trial base to `x`. When `x` is a bitwise prefix of the
  /// current trial buffer, the buffer and its prefix table are cut to |x|;
  /// if |x| is also a trial length the memo was kept for (the search's
  /// trial after free-slot placement), the shift memo is kept. Otherwise
  /// (eviction, compact-wire rounding, a new chunk's current base) `x` is
  /// copied, the prefix table rebuilt from scratch (counted as a
  /// prefix_reset) and the memo dropped.
  void SetBase(std::span<const double> x);

  /// Extends the trial base by `values`, appending to the prefix table
  /// incrementally in O(|values|) (counted as prefix_appends). Drops the
  /// shift memo if the new values land where a cut-off buffer tail that
  /// the memo may have scanned used to be.
  void AppendBase(std::span<const double> values);

  /// Current trial-base length in values.
  size_t trial_size() const { return trial_.size(); }

  /// Read-only prefix view of the trial base; `length` must not exceed
  /// trial_size(). Stable across AppendBase only when ReserveBase covered
  /// the final size (the search builds the maximal trial up front).
  std::span<const double> TrialPrefix(size_t length) const {
    assert(length <= trial_.size());
    return std::span<const double>(trial_.data(), length);
  }

  /// Prefix sums over the current trial base (SsePolicy's shared table).
  const PrefixSums& base_prefix() const { return prefix_; }

  /// The scratch arena every stage of the encode draws from.
  EncodeArena& arena() { return arena_; }

  /// y-side SSE moments of the interval starting at `start` (its offset
  /// in the chunk's concatenated series, which keys the cache).
  SseMoments Sse(std::span<const double> yseg, size_t start);

  /// y-side weighted moments of the interval at `start` under the
  /// relative metric, additionally filling the arena's weights() and
  /// weighted_values() arrays for the shift scan. The moments are cached;
  /// the weight arrays are rebuilt elementwise per call (each element is
  /// independent, so the fill is order-insensitive and byte-stable).
  RelativeMoments Relative(std::span<const double> yseg, size_t start,
                           double floor);

  /// BestMap's linear-in-time fall-back, FitTime(metric, yseg, floor), of
  /// the interval at `start`: computed on the first ask for this metric in
  /// the chunk, then answered from the interval table with the same bits.
  /// Like the relative moments it assumes one floor per chunk; the arena
  /// supplies the time ramp on a miss.
  RegressionResult TimeFit(std::span<const double> yseg, size_t start,
                           ErrorMetric metric, double floor);

  /// Shift-scan memo, the resume half: the cursor of a scan of shifts
  /// [0, num_shifts) for the interval (start, length) under policy
  /// `policy` (a tag distinguishing the metric policies). The scan must
  /// evaluate shifts [cursor.from, num_shifts) of the current trial
  /// buffer, keeping a running best that starts at cursor.best_err, and
  /// list every shift whose error is strictly below the running best so
  /// far (the steps). The memo keeps only the steps that can answer a scan
  /// over one of the trial lengths SetBase/AppendBase produced, so a scan
  /// over any other length that ends inside the recorded range gets a
  /// non-recording cursor from shift 0.
  ShiftCursor ResumeShifts(size_t start, size_t length, uint8_t policy,
                           size_t num_shifts);

  /// Shift-scan memo, the commit half: records `steps` (the ascending
  /// shifts found after `cursor`, the last of which has error `steps_err`)
  /// as scanned up to `num_shifts`, and returns the shift an ascending scan
  /// of [0, num_shifts) selects under BestMap's lowest-error, lowest-shift
  /// rule — or -1 when no shift has a finite error. No other scan of the
  /// interval may run between the two halves.
  int64_t CommitShifts(size_t start, size_t length, uint8_t policy,
                       const ShiftCursor& cursor, size_t num_shifts,
                       std::span<const uint32_t> steps, double steps_err);

  /// Bytes of capacity the shift memo holds: the step pool, the memo
  /// fields of the interval table and the arena's scan scratch.
  size_t shift_memo_bytes() const;

  /// Per-chunk reuse counters (since the last BeginChunk).
  const WorkspaceStats& stats() const { return stats_; }

 private:
  static constexpr uint32_t kNoStep = std::numeric_limits<uint32_t>::max();

  // Shift-scan memo of one interval. Its kept steps live in the step pool
  // as a backward-linked list of two-word nodes, newest last:
  // pool[node] = the step's shift, pool[node + 1] = the previous node.
  struct ShiftMemo {
    uint32_t generation = 0;  // valid iff == memo_generation_
    uint32_t scanned = 0;     // shifts [0, scanned) recorded
    uint32_t last = kNoStep;  // newest node in the pool
    uint8_t policy = 0;
    double best_err = std::numeric_limits<double>::infinity();  // of last
  };

  // One interval's cached state: its y-side moments under the metric
  // that last asked for them (SSE: sum_y, sum_y2; relative: sw, swy,
  // swy2), its time fit under the metric that last asked for it (tagged
  // like the shift memo) and its shift memo.
  enum class MomentKind : uint8_t { kNone, kSse, kRelative };
  struct IntervalEntry {
    double moments[3] = {};
    RegressionResult time_fit;
    ShiftMemo memo;
    MomentKind kind = MomentKind::kNone;
    bool has_time_fit = false;
    uint8_t time_fit_policy = 0;
  };

  // Cache key: (start << 32) | length. Chunk series are far below 2^32
  // values, and intervals at one start with different lengths occur across
  // split generations, so both halves are significant.
  static uint64_t Key(size_t start, size_t length) {
    return (static_cast<uint64_t>(start) << 32) |
           static_cast<uint64_t>(length & 0xffffffffu);
  }

  // The interval's memo, reset first when it belongs to a dropped
  // generation or another policy.
  ShiftMemo& Memo(uint64_t key, uint8_t policy);
  // Forgets every interval's shift memo in O(1); the current trial length
  // becomes the only one the memo is kept for.
  void DropShiftMemo();
  // True when scans over a trial of `length` values are answerable.
  bool IsTrialLength(size_t length) const;

  std::vector<double> trial_;
  PrefixSums prefix_;
  EncodeArena arena_;
  // The trial lengths since the memo was last dropped, ascending: the
  // probe lengths whose answers the memo's kept steps preserve. The memo
  // may have scanned windows up to the last one, so the buffer must not
  // change below it while the memo lives.
  std::vector<size_t> trial_lengths_ = {0};

  // The relative moments assume one relative_floor per chunk (it is fixed
  // by EncoderOptions), so the floor is not part of the key.
  std::unordered_map<uint64_t, IntervalEntry> intervals_;
  // Every interval's kept steps; its capacity is reused across chunks.
  std::vector<uint32_t> step_pool_;
  uint32_t memo_generation_ = 1;
  WorkspaceStats stats_;
};

}  // namespace sbr::core

#endif  // SBR_CORE_WORKSPACE_H_
