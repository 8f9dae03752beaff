// Search (paper Algorithms 6 & 7): determines how many of the candidate
// base intervals returned by GetBase to actually insert, by a binary search
// over the (assumed unimodal) total-error-vs-insert-count curve. Each
// probe re-runs GetIntervals with the trial base signal and the bandwidth
// that remains after paying for the trial insertions.
#ifndef SBR_CORE_SEARCH_H_
#define SBR_CORE_SEARCH_H_

#include <span>
#include <vector>

#include "core/get_base.h"
#include "core/get_intervals.h"

namespace sbr::core {

class EncodeWorkspace;

/// Inputs to the insert-count search.
struct SearchContext {
  /// Flat current base signal (may be empty on the first transmission).
  std::span<const double> current_base;
  /// Candidates from GetBase, in selection order; the search decides how
  /// long a prefix to insert.
  const std::vector<CandidateBaseInterval>* candidates = nullptr;
  /// Concatenated data chunk.
  std::span<const double> y;
  size_t num_signals = 0;
  /// Multi-rate rows: when non-empty, overrides num_signals and gives the
  /// per-row lengths of `y`.
  std::span<const size_t> row_lengths;
  size_t w = 0;
  /// Total values available for this transmission; each trial insertion
  /// costs w + 1 of them (values + slot position).
  size_t total_band = 0;
  GetIntervalsOptions get_intervals;
  /// Optional encode workspace. When set, the search builds the maximal
  /// trial base (current base + every candidate) in the workspace once,
  /// extending its prefix sums incrementally, and each probe evaluates
  /// against a prefix *view* of that buffer — no per-probe base copy, no
  /// per-interval prefix rebuild. Because every probe's base is a prefix
  /// of that one buffer, the workspace's shift memo lets a probe scan only
  /// the shifts no earlier probe of the chunk scanned.
  /// Results are bitwise identical with or without a workspace.
  EncodeWorkspace* workspace = nullptr;
};

/// Result of the search: the chosen prefix length and the probe record.
struct SearchResult {
  size_t ins = 0;
  /// errors[i] = total approximation error with the first i candidates
  /// inserted; NaN where the search never probed.
  std::vector<double> errors;
  /// Number of GetIntervals invocations spent (the dominant cost).
  size_t probes = 0;
};

/// Runs the binary search of Algorithm 7 over [0, candidates->size()].
/// Trial counts whose remaining budget cannot afford one interval per
/// signal evaluate to +infinity and are never chosen.
SearchResult SearchInsertCount(const SearchContext& ctx);

}  // namespace sbr::core

#endif  // SBR_CORE_SEARCH_H_
