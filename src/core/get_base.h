// GetBase (paper Algorithm 4): selects which candidate base intervals
// (CBIs) — W-wide windows of the freshly collected data — are worth
// inserting into the base signal, by greedily maximizing the total
// reduction in approximation error over all CBIs relative to the best
// approximation available so far.
#ifndef SBR_CORE_GET_BASE_H_
#define SBR_CORE_GET_BASE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/error_metric.h"

namespace sbr::core {

class EncodeWorkspace;

/// Options for the base-construction algorithms.
struct GetBaseOptions {
  ErrorMetric metric = ErrorMetric::kSse;
  double relative_floor = 1.0;
  /// Candidates whose adjusted benefit falls to (or below) this value are
  /// not selected; the greedy loop stops early instead of padding the
  /// result with useless intervals.
  double min_benefit = 1e-9;
  /// Optional encode workspace: the per-candidate linear-in-time fits draw
  /// their ramp scratch from the workspace arena instead of thread-local
  /// fallback storage. Bitwise-neutral.
  EncodeWorkspace* workspace = nullptr;
};

/// One selected base interval: W data values plus provenance for
/// diagnostics.
struct CandidateBaseInterval {
  std::vector<double> values;
  /// Index of the CBI in the row-major candidate enumeration.
  size_t source_index = 0;
  /// Benefit at the moment of selection.
  double benefit = 0.0;
};

/// Full-matrix GetBase: O(K^2 W) time to build the K x K error matrix plus
/// O(max_ins K^2) selection, O(K^2) space, where K = floor(M/W) * N.
/// `y` is the concatenated N-signal chunk, each signal `m` values.
/// Returns at most `max_ins` CBIs in selection order (greedy-best first).
std::vector<CandidateBaseInterval> GetBase(std::span<const double> y,
                                           size_t num_signals, size_t w,
                                           size_t max_ins,
                                           const GetBaseOptions& options);

/// Multi-rate form: signal rows of differing lengths (concatenated in
/// `y`, lengths in `row_lengths`); each row contributes floor(len / w)
/// candidate windows.
std::vector<CandidateBaseInterval> GetBaseMultiRate(
    std::span<const double> y, std::span<const size_t> row_lengths, size_t w,
    size_t max_ins, const GetBaseOptions& options);

/// Memory-constrained variant (paper Section 4.2, last paragraph): stores
/// only the best error per CBI instead of the K x K matrix. O(K) extra
/// space, O(max_ins K^2 W) time. Produces the same selection sequence as
/// GetBase (verified by tests).
std::vector<CandidateBaseInterval> GetBaseLowMem(std::span<const double> y,
                                                 size_t num_signals, size_t w,
                                                 size_t max_ins,
                                                 const GetBaseOptions& options);

}  // namespace sbr::core

#endif  // SBR_CORE_GET_BASE_H_
