// SbrEncoder: the sensor-side driver (paper Algorithm 5). Owns the
// base-signal buffer across transmissions and turns each full data chunk
// into one Transmission:
//   1. construct candidate base intervals (GetBase by default),
//   2. binary-search how many to insert (Search),
//   3. place them (free slots first, then LFU eviction),
//   4. approximate the chunk against the final base signal (GetIntervals).
#ifndef SBR_CORE_ENCODER_H_
#define SBR_CORE_ENCODER_H_

#include <functional>
#include <span>
#include <vector>

#include "core/base_signal.h"
#include "core/error_metric.h"
#include "core/get_base.h"
#include "core/get_intervals.h"
#include "core/transmission.h"
#include "core/workspace.h"
#include "linalg/matrix.h"
#include "util/status.h"

namespace sbr::core {

/// Pluggable base-interval construction: given the concatenated chunk,
/// returns up to max_ins candidate intervals of width w in selection order.
/// Used to swap in the SVD construction of the paper's Appendix.
using BaseProvider = std::function<std::vector<CandidateBaseInterval>(
    std::span<const double> y, size_t num_signals, size_t w, size_t max_ins)>;

/// Which base signal the encoder maintains.
enum class BaseStrategy {
  kGetBase,        ///< paper Algorithm 4 (default)
  kGetBaseLowMem,  ///< memory-constrained Algorithm 4 variant
  kCustom,         ///< options.base_provider supplies candidates (e.g. SVD)
  kDctFixed,       ///< fixed cosine dictionary, nothing stored/transmitted
  kNone,           ///< no base: plain piecewise linear regression
};

/// Encoder configuration. Only total_band and m_base are required inputs,
/// mirroring the paper ("the user provides only TotalBand and M_base").
struct EncoderOptions {
  /// Bandwidth per transmission, in values. Must afford at least one
  /// interval per signal.
  size_t total_band = 0;
  /// Base-signal buffer capacity in values (M_base).
  size_t m_base = 0;
  /// Base-interval width; 0 = floor(sqrt(N * M)) at the first chunk.
  size_t w = 0;
  ErrorMetric metric = ErrorMetric::kSse;
  double relative_floor = 1.0;
  /// Disable to reproduce the Table 5 setting (no linear fall-back).
  bool allow_linear_fallback = true;
  BaseStrategy base_strategy = BaseStrategy::kGetBase;
  BaseProvider base_provider;  ///< required iff base_strategy == kCustom
  /// When false the expensive GetBase/Search phase is skipped entirely and
  /// the existing base signal is reused (the Section 4.4 shortcut).
  bool update_base = true;
  /// When > 0, GetIntervals stops splitting once the total error reaches
  /// this target, spending less than total_band (Section 4.5).
  double error_target = 0.0;
  /// Intervals longer than this multiple of W skip the shift scan.
  size_t max_shift_multiple = 2;
  EvictionPolicy eviction = EvictionPolicy::kLfu;
  /// Non-linear encoding extension (paper Section 6): quadratic
  /// projections y' = a x + b + c x^2 at 5 values per interval.
  /// SSE metric only.
  bool quadratic = false;
  /// Compact wire mode: coefficients and base values travel as 32-bit
  /// floats, matching the paper's 32-bit value accounting and halving the
  /// bits on the air. Base-signal values are rounded *before* entering
  /// the sensor-side buffer so encoder and decoder mirrors stay
  /// bit-identical; the precision loss shows up only as a slightly larger
  /// approximation error.
  bool compact_wire = false;
  /// Unread: nothing in the library reads this field. It stays declared
  /// only because the pipeline benchmark (perfbench/src/fleet.cc) assigns
  /// it, and goes with the next change to that benchmark.
  size_t threads = 1;
};

/// Per-chunk encoder diagnostics.
struct EncodeStats {
  size_t inserted_base_intervals = 0;
  size_t num_intervals = 0;
  size_t values_used = 0;
  double total_error = 0.0;
  size_t search_probes = 0;
  /// Workspace reuse counters for the chunk (moment-cache hit rate,
  /// prefix-sum rebuilds vs incremental appends).
  WorkspaceStats workspace;
};

/// Stateful sensor-side encoder. Chunks must share one geometry
/// (num_signals x chunk_len); the first chunk fixes it.
class SbrEncoder {
 public:
  explicit SbrEncoder(EncoderOptions options);

  /// Borrows an external workspace instead of using the encoder's own —
  /// the composition hook for hosts that already keep one per node or per
  /// thread (SbrCompressor, SensorNode's degraded re-encode path). The
  /// workspace must outlive the encoder; the encoder resets it at the
  /// start of every chunk, so sharing one workspace across *sequentially*
  /// encoding encoders is safe, concurrent sharing is not.
  SbrEncoder(EncoderOptions options, EncodeWorkspace* workspace);

  /// Encodes the next chunk of measurements into one transmission.
  StatusOr<Transmission> EncodeChunk(const linalg::Matrix& chunk);

  /// Span form: `y` is the concatenation of num_signals equal-length rows.
  StatusOr<Transmission> EncodeChunk(std::span<const double> y,
                                     size_t num_signals);

  /// Multi-rate form (paper Section 3.2, footnote 2): `y` concatenates
  /// rows of the per-signal lengths given in `row_lengths`, allowing each
  /// quantity its own sampling schedule. The lengths must be identical on
  /// every transmission.
  StatusOr<Transmission> EncodeChunkMultiRate(
      std::span<const double> y, std::span<const size_t> row_lengths);

  const EncoderOptions& options() const { return options_; }

  /// Runtime switch for the Section 4.4 deployment mode: disable to skip
  /// the GetBase/Search phase (reusing the frozen base signal) from the
  /// next chunk on, re-enable when approximation quality degrades.
  void set_update_base(bool update) { options_.update_base = update; }
  /// Base-interval width in effect (known after the first chunk).
  size_t w() const { return w_; }
  const BaseSignal& base_signal() const { return base_; }
  const EncodeStats& last_stats() const { return stats_; }
  /// The workspace the encode pipeline runs against (owned or borrowed).
  const EncodeWorkspace& workspace() const { return *workspace_; }

  /// Switches between the interchangeable stored-base constructions
  /// (kGetBase <-> kGetBaseLowMem), the memory-pressure degraded mode. Any
  /// other transition would change the wire format mid-stream and is
  /// refused.
  Status SetBaseStrategy(BaseStrategy strategy);

  /// Serializes the cross-chunk encoder state (geometry, W, base-signal
  /// buffer, active stored-base strategy) for crash checkpoints. Restoring
  /// into an encoder built with the same options resumes byte-identical
  /// encoding. Per-chunk scratch (workspace, stats) is not part of the
  /// state — it is rebuilt on the next chunk.
  void SaveState(BinaryWriter* writer) const;
  Status RestoreState(BinaryReader* reader);

 private:
  Status ValidateGeometry(std::span<const size_t> row_lengths);
  StatusOr<Transmission> EncodeImpl(std::span<const double> y,
                                    std::span<const size_t> row_lengths,
                                    bool uniform);
  std::vector<CandidateBaseInterval> BuildCandidates(
      std::span<const double> y, size_t max_ins) const;

  EncoderOptions options_;
  size_t w_ = 0;
  std::vector<size_t> row_lengths_;  // fixed by the first chunk
  BaseSignal base_;
  std::vector<double> dct_base_;  // only for kDctFixed
  EncodeStats stats_;
  /// Arena for the encode hot path (see core/workspace.h): prefix sums
  /// over the (trial) base signal, per-interval moment cache, arena
  /// scratch. Owned by default; an injected workspace is only borrowed.
  EncodeWorkspace owned_workspace_;
  EncodeWorkspace* workspace_ = nullptr;
};

}  // namespace sbr::core

#endif  // SBR_CORE_ENCODER_H_
