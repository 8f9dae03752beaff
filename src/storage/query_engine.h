// Compressed-domain query engine: answers aggregate range queries over a
// sensor's history directly from the SBR representation, without ever
// materializing the reconstructed series.
//
// Because every interval is an affine image of a base segment
// (y' = a x + b, or a line/parabola over time), range aggregates reduce to
// prefix sums over the base-signal snapshot in force at that chunk:
//    SUM  = a * sum(X[range]) + b * len                     O(1)/interval
//    SUM2 = a^2 sum(X^2) + 2ab sum(X) + b^2 len             O(1)/interval
// and MIN / MAX to an O(1) sparse-table lookup over the same snapshot.
//
// On top of the per-interval algebra sits the hierarchical moment index
// (storage/moment_index.h): at ingest every (chunk, signal) is folded
// into an exact MomentSummary, and aligned power-of-two groups of chunks
// are pre-merged append-only. A range aggregate then walks intervals only
// inside its two partial boundary chunks and answers every fully covered
// chunk from O(log #chunks) node combines — O(log n) instead of
// O(samples-in-range), including the DataLoss check (gap flags OR up the
// index). IndexOptions{enabled = false} keeps the legacy full interval
// scan alive as the differential reference path.
//
// Memory: one interval list per chunk, one base-signal *snapshot version*
// per change (prefix sums + min/max sparse table), and < 2 summary nodes
// per (chunk, signal) — far below retaining the decoded series.
#ifndef SBR_STORAGE_QUERY_ENGINE_H_
#define SBR_STORAGE_QUERY_ENGINE_H_

#include <memory>
#include <vector>

#include "core/base_signal.h"
#include "core/interval.h"
#include "core/transmission.h"
#include "storage/append_log.h"
#include "storage/moment_index.h"
#include "util/prefix_sums.h"
#include "util/range_min_max.h"
#include "util/status.h"

namespace sbr::storage {

/// Aggregate kinds answered in the compressed domain.
struct AggregateResult {
  double sum = 0.0;
  double avg = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// Population variance of the *approximate* series over the range.
  double variance = 0.0;
  size_t count = 0;
};

/// Query-acceleration switches shared by CompressedHistory and the
/// QueryService that owns one per sensor.
struct IndexOptions {
  /// Hierarchical moment index + per-base-version min/max sparse table.
  /// Disabled = the legacy O(range) interval scan, kept alive as the
  /// differential reference for the index-vs-scan oracle.
  bool enabled = true;
};

/// Per-sensor compressed history with aggregate queries. Mirrors the
/// HistoryStore timeline chunk for chunk: transmissions become interval
/// lists, protocol losses become explicit gaps (MarkGap) and resync
/// snapshots re-anchor the base-signal mirror (ApplySnapshot), so the two
/// stores agree on chunk indices even across faults.
class CompressedHistory {
 public:
  /// `m_base` must match the encoder's configuration.
  explicit CompressedHistory(size_t m_base,
                             IndexOptions index = IndexOptions{})
      : m_base_(m_base), index_options_(index) {}

  /// Ingests the next transmission (in order). Uniform-rate chunks only.
  Status Ingest(const core::Transmission& t);

  /// Records `chunks` lost chunks: the timeline advances but the interval
  /// lists are gone; aggregates touching them report DataLoss.
  void MarkGap(size_t chunks = 1);

  /// Re-establishes the base-signal mirror from a resync snapshot (the
  /// compressed-domain analogue of SbrDecoder::ApplySnapshot).
  Status ApplySnapshot(const core::BaseSnapshot& snapshot);

  size_t num_chunks() const { return chunks_.size(); }
  /// Chunks recorded as lost.
  size_t num_gaps() const { return num_gaps_; }
  /// True if chunk `c` is a loss gap.
  bool IsGap(size_t c) const { return chunks_[c] == nullptr; }
  size_t num_signals() const { return num_signals_; }
  size_t chunk_len() const { return chunk_len_; }
  size_t history_len() const { return chunks_.size() * chunk_len_; }

  /// Aggregates of `signal` over global sample range [t0, t1). A range
  /// with a sample inside a lost chunk returns DataLoss; a range that
  /// merely abuts a gap succeeds. With the index enabled the cost is
  /// O(log #chunks + intervals in the two boundary chunks).
  StatusOr<AggregateResult> Aggregate(size_t signal, size_t t0,
                                      size_t t1) const;

  /// Point lookup (reconstructs a single sample in O(log intervals)).
  StatusOr<double> Value(size_t signal, size_t t) const;

  /// Number of distinct base-signal versions retained.
  size_t num_base_versions() const { return num_base_versions_; }

  /// True when the hierarchical moment index serves this history.
  bool index_enabled() const { return index_options_.enabled; }

 private:
  /// An immutable base-signal snapshot with prefix sums for O(1) range
  /// sums and (when indexing is on) a sparse table for O(1) range
  /// min/max. Shared by every chunk encoded against it.
  struct BaseVersion {
    std::vector<double> values;
    PrefixSums sums;
    /// Empty when the index is disabled (legacy scan path).
    RangeMinMax minmax;
  };

  /// Immutable once ingested. A nullptr entry in `chunks_` marks a loss
  /// gap.
  struct ChunkRep {
    /// Intervals sorted by start, lengths resolved.
    std::vector<core::Interval> intervals;
    std::shared_ptr<const BaseVersion> base;
  };

  // Accumulates the exact moments of one interval restricted to
  // [lo, hi) (positions relative to the interval's start).
  void AccumulateInterval(const ChunkRep& chunk, const core::Interval& iv,
                          size_t lo, size_t hi, MomentSummary* out) const;

  /// Folds the chunk's intervals overlapping row range [row_lo, row_hi)
  /// (chunk-local concatenated coordinates) into `out`.
  void FoldRowRange(const ChunkRep& chunk, size_t row_lo, size_t row_hi,
                    MomentSummary* out) const;

  /// Appends chunk `c`'s per-signal leaf summaries to the moment index
  /// (creating + gap-backfilling the per-signal structures on first use).
  void AppendIndexLeaves(const ChunkRep* chunk);

  /// Publishes the mirror's current contents as a new immutable
  /// BaseVersion (called whenever the mirror changed).
  void PublishBaseVersion();
  /// Builds a BaseVersion (prefix sums + optional min/max table) from
  /// `values`.
  std::shared_ptr<const BaseVersion> BuildVersion(
      std::vector<double> values) const;

  size_t m_base_ = 0;
  IndexOptions index_options_;
  size_t w_ = 0;
  core::BaseKind base_kind_ = core::BaseKind::kStored;
  size_t num_signals_ = 0;
  size_t chunk_len_ = 0;
  size_t num_gaps_ = 0;
  core::BaseSignal mirror_;  // evolving decoder-side buffer
  std::shared_ptr<const BaseVersion> current_base_;
  size_t num_base_versions_ = 0;
  /// Shared with every copy of the history (the QueryService epoch
  /// publish path), so a copy costs O(1) here whatever the history
  /// length.
  AppendLog<std::shared_ptr<const ChunkRep>> chunks_;
  /// One hierarchical index per signal (empty until the first ingest
  /// fixes the geometry; gap chunks before that are backfilled); copies
  /// share each signal's node log.
  std::vector<MomentIndex> index_;
};

}  // namespace sbr::storage

#endif  // SBR_STORAGE_QUERY_ENGINE_H_
