// Compressed-domain history of one sensor: the single per-sensor timeline
// the base station and the query service keep. Ingest validates a
// transmission, resolves its interval records (core::ResolveIntervals,
// the decoder's own guards) and folds the moment index; it never
// reconstructs samples.
//
// Aggregate range queries are answered directly from the SBR
// representation. Because every interval is an affine image of a base
// segment (y' = a x + b, or a line/parabola over time), range aggregates
// reduce to prefix sums over the base-signal snapshot in force at that
// chunk:
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
// Materialized reads (QueryRange, QueryPoint/Value, Chunk, AggregateExact)
// decode on demand: the covered intervals are evaluated against the
// chunk's base version with the decoder's own kernel
// (core::ReconstructRange), so their output is bitwise equal to what an
// SbrDecoder fed the same stream produces (storage::DecodedHistory is the
// reference the tests hold them to).
//
// Memory: one interval list per chunk, one base-signal *snapshot version*
// per change (prefix sums + min/max sparse table), and < 2 summary nodes
// per (chunk, signal) — no decoded samples are retained.
#ifndef SBR_STORAGE_QUERY_ENGINE_H_
#define SBR_STORAGE_QUERY_ENGINE_H_

#include <memory>
#include <vector>

#include "core/decoder.h"
#include "core/interval.h"
#include "core/transmission.h"
#include "linalg/matrix.h"
#include "storage/append_log.h"
#include "storage/chunk_log.h"
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

/// Per-sensor compressed history: aggregate queries in the compressed
/// domain, materialized reads decoded on demand. Transmissions become
/// interval lists, protocol losses become explicit gaps (MarkGap) and
/// resync snapshots re-anchor the base-signal mirror (ApplySnapshot).
class CompressedHistory {
 public:
  /// `m_base` must match the encoder's configuration.
  explicit CompressedHistory(size_t m_base,
                             IndexOptions index = IndexOptions{})
      : index_options_(index), mirror_(m_base) {}

  /// Rebuilds a history by replaying a chunk log from the beginning
  /// (transmissions, gap markers and snapshots alike).
  static StatusOr<CompressedHistory> FromLog(const ChunkLog& log,
                                             size_t m_base,
                                             IndexOptions index = {});

  /// A read-only copy for an epoch snapshot: shares every append-only log
  /// and base version with this history (O(signals)) but not the
  /// writer's base-signal mirror, so writer calls on it fail with
  /// FailedPrecondition.
  CompressedHistory Frozen() const;

  /// Ingests the next transmission (in order). Uniform-rate chunks only.
  /// Accepts exactly what core::SbrDecoder decodes, with the same status
  /// codes. A rejected transmission adds no chunk; as in the decoder,
  /// base updates applied before the failure stay applied.
  Status Ingest(const core::Transmission& t);

  /// Records `chunks` lost chunks: the timeline advances but the interval
  /// lists are gone; queries touching them report DataLoss.
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

  /// Point lookup: evaluates the one sample with the decoder's kernel in
  /// O(log intervals); bitwise equal to QueryRange(signal, t, t + 1).
  StatusOr<double> Value(size_t signal, size_t t) const;

  /// Reconstructed values of `signal` over the global time range
  /// [t0, t1) (t measured in samples since the first transmission),
  /// decoded on demand. Returns DataLoss if the range touches a lost
  /// chunk; an empty range is OK.
  StatusOr<std::vector<double>> QueryRange(size_t signal, size_t t0,
                                           size_t t1) const;

  /// Single reconstructed value (same answer as Value).
  StatusOr<double> QueryPoint(size_t signal, size_t t) const {
    return Value(signal, t);
  }

  /// Whole reconstructed chunk c as a num_signals x chunk_len matrix;
  /// DataLoss if the chunk is a gap.
  StatusOr<linalg::Matrix> Chunk(size_t c) const;

  /// Aggregates over [t0, t1) computed by decoding and folding every
  /// covered sample — independent of the prefix-sum algebra and the
  /// moment index, so it can check Aggregate. Same gap semantics.
  StatusOr<AggregateResult> AggregateExact(size_t signal, size_t t0,
                                           size_t t1) const;

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

  /// Decodes rows [row_lo, row_hi) of chunk `chunk` (chunk-local
  /// concatenated coordinates) into out[0, row_hi - row_lo).
  static void DecodeRows(const ChunkRep& chunk, size_t row_lo, size_t row_hi,
                         double* out);

  /// OutOfRange unless `signal` exists and [t0, t1) is a non-empty range
  /// inside the history.
  Status CheckAggregateRange(size_t signal, size_t t0, size_t t1) const;
  /// DataLoss naming the lowest lost chunk among [c_lo, c_hi], if any.
  Status CheckNoGap(size_t c_lo, size_t c_hi) const;

  /// Publishes the mirror's current contents as a new immutable
  /// BaseVersion (called before a chunk references a changed mirror).
  void PublishBaseVersion(std::span<const double> values);

  IndexOptions index_options_;
  /// Writer-only: the base-signal mirror (empty in a Frozen() copy).
  core::BaseMirror mirror_;
  /// mirror_.generation() that current_base_ was built from.
  uint64_t published_generation_ = 0;
  bool frozen_ = false;
  size_t num_signals_ = 0;
  size_t chunk_len_ = 0;
  size_t num_gaps_ = 0;
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

/// Former name of the materialized per-sensor history, now the same single
/// timeline. Kept only because the pipeline benchmark (perfbench/) still
/// names it; new code says CompressedHistory.
using HistoryStore = CompressedHistory;

}  // namespace sbr::storage

#endif  // SBR_STORAGE_QUERY_ENGINE_H_
