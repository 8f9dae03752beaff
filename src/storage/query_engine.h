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
// Every query runs on a HistoryView: the timeline's chunk-log and
// index-log views plus its geometry and gap count, trivially copyable.
// CompressedHistory answers by taking a view of itself; the QueryService
// publishes one view per epoch under a seqlock and answers from it with
// no lock and no reference count (storage/query_service.h). It is the one
// query path.
//
// Memory: one allocation per chunk holding its wire interval records as
// received (32 bytes each, sorted by start) and per-signal record
// offsets, one base-signal *snapshot version* per change (prefix sums +
// min/max sparse table), and < 2 summary nodes per (chunk, signal) — no
// decoded samples are retained.
#ifndef SBR_STORAGE_QUERY_ENGINE_H_
#define SBR_STORAGE_QUERY_ENGINE_H_

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/decoder.h"
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

/// The queries of one CompressedHistory as of one moment: views of its
/// append-only chunk and index logs plus its geometry. Trivial — a
/// seqlock reader builds one without first zeroing it; HistoryView{} is
/// an empty history — and it reads only entries below its sizes, which
/// the history never writes again, so it stays valid while the
/// history's logs live. Error semantics are CompressedHistory's (below).
class HistoryView {
 public:
  HistoryView() = default;

  size_t num_chunks() const { return chunks_.size(); }
  size_t num_gaps() const { return num_gaps_; }
  bool IsGap(size_t c) const { return chunks_[c].get() == nullptr; }
  size_t num_signals() const { return num_signals_; }
  size_t chunk_len() const { return chunk_len_; }
  size_t history_len() const { return chunks_.size() * chunk_len_; }
  size_t num_base_versions() const { return num_base_versions_; }

  StatusOr<AggregateResult> Aggregate(size_t signal, size_t t0,
                                      size_t t1) const;
  StatusOr<double> Value(size_t signal, size_t t) const;
  StatusOr<std::vector<double>> QueryRange(size_t signal, size_t t0,
                                           size_t t1) const;
  StatusOr<linalg::Matrix> Chunk(size_t c) const;
  StatusOr<AggregateResult> AggregateExact(size_t signal, size_t t0,
                                           size_t t1) const;

 private:
  friend class CompressedHistory;

  /// An immutable base-signal snapshot with prefix sums for O(1) range
  /// sums and (when indexing is on) a sparse table for O(1) range
  /// min/max. Shared by every chunk encoded against it.
  struct BaseVersion {
    std::vector<double> values;
    PrefixSums sums;
    /// Empty when the index is disabled (legacy scan path).
    RangeMinMax minmax;
  };

  /// One ingested chunk in one allocation (query_engine.cc): a header
  /// holding its base version, then num_signals + 1 per-signal record
  /// offsets, then the wire interval records sorted by start (32 bytes
  /// each; a record runs to the next one's start). Immutable once
  /// ingested.
  struct ChunkRecords;

  /// Counted reference to a ChunkRecords; null marks a loss gap. Log
  /// handles that fork copy the entries of their partial block.
  class ChunkRef {
   public:
    ChunkRef() = default;
    explicit ChunkRef(ChunkRecords* chunk) : chunk_(chunk) {}
    ChunkRef(const ChunkRef& other);
    ChunkRef& operator=(const ChunkRef& other);
    ChunkRef(ChunkRef&& other) noexcept
        : chunk_(std::exchange(other.chunk_, nullptr)) {}
    ChunkRef& operator=(ChunkRef&& other) noexcept;
    ~ChunkRef();
    const ChunkRecords* get() const { return chunk_; }

   private:
    ChunkRecords* chunk_ = nullptr;
  };

  // Accumulates the exact moments of one record restricted to [lo, hi)
  // (positions relative to the record's start).
  static void AccumulateInterval(const ChunkRecords& chunk,
                                 const core::IntervalRecord& iv, size_t lo,
                                 size_t hi, MomentSummary* out);

  /// Folds the records of `chunk` overlapping [row_lo, row_hi), a range of
  /// signal `signal`'s row (chunk-local concatenated coordinates), into
  /// `out`.
  void FoldRowRange(const ChunkRecords& chunk, size_t signal, size_t row_lo,
                    size_t row_hi, MomentSummary* out) const;

  /// Decodes rows [row_lo, row_hi) of signal `signal`'s row of `chunk`
  /// (chunk-local concatenated coordinates) into out[0, row_hi - row_lo).
  void DecodeRows(const ChunkRecords& chunk, size_t signal, size_t row_lo,
                  size_t row_hi, double* out) const;

  /// OutOfRange unless `signal` exists and [t0, t1) is a non-empty range
  /// inside the history.
  Status CheckAggregateRange(size_t signal, size_t t0, size_t t1) const;
  /// DataLoss naming the lowest lost chunk among [c_lo, c_hi], if any.
  Status CheckNoGap(size_t c_lo, size_t c_hi) const;

  AppendLog<ChunkRef>::View chunks_;
  /// Width 0 when the history has no index (disabled, or no geometry
  /// yet); otherwise it covers every chunk.
  MomentIndex::View index_;
  size_t num_signals_;
  size_t chunk_len_;
  size_t num_gaps_;
  size_t num_base_versions_;
};

/// Per-sensor compressed history: aggregate queries in the compressed
/// domain, materialized reads decoded on demand. Transmissions become
/// interval lists, protocol losses become explicit gaps (MarkGap) and
/// resync snapshots re-anchor the base-signal mirror (ApplySnapshot).
/// Every query delegates to view().
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

  /// The history as of now, for queries; see HistoryView.
  HistoryView view() const {
    HistoryView v;
    v.chunks_ = chunks_.view();
    v.index_ = index_ ? index_->view() : MomentIndex::View{};
    v.num_signals_ = num_signals_;
    v.chunk_len_ = chunk_len_;
    v.num_gaps_ = num_gaps_;
    v.num_base_versions_ = num_base_versions_;
    return v;
  }

  /// A read-only copy of this history as of `v`, a view() of it taken
  /// earlier: it holds this history's logs (O(1) whatever the history
  /// length) but not the writer's base-signal mirror, so writer calls on
  /// it fail with FailedPrecondition. Reads nothing a writer call
  /// writes, so any thread may take one while this history ingests.
  CompressedHistory Frozen(const HistoryView& v) const;

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
  bool IsGap(size_t c) const { return chunks_[c].get() == nullptr; }
  size_t num_signals() const { return num_signals_; }
  size_t chunk_len() const { return chunk_len_; }
  size_t history_len() const { return chunks_.size() * chunk_len_; }

  /// Aggregates of `signal` over global sample range [t0, t1). A range
  /// with a sample inside a lost chunk returns DataLoss; a range that
  /// merely abuts a gap succeeds. With the index enabled the cost is
  /// O(log #chunks + intervals in the two boundary chunks).
  StatusOr<AggregateResult> Aggregate(size_t signal, size_t t0,
                                      size_t t1) const {
    return view().Aggregate(signal, t0, t1);
  }

  /// Point lookup: finds the record holding the sample among its
  /// signal's records (O(log records)) and evaluates the decoder's sample
  /// formula once; bitwise equal to QueryRange(signal, t, t + 1).
  StatusOr<double> Value(size_t signal, size_t t) const {
    return view().Value(signal, t);
  }

  /// Reconstructed values of `signal` over the global time range
  /// [t0, t1) (t measured in samples since the first transmission),
  /// decoded on demand. Returns DataLoss if the range touches a lost
  /// chunk; an empty range is OK.
  StatusOr<std::vector<double>> QueryRange(size_t signal, size_t t0,
                                           size_t t1) const {
    return view().QueryRange(signal, t0, t1);
  }

  /// Single reconstructed value (same answer as Value).
  StatusOr<double> QueryPoint(size_t signal, size_t t) const {
    return Value(signal, t);
  }

  /// Whole reconstructed chunk c as a num_signals x chunk_len matrix;
  /// DataLoss if the chunk is a gap.
  StatusOr<linalg::Matrix> Chunk(size_t c) const { return view().Chunk(c); }

  /// Aggregates over [t0, t1) computed by decoding and folding every
  /// covered sample — independent of the prefix-sum algebra and the
  /// moment index, so it can check Aggregate. Same gap semantics.
  StatusOr<AggregateResult> AggregateExact(size_t signal, size_t t0,
                                           size_t t1) const {
    return view().AggregateExact(signal, t0, t1);
  }

  /// Number of distinct base-signal versions retained.
  size_t num_base_versions() const { return num_base_versions_; }

  /// True when the hierarchical moment index serves this history.
  bool index_enabled() const { return index_options_.enabled; }

 private:
  using BaseVersion = HistoryView::BaseVersion;
  using ChunkRecords = HistoryView::ChunkRecords;
  using ChunkRef = HistoryView::ChunkRef;

  /// Appends chunk `chunk`'s leaf summaries to the moment index with one
  /// claim, or gap leaves for a null chunk (creating + gap-backfilling
  /// the index on first use).
  void AppendIndexLeaves(const ChunkRecords* chunk);

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
  /// Append-only: views and frozen copies read below their sizes while
  /// this history appends above them.
  AppendLog<ChunkRef> chunks_;
  /// One hierarchical index over every signal (absent until the first
  /// ingest fixes the geometry; gap chunks before that are backfilled).
  std::optional<MomentIndex> index_;
};

/// Former name of the materialized per-sensor history, now the same single
/// timeline. Kept only because the pipeline benchmark (perfbench/) still
/// names it; new code says CompressedHistory.
using HistoryStore = CompressedHistory;

}  // namespace sbr::storage

#endif  // SBR_STORAGE_QUERY_ENGINE_H_
