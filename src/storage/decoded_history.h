// DecodedHistory: a per-sensor history that decodes every transmission
// at ingest and retains the reconstructed chunks — the straightforward
// reading of the paper's "reconstruct the series Y_i at any given point in
// the past". Ingested transmissions are decoded in arrival order (the
// decoder's base-signal mirror makes order significant). Chunks the
// transmission protocol declared lost are kept as explicit gaps: queries
// touching them return DataLoss instead of silently fabricated values.
//
// No production path keeps one: the station and the query service hold a
// CompressedHistory, whose materialized reads decode on demand. This one
// stays as the independent reference those reads are checked against bit
// for bit (the query oracles, the fuzz battery and ChaosSim's shadow).
#ifndef SBR_STORAGE_DECODED_HISTORY_H_
#define SBR_STORAGE_DECODED_HISTORY_H_

#include <memory>
#include <vector>

#include "core/decoder.h"
#include "core/transmission.h"
#include "storage/append_log.h"
#include "storage/chunk_log.h"
#include "storage/moment_index.h"
#include "storage/query_engine.h"
#include "util/status.h"

namespace sbr::storage {

/// Per-sensor decoded history with range queries and explicit loss gaps.
class DecodedHistory {
 public:
  /// `m_base` must match the sensor's encoder configuration.
  explicit DecodedHistory(size_t m_base)
      : decoder_(core::DecoderOptions{m_base}) {}

  /// Rebuilds a store by replaying a chunk log from the beginning
  /// (transmissions, gap markers and snapshots alike).
  static StatusOr<DecodedHistory> FromLog(const ChunkLog& log, size_t m_base);

  /// Decodes and retains the next transmission.
  Status Ingest(const core::Transmission& t);

  /// Records `chunks` lost chunks: the timeline advances but the values
  /// are gone; queries over them report DataLoss.
  void MarkGap(size_t chunks = 1);

  /// Re-establishes the decoder's base-signal mirror from a resync
  /// snapshot.
  Status ApplySnapshot(const core::BaseSnapshot& snapshot);

  /// Number of chunks on the timeline (decoded + gaps).
  size_t num_chunks() const { return chunks_.size(); }
  /// Chunks recorded as lost.
  size_t num_gaps() const { return num_gaps_; }
  /// True if chunk `c` is a loss gap.
  bool IsGap(size_t c) const { return chunks_[c] == nullptr; }
  /// Signals per chunk (0 until the first ingest).
  size_t num_signals() const { return num_signals_; }
  /// Values per signal per chunk.
  size_t chunk_len() const { return chunk_len_; }
  /// Total reconstructed timeline length per signal.
  size_t history_len() const { return chunks_.size() * chunk_len_; }

  /// Reconstructed values of `signal` over the global time range
  /// [t0, t1) (t measured in samples since the first transmission).
  /// Returns DataLoss if the range touches a lost chunk.
  StatusOr<std::vector<double>> QueryRange(size_t signal, size_t t0,
                                           size_t t1) const;

  /// Single reconstructed value.
  StatusOr<double> QueryPoint(size_t signal, size_t t) const;

  /// Exact aggregates of the reconstructed series over [t0, t1) — the
  /// materialized-side counterpart of CompressedHistory::Aggregate.
  /// Fully covered chunks are answered from per-chunk moment summaries
  /// folded at ingest (O(log #chunks) via the hierarchical index); only
  /// the two partial boundary chunks scan samples. Same gap semantics:
  /// touching a lost chunk is DataLoss, abutting one succeeds.
  StatusOr<AggregateResult> AggregateExact(size_t signal, size_t t0,
                                           size_t t1) const;

  /// Whole reconstructed chunk c as a num_signals x chunk_len matrix;
  /// DataLoss if the chunk is a gap.
  StatusOr<linalg::Matrix> Chunk(size_t c) const;

 private:
  core::SbrDecoder decoder_;
  size_t num_signals_ = 0;
  size_t chunk_len_ = 0;
  size_t num_gaps_ = 0;
  /// chunks_[c] is the flat concatenated reconstruction of chunk c; a
  /// nullptr marks a loss gap. The log is shared between copies, so
  /// copying a store (the QueryService snapshot publish path) costs O(1)
  /// here whatever the history length.
  AppendLog<std::shared_ptr<const std::vector<double>>> chunks_;
  /// One hierarchical moment index per signal over the decoded chunks
  /// (created at the first ingest; earlier gap chunks are backfilled);
  /// copies share each signal's node log.
  std::vector<MomentIndex> index_;

  /// Appends chunk summaries (or gap leaves for nullptr) to the index.
  void AppendIndexLeaves(const std::vector<double>* values);
};

}  // namespace sbr::storage

#endif  // SBR_STORAGE_DECODED_HISTORY_H_
