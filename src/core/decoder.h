// SbrDecoder: the base-station-side inverse of SbrEncoder. Mirrors the
// sensor's base-signal buffer by applying the slot updates carried in each
// transmission, then reconstructs the approximate chunk from the interval
// records. Feeding it the encoder's transmissions in order reproduces the
// encoder-side approximation exactly (bit-for-bit; verified by tests).
//
// The pieces every receiver shares live here too: BaseMirror (header
// validation, base updates and resync snapshots) and ResolveIntervals
// (interval records -> the chunk's tiling, with its guards). The decoder
// and storage::CompressedHistory both build on them, so they accept the
// same transmissions with the same status codes.
#ifndef SBR_CORE_DECODER_H_
#define SBR_CORE_DECODER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/base_signal.h"
#include "core/interval.h"
#include "core/transmission.h"
#include "linalg/matrix.h"
#include "util/status.h"

namespace sbr::core {

/// Decoder configuration: must match the encoder's m_base; everything else
/// is carried in transmission headers.
struct DecoderOptions {
  size_t m_base = 0;
  /// Upper bound on samples per chunk, guarding reconstruction buffers
  /// against corrupted geometry headers.
  size_t max_chunk_samples = size_t{1} << 26;
};

/// Resolves a transmission's interval records into the intervals that
/// tile its chunk of `total_len` samples: sorted by start, lengths
/// inferred from the next start (paper Section 4.2). DataLoss when the
/// chunk exceeds `max_chunk_samples`, the records do not start at 0,
/// two records overlap, or a base-mapped interval reaches outside the
/// `base_len` values of its base signal.
StatusOr<std::vector<Interval>> ResolveIntervals(
    std::span<const IntervalRecord> records, size_t total_len,
    size_t base_len, size_t max_chunk_samples);

/// The receiver's mirror of one sensor's base signal: validates each
/// transmission header against the stream, applies its slot updates, and
/// re-anchors from resync snapshots.
class BaseMirror {
 public:
  explicit BaseMirror(size_t m_base) : m_base_(m_base) {}

  /// Validates `t`'s header against the stream (the first transmission
  /// that references a base fixes W and the base kind) and applies its
  /// base updates in order. An update that fails leaves the earlier ones
  /// of the same transmission applied.
  Status Advance(const Transmission& t);

  /// Rebuilds the mirror from scratch with exactly the snapshot's slots,
  /// so receiver and encoder agree again regardless of what was lost.
  Status ApplySnapshot(const BaseSnapshot& snapshot);

  /// The base signal the intervals of `t` map onto: empty for a
  /// self-contained (degraded-mode) transmission, so an interval that
  /// still claims a base reference is rejected, never resolved against
  /// unrelated state.
  std::span<const double> BaseFor(const Transmission& t) const;

  /// Changes whenever the current base signal's contents may have
  /// changed, so a consumer can cache a copy of it.
  uint64_t generation() const { return generation_; }

  /// The stored base buffer (empty unless the stream uses BaseKind::kStored).
  const BaseSignal& stored() const { return base_; }

 private:
  size_t m_base_ = 0;
  size_t w_ = 0;
  BaseKind base_kind_ = BaseKind::kStored;
  BaseSignal base_;
  std::vector<double> dct_base_;
  uint64_t generation_ = 0;
};

/// Stateful per-sensor decoder.
class SbrDecoder {
 public:
  explicit SbrDecoder(DecoderOptions options)
      : options_(options), mirror_(options.m_base) {}

  /// Applies the transmission's base updates and reconstructs the chunk as
  /// the flat concatenated series (num_signals * chunk_len values).
  StatusOr<std::vector<double>> DecodeChunk(const Transmission& t);

  /// Like DecodeChunk but reshaped to a num_signals x chunk_len matrix.
  StatusOr<linalg::Matrix> DecodeChunkToMatrix(const Transmission& t);

  /// Re-establishes the base-signal mirror from a resync snapshot: the
  /// mirror is rebuilt from scratch with exactly the snapshot's slots, so
  /// decoder and encoder agree again regardless of what was lost.
  Status ApplySnapshot(const BaseSnapshot& snapshot) {
    return mirror_.ApplySnapshot(snapshot);
  }

  const BaseSignal& base_signal() const { return mirror_.stored(); }

 private:
  StatusOr<std::vector<double>> DecodeChunkImpl(const Transmission& t);

  DecoderOptions options_;
  BaseMirror mirror_;
};

}  // namespace sbr::core

#endif  // SBR_CORE_DECODER_H_
