// The wire format of one sensor-to-base-station transmission (paper
// Section 3.2 / Figure 1): the newly inserted base intervals with their
// slot positions, followed by the interval records approximating the data
// chunk. Value accounting (how many of the TotalBand "values" each part
// consumes) lives here so encoder, decoder, benches and the network
// simulator all agree.
#ifndef SBR_CORE_TRANSMISSION_H_
#define SBR_CORE_TRANSMISSION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/serialize.h"
#include "util/status.h"

namespace sbr::core {

/// How the decoder obtains the base signal.
enum class BaseKind : uint8_t {
  /// Slots are populated via BaseUpdate records (GetBase / SVD bases).
  kStored = 0,
  /// The base is the fixed DCT cosine dictionary, regenerated locally;
  /// nothing is transmitted or stored against M_base.
  kDctFixed = 1,
  /// No base signal: every interval uses the linear-in-time encoding and
  /// interval records carry no shift (3 values each).
  kNone = 2,
};

/// Wire precision for coefficients and base-signal values. kFloat32 is
/// the "compact" mode matching the paper's 32-bit value accounting (and
/// the energy model's default bits_per_value = 32); kFloat64 is lossless
/// with respect to the encoder's arithmetic.
enum class WirePrecision : uint8_t {
  kFloat64 = 0,
  kFloat32 = 1,
};

/// One base-signal slot write: `w` values placed at slot `slot`.
struct BaseUpdate {
  uint32_t slot = 0;
  std::vector<double> values;
};

/// One approximation interval as transmitted: the interval length is not
/// sent; the receiver sorts records by start and infers lengths from the
/// gaps (paper Section 4.2).
struct IntervalRecord {
  uint32_t start = 0;
  int32_t shift = -1;  ///< -1 = linear-in-time fall-back
  double a = 0.0;
  double b = 0.0;
  /// Quadratic coefficient; only transmitted when Transmission::quadratic
  /// is set (the Section 6 non-linear encoding extension).
  double c = 0.0;
};

/// One transmission.
struct Transmission {
  /// Geometry header, validated by the decoder.
  uint32_t num_signals = 0;
  uint32_t chunk_len = 0;  ///< M: values per signal in this chunk
  /// Multi-rate chunks: when non-empty (size == num_signals), per-signal
  /// lengths replace the uniform chunk_len (which is then 0).
  std::vector<uint32_t> signal_lengths;
  uint32_t w = 0;          ///< base-interval width
  BaseKind base_kind = BaseKind::kStored;
  /// Quadratic-encoding extension: interval records carry a third
  /// coefficient and cost one extra value each.
  bool quadratic = false;
  /// Wire precision for doubles (see WirePrecision).
  WirePrecision precision = WirePrecision::kFloat64;

  std::vector<BaseUpdate> base_updates;
  std::vector<IntervalRecord> intervals;

  /// Abstract transmission size in "values" (the unit of TotalBand):
  /// (w + 1) per base update, 4 per interval with a shift pointer
  /// (5 when quadratic), 3 per interval when base_kind == kNone
  /// (4 when quadratic).
  size_t ValueCount() const;

  /// Total values in the chunk this transmission encodes.
  size_t TotalSamples() const;

  /// Bits on the air under the declared precision (ValueCount values of
  /// 32 or 64 bits each) — what the radio energy model charges for.
  size_t WireBits() const {
    return ValueCount() * (precision == WirePrecision::kFloat32 ? 32 : 64);
  }

  /// Binary wire encoding.
  void Serialize(BinaryWriter* writer) const;
  static StatusOr<Transmission> Deserialize(BinaryReader* reader);
  /// Deserialize into `out`, reusing the capacity of its vectors (a
  /// receiver's per-frame scratch). On failure `out` holds a partial
  /// parse.
  static Status DeserializeInto(BinaryReader* reader, Transmission* out);
  /// Parses `payload` as exactly one transmission into `out` (reusing its
  /// capacity): DataLoss if it does not parse or leaves bytes unread. This
  /// is the one rule for every holder of a transmission payload — the
  /// station's receive path, log recovery and replay, and the tools — so
  /// a payload the station would refuse is refused everywhere.
  static Status ParsePayload(std::span<const uint8_t> payload,
                             Transmission* out);
};

// ---------------------------------------------------------------------------
// On-air framing. SBR transmissions are stateful (base-signal updates must
// be applied in order), so every radio transmission travels inside a framed
// envelope {sensor_id, sequence number, base-signal epoch, payload length,
// CRC32}: corruption and truncation are detected by checksum, and loss /
// duplication / reordering are detected by the sequence number, before any
// byte reaches the decoder.

/// What the frame payload contains.
enum class FrameType : uint8_t {
  /// A serialized Transmission (one encoded data chunk).
  kData = 0,
  /// A serialized BaseSnapshot (resync: full base-signal state dump).
  kSnapshot = 1,
};

/// A checked frame whose payload still lies in the received bytes, so a
/// receiver can route it without copying the payload.
struct FrameView {
  FrameType type = FrameType::kData;
  uint32_t sensor_id = 0;
  uint64_t seq = 0;
  uint32_t epoch = 0;
  std::span<const uint8_t> payload;
};

/// One framed on-air message.
struct Frame {
  FrameType type = FrameType::kData;
  uint32_t sensor_id = 0;
  /// Per-sensor sequence number; every frame (data or snapshot) consumes
  /// one. The receiver accepts seq == expected, buffers a bounded window
  /// ahead, and suppresses anything behind.
  uint64_t seq = 0;
  /// Base-signal epoch. Incremented by the sensor each time it ships a
  /// snapshot to re-establish a common base signal; data frames from a
  /// stale epoch are rejected, never decoded.
  uint32_t epoch = 0;
  std::vector<uint8_t> payload;

  /// Serialized size in bytes (header + payload).
  size_t WireBytes() const { return kHeaderBytes + payload.size(); }

  /// Header bytes on the wire: magic, type, sensor, seq, epoch, len, crc.
  static constexpr size_t kHeaderBytes = 4 + 1 + 4 + 8 + 4 + 4 + 4;

  void Serialize(BinaryWriter* writer) const;
  /// Checks exactly one frame in `bytes` (magic, bounds, CRC, no trailing
  /// bytes): DataLoss if any check fails. The view's payload points into
  /// `bytes`.
  static StatusOr<FrameView> ParseView(std::span<const uint8_t> bytes);
};

/// Wraps one encoded chunk into a data frame.
Frame MakeDataFrame(uint32_t sensor_id, uint64_t seq, uint32_t epoch,
                    const Transmission& t);

/// Resync payload: the sensor's full base-signal state plus the number of
/// data chunks that were lost for good (never delivered, not re-encoded)
/// since the last synchronized frame. The receiver records those chunks as
/// explicit DataLoss gaps so the timeline stays aligned.
struct BaseSnapshot {
  uint32_t missing_chunks = 0;
  /// Chunks the sensor has *resolved* (delivered or written off as lost)
  /// over its whole lifetime. Lets a receiver whose log lost records (power
  /// loss, mid-log corruption) rebuild the timeline length: any shortfall
  /// versus this count is recorded as DataLoss gaps before the snapshot.
  /// A 0 here means "not tracked": the receiver falls back to summing
  /// missing_chunks onto its own length. Senders that report losses must
  /// therefore also report deliveries (MarkChunkDelivered per accepted
  /// chunk) — a nonzero count that undercounts deliveries would understate
  /// the timeline, so the receiver takes max(timeline_chunks, own length).
  uint64_t timeline_chunks = 0;
  uint32_t w = 0;  ///< base-interval width; 0 = encoder not warmed up yet
  BaseKind base_kind = BaseKind::kStored;
  /// Populated slots in slot order (each exactly w values).
  std::vector<BaseUpdate> slots;

  /// Values the radio model charges for (w + 1 per slot, as BaseUpdates).
  size_t ValueCount() const;

  void Serialize(BinaryWriter* writer) const;
  static StatusOr<BaseSnapshot> Deserialize(BinaryReader* reader);
  /// Parses `payload` as exactly one snapshot, under the same rule as
  /// Transmission::ParsePayload: DataLoss if bytes are left unread.
  static StatusOr<BaseSnapshot> ParsePayload(std::span<const uint8_t> payload);
};

/// Wraps a base-signal snapshot into a resync frame.
Frame MakeSnapshotFrame(uint32_t sensor_id, uint64_t seq, uint32_t epoch,
                        const BaseSnapshot& snapshot);

}  // namespace sbr::core

#endif  // SBR_CORE_TRANSMISSION_H_
