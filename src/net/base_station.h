// BaseStation: receives transmissions from many sensors, appends each to
// the sensor's chunk log and keeps one queryable timeline per sensor
// (paper Figure 1: one log file per sensor, plus the base-signal updates
// folded into the same stream). The timeline is a
// storage::CompressedHistory: interval lists against shared base-signal
// versions, never decoded samples — "Y_i at any point in the past" is
// decoded on demand when it is read. It lives in a storage::QueryService
// (the attached one, else the station's own with the index off), so each
// accepted frame is resolved, indexed and published once.
//
// On-air frames pass through the fault-tolerant receive protocol first:
// CRC validation, duplicate suppression, a bounded reorder window, and
// epoch tracking. A detected gap or epoch mismatch is surfaced as an
// explicit DataLoss gap plus a resync request — a frame whose base-signal
// lineage is broken is never decoded into silent garbage. A data frame's
// payload is logged as received, and only once the timeline accepted it.
#ifndef SBR_NET_BASE_STATION_H_
#define SBR_NET_BASE_STATION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/transmission.h"
#include "storage/chunk_log.h"
#include "storage/query_engine.h"
#include "storage/query_service.h"
#include "util/status.h"

namespace sbr::net {

/// Typed receiver verdict for one frame.
enum class AckType : uint8_t {
  kAccept = 0,     ///< ingested (data decoded / snapshot applied)
  kDuplicate = 1,  ///< already seen; suppressed
  kBuffered = 2,   ///< ahead of the expected seq; held in the reorder window
  kCorrupt = 3,    ///< CRC/parse failure; retransmit
  kDesync = 4,     ///< gap or epoch mismatch; resync required
};

/// The ACK/NACK returned to the sender for every received frame.
struct FrameAck {
  AckType type = AckType::kAccept;
  uint32_t sensor_id = 0;
  uint64_t seq = 0;
  uint32_t epoch = 0;  ///< receiver's current epoch
  /// Set on kDesync: the sensor must ship a base-signal snapshot (new
  /// epoch) before any further data frame can be accepted.
  bool resync_requested = false;
};

/// Per-sensor receive-protocol counters.
struct ProtocolStats {
  size_t frames_accepted = 0;
  size_t corrupt_frames = 0;  ///< station-wide on the aggregate (see below)
  size_t duplicates_suppressed = 0;
  size_t buffered_out_of_order = 0;
  size_t gap_chunks = 0;  ///< chunks recorded as DataLoss gaps
  size_t resync_requests = 0;
  size_t snapshots_applied = 0;
  size_t degraded_batches = 0;  ///< self-contained (no-base) chunks ingested
  size_t stale_frames_rejected = 0;
};

/// The sink node of the network.
class BaseStation {
 public:
  /// `m_base` must match the sensors' encoder configuration. When
  /// `log_dir` is non-empty, one durable log file per sensor is kept under
  /// it ("sensor_<id>.log"); otherwise logs are in-memory.
  /// `reorder_window` bounds how many frames ahead of the expected
  /// sequence number are buffered before a gap is declared.
  /// With `persist_protocol_state` the receive state machine (expected
  /// seq, epoch, counters) is checkpointed into each sensor's log after
  /// every record-appending transition and every resync demand, and
  /// restored on the next Open, so a restarted station resumes the
  /// protocol instead of treating every sensor as brand new. Off by
  /// default: trusted-path (`Receive`) users keep byte-identical logs
  /// with no checkpoint records interleaved.
  explicit BaseStation(size_t m_base, std::string log_dir = "",
                       size_t reorder_window = 8,
                       bool persist_protocol_state = false);

  /// Ingests one transmission from `sensor_id`, bypassing the frame
  /// protocol (trusted local path; no sequence/epoch tracking).
  Status Receive(uint32_t sensor_id, const core::Transmission& t);

  /// Ingests one on-air frame (the serialized byte form) and returns the
  /// typed ACK/NACK. Always returns a clean ack for malformed input —
  /// corruption is a protocol event, not an internal error.
  StatusOr<FrameAck> ReceiveBytes(std::span<const uint8_t> bytes);

  /// Per-sensor protocol counters (zeroes if the sensor is unknown).
  /// `corrupt_frames` is only meaningful on total_stats(): a frame that
  /// fails its CRC cannot be attributed to a sensor.
  ProtocolStats stats(uint32_t sensor_id) const;
  /// Aggregate over all sensors plus unattributable corrupt frames.
  const ProtocolStats& total_stats() const { return total_; }

  /// Sensors heard from so far.
  size_t num_sensors() const { return sensors_.size(); }
  bool HasSensor(uint32_t sensor_id) const {
    return sensors_.count(sensor_id) > 0;
  }

  /// The sensor's timeline, the service's writer-side one (materialized
  /// reads decode on demand); NotFound if never heard from. Read it on the
  /// ingest thread or after ingest; concurrent readers use Snapshot().
  StatusOr<const storage::CompressedHistory*> History(
      uint32_t sensor_id) const;

  /// The raw log of a sensor; NotFound if never heard from.
  StatusOr<const storage::ChunkLog*> Log(uint32_t sensor_id) const;

  /// Makes `service` hold every sensor's timeline: each accepted ingest,
  /// gap and resync snapshot, and the log replay of a recovered sensor,
  /// goes into it, and it publishes an epoch snapshot per mutation for
  /// concurrent readers. Not owned; must outlive the station. nullptr
  /// detaches (the station keeps its own service). Refused, leaving the
  /// attachment as it was, with FailedPrecondition once the station has
  /// heard from a sensor (the timelines would start mid-stream), and with
  /// InvalidArgument for a service of another `m_base` (every chunk would
  /// become a silent gap).
  Status AttachQueryService(storage::QueryService* service);
  /// The attached service; nullptr when the station keeps its own.
  storage::QueryService* query_service() const {
    return owned_ != nullptr ? nullptr : timelines_;
  }

 private:
  struct PerSensor {
    storage::ChunkLog log;
    // Receive-protocol state.
    uint64_t expected_seq = 0;
    uint32_t epoch = 0;
    bool awaiting_resync = false;
    /// Bounded reorder window: payloads of data frames by seq.
    std::map<uint64_t, std::vector<uint8_t>> pending{};
    ProtocolStats stats{};
    uint32_t id = 0;
  };

  StatusOr<PerSensor*> GetOrCreate(uint32_t sensor_id);
  StatusOr<FrameAck> HandleFrame(const core::FrameView& frame);
  /// Parses a data frame's payload into rx_; false if it is not exactly
  /// one transmission.
  bool ParseData(std::span<const uint8_t> payload);
  /// The sensor's timeline, or an empty one if none was written yet.
  const storage::CompressedHistory& Timeline(uint32_t sensor_id) const;
  /// Ingests `t` into the timeline, then logs `payload`, the frame
  /// payload it was parsed from.
  Status IngestData(PerSensor* s, const core::Transmission& t,
                    std::span<const uint8_t> payload);
  /// Records `chunks` DataLoss gaps in log and timeline.
  Status DeclareGap(PerSensor* s, size_t chunks);
  /// Appends a protocol-state checkpoint record (persist mode only).
  Status AppendProtocolCheckpoint(PerSensor* s);
  /// Restores protocol state from the log's last checkpoint, replaying any
  /// records appended after it (persist mode only; checkpoint-less legacy
  /// logs keep the fresh-sensor defaults).
  Status RestoreProtocolState(PerSensor* s);

  size_t m_base_;
  std::string log_dir_;
  size_t reorder_window_;
  bool persist_protocol_state_;
  std::map<uint32_t, PerSensor> sensors_;
  ProtocolStats total_;
  /// The station's own service (index off) while none is attached.
  std::unique_ptr<storage::QueryService> owned_;
  /// Holds every sensor's timeline: the attached service, else owned_.
  storage::QueryService* timelines_;
  /// The data frame being received, parsed in place: its vectors keep
  /// their capacity from frame to frame.
  core::Transmission rx_;
};

}  // namespace sbr::net

#endif  // SBR_NET_BASE_STATION_H_
