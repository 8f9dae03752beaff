// The base station's per-sensor append-only log (paper Figure 1): every
// received transmission — base-signal updates and interval records alike —
// is appended as one length-prefixed, CRC32-protected binary record.
// Besides data transmissions the log records DataLoss gaps (chunks that
// never arrived), base-signal resync snapshots, and opaque state
// checkpoints (node or base-station protocol state for crash recovery), so
// reopening a log and replaying it through a fresh decoder reconstructs
// the full approximate history of the sensor, including which parts of it
// are missing.
#ifndef SBR_STORAGE_CHUNK_LOG_H_
#define SBR_STORAGE_CHUNK_LOG_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/transmission.h"
#include "util/status.h"

namespace sbr::storage {

/// What one log record holds.
enum class RecordType : uint8_t {
  kTransmission = 0,  ///< one data chunk (serialized Transmission)
  kGap = 1,           ///< N chunks lost for good (payload: u32 count)
  kSnapshot = 2,      ///< base-signal resync (serialized BaseSnapshot)
  kCheckpoint = 3,    ///< opaque recovery state blob (owner-defined format)
};

/// Append-only transmission log. With an empty path the log is purely
/// in-memory; with a path every Append is also written through to disk and
/// Open() recovers all records on restart. Every record is CRC-checked on
/// reload, and recovery never surfaces corruption as data:
///
///  * A torn final record (partial write at crash / power loss) is dropped
///    and the file is truncated back to the last complete record
///    (`dropped_records()`), so later appends stay readable.
///  * A corrupt record in the *middle* of the log is replaced by a
///    one-chunk DataLoss gap marker when its type byte reads as a
///    transmission (any other type is skipped without emitting a slot —
///    snapshots and checkpoints never occupied a chunk of the timeline),
///    and — because later transmissions may depend on base-signal updates
///    the corrupt record carried — every subsequent transmission record is
///    also converted to a gap until the next valid base-signal snapshot
///    re-anchors the stream. Gap and checkpoint records are self-contained
///    and pass through unconverted. `quarantined_records()` counts the
///    conversions; the complete-but-corrupt on-disk bytes are left
///    untouched, so reopening replays the identical recovery.
///
/// A durable log holds one O_APPEND file descriptor for its lifetime and
/// writes each record with one write(2); the destructor closes it. The
/// cost is one open descriptor per durable log — a base station keeps one
/// per sensor, so a station serving more sensors than the process's
/// RLIMIT_NOFILE (commonly 1024) must raise that limit. With O_APPEND a
/// record always lands at the file's current end, even after another
/// handle truncated the file (as a recovering Open does). The log is
/// move-only, because the descriptor has exactly one owner.
class ChunkLog {
 public:
  /// In-memory log.
  ChunkLog() = default;
  ~ChunkLog();
  ChunkLog(ChunkLog&& other) noexcept;
  ChunkLog& operator=(ChunkLog&& other) noexcept;
  ChunkLog(const ChunkLog&) = delete;
  ChunkLog& operator=(const ChunkLog&) = delete;

  /// Opens (or creates) a durable log at `path` and loads existing records.
  /// A file that exists but cannot be opened for writing is still loaded;
  /// appends to it then fail with NotFound.
  static StatusOr<ChunkLog> Open(const std::string& path);

  /// Record framing ahead of each payload on disk: len u32 | type u8 |
  /// crc u32 (the CRC covers the type byte and the payload).
  static constexpr size_t kFramingBytes = 4 + 1 + 4;

  /// Appends one transmission, serializing it.
  Status Append(const core::Transmission& t);

  /// Appends one serialized transmission exactly as given (a data frame's
  /// payload as received); the caller vouches that it parses, else the
  /// record is quarantined on reload.
  Status AppendSerialized(std::span<const uint8_t> transmission);

  /// Records that `chunks` data chunks were lost for good (DataLoss gap).
  Status AppendGap(uint32_t chunks);

  /// Records a base-signal resync snapshot.
  Status AppendSnapshot(const core::BaseSnapshot& snapshot);

  /// Records an opaque recovery checkpoint (the log does not interpret the
  /// payload; CRC framing still detects corruption on reload).
  Status AppendCheckpoint(const std::vector<uint8_t>& blob);

  /// Number of records (all types).
  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  RecordType record_type(size_t index) const { return records_[index].type; }

  /// Decodes record `index` (0-based, append order) as a transmission;
  /// InvalidArgument if the record is a gap, snapshot or checkpoint.
  StatusOr<core::Transmission> Read(size_t index) const;

  /// Decodes a kGap record's lost-chunk count.
  StatusOr<uint32_t> ReadGap(size_t index) const;

  /// Decodes a kSnapshot record.
  StatusOr<core::BaseSnapshot> ReadSnapshot(size_t index) const;

  /// Returns a kCheckpoint record's opaque payload.
  StatusOr<std::vector<uint8_t>> ReadCheckpoint(size_t index) const;

  /// Index of the last kCheckpoint record, or npos if none survived.
  static constexpr size_t kNoCheckpoint = static_cast<size_t>(-1);
  size_t LastCheckpointIndex() const;

  /// Records dropped entirely at Open: the torn tail (truncated mid-write)
  /// plus anything whose framing was unreadable.
  size_t dropped_records() const { return dropped_records_; }

  /// Mid-log records converted to DataLoss gap markers at Open: the
  /// CRC-corrupt record itself plus lineage-broken transmissions up to the
  /// next valid snapshot.
  size_t quarantined_records() const { return quarantined_records_; }

  /// True when recovery ended inside a quarantine run: a corrupt record was
  /// seen and no valid snapshot followed it, so the log's tail cannot carry
  /// further transmissions until a resync snapshot re-anchors the stream.
  bool recovered_lineage_broken() const { return recovered_lineage_broken_; }

  /// Byte span a record occupies on disk, framing included. Offsets are
  /// absolute file positions; for quarantined records the span covers the
  /// original (corrupt) bytes. Meaningful only for durable logs.
  struct DiskSpan {
    size_t offset = 0;
    size_t length = 0;
  };
  DiskSpan RecordDiskSpan(size_t index) const {
    return DiskSpan{records_[index].disk_offset, records_[index].disk_len};
  }

  /// End-of-log file offset (where the next record's framing will land).
  size_t DiskEnd() const { return disk_end_; }

  /// Total bytes across all serialized records (excluding framing).
  size_t TotalBytes() const;

  const std::string& path() const { return path_; }

 private:
  struct Record {
    RecordType type;
    /// The record as framed on disk (framing, then payload); a
    /// quarantined record holds its replacement gap marker instead.
    std::vector<uint8_t> framed;
    size_t disk_offset = 0;
    size_t disk_len = 0;

    std::span<const uint8_t> payload() const {
      return std::span(framed).subspan(kFramingBytes);
    }
  };

  /// Points `out` at record `index`'s payload; OutOfRange past the end,
  /// InvalidArgument ("record i is not <noun>") if it is not a `type`.
  Status Payload(size_t index, RecordType type, const char* noun,
                 std::span<const uint8_t>* out) const;
  /// Frames `payload` in one pre-sized buffer, writes it through (durable
  /// log) and keeps it.
  Status AppendRecord(RecordType type, std::span<const uint8_t> payload);
  /// Writes all of `bytes` at the file's end (retrying short writes).
  Status WriteAll(std::span<const uint8_t> bytes);

  std::string path_;
  /// The durable log's descriptor; -1 for an in-memory log.
  int fd_ = -1;
  /// False when the file could only be opened for reading.
  bool writable_ = false;
  std::vector<Record> records_;
  size_t dropped_records_ = 0;
  size_t quarantined_records_ = 0;
  bool recovered_lineage_broken_ = false;
  size_t disk_end_ = 0;
};

/// Replays every timeline record of `log`, in order, into `history` (any
/// type with Ingest / MarkGap / ApplySnapshot): transmissions, gap markers
/// and snapshots; checkpoints carry recovery state for the log's owner,
/// not history, and are skipped. The first error stops the replay.
template <typename History>
Status ReplayInto(const ChunkLog& log, History* history) {
  for (size_t i = 0; i < log.size(); ++i) {
    switch (log.record_type(i)) {
      case RecordType::kTransmission: {
        auto t = log.Read(i);
        if (!t.ok()) return t.status();
        SBR_RETURN_IF_ERROR(history->Ingest(*t));
        break;
      }
      case RecordType::kGap: {
        auto chunks = log.ReadGap(i);
        if (!chunks.ok()) return chunks.status();
        history->MarkGap(*chunks);
        break;
      }
      case RecordType::kSnapshot: {
        auto snap = log.ReadSnapshot(i);
        if (!snap.ok()) return snap.status();
        SBR_RETURN_IF_ERROR(history->ApplySnapshot(*snap));
        break;
      }
      case RecordType::kCheckpoint:
        break;
    }
  }
  return Status::Ok();
}

}  // namespace sbr::storage

#endif  // SBR_STORAGE_CHUNK_LOG_H_
