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
#include <functional>
#include <memory>
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
///    (`dropped_records()`), so later appends stay readable (a read-only
///    open drops it from the index and leaves the file as it is).
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
/// What a log keeps in memory: a durable log keeps an index of
/// {offset, length, type} per record and no record bytes, since the bytes
/// are on disk; an in-memory log keeps each record's framed bytes too,
/// since it has no other copy. A quarantined record keeps a flag in place
/// of the bytes, and reads return the one-chunk gap it stands for. Every
/// read of a durable log's record fetches its bytes back from the file and
/// checks the framing and CRC again, so a record that changed on disk
/// after Open (a flipped byte, a truncated file) reads as DataLoss naming
/// the record, never as a parsed payload. A pass over many records (a
/// replay) reads them with one pread through ForEach().
///
/// A durable log holds one O_APPEND file descriptor for its lifetime and
/// writes each record, framing and payload, with one writev(2); the
/// destructor closes it. The cost is one open descriptor per durable log
/// — a base station keeps one per sensor, so a station serving more
/// sensors than the process's RLIMIT_NOFILE (commonly 1024) must raise
/// that limit. With O_APPEND a record always lands at the file's current
/// end, even after another handle truncated the file (as a recovering
/// Open does). The log is move-only, because the descriptor has exactly
/// one owner.
class ChunkLog {
 public:
  /// In-memory log.
  ChunkLog() = default;
  ~ChunkLog();
  ChunkLog(ChunkLog&& other) noexcept;
  ChunkLog& operator=(ChunkLog&& other) noexcept;
  ChunkLog(const ChunkLog&) = delete;
  ChunkLog& operator=(const ChunkLog&) = delete;

  /// Opens (or creates) a durable log at `path` and indexes its records,
  /// validating each one (CRC, parse) without keeping its bytes. A file
  /// that exists but cannot be opened for writing is still indexed;
  /// appends to it then fail with NotFound. A file shorter than the
  /// 8-byte preamble whose bytes are a prefix of it (a crash between
  /// creating the file and writing the preamble) opens as an empty log
  /// and is left as it is: the first append writes the whole preamble
  /// ahead of its record. Any other short file, or a bad magic, is
  /// DataLoss.
  static StatusOr<ChunkLog> Open(const std::string& path);

  /// Opens an existing durable log for reading only (an inspection tool):
  /// indexes it exactly as Open does, but never writes the file — a torn
  /// tail stays on disk, past DiskEnd() — and a missing path is NotFound,
  /// not a new log. Appends on the handle fail with NotFound.
  static StatusOr<ChunkLog> OpenReadOnly(const std::string& path);

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

  /// Calls `fn(index, type, payload)` for records [first, size()) in
  /// append order, for one pass over them (a replay). Each payload is
  /// checked again as a Read* checks it, and a quarantined record passes
  /// the one-chunk gap it stands for; a durable log reads all of the
  /// records with one pread. Stops at the first error: DataLoss naming a
  /// record whose bytes changed or went missing on disk, or the first
  /// error `fn` returns.
  using RecordFn = std::function<Status(
      size_t index, RecordType type, std::span<const uint8_t> payload)>;
  Status ForEach(size_t first, const RecordFn& fn) const;

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
  /// original (corrupt) bytes. An in-memory log counts them as if its
  /// records were laid out from offset 0, with no preamble.
  struct DiskSpan {
    size_t offset = 0;
    size_t length = 0;
  };
  DiskSpan RecordDiskSpan(size_t index) const {
    return DiskSpan{records_[index].offset, records_[index].length};
  }

  /// End-of-log file offset (where the next record's framing will land).
  size_t DiskEnd() const { return disk_end_; }

  /// Total bytes across all serialized records (excluding framing); a
  /// quarantined record counts as its 4-byte gap marker.
  size_t TotalBytes() const { return total_bytes_; }

  const std::string& path() const { return path_; }

 private:
  struct Record {
    uint64_t offset = 0;
    uint32_t length = 0;  ///< framing included
    RecordType type = RecordType::kTransmission;
    /// Corrupt or lineage-broken on disk: reads as a one-chunk gap.
    bool quarantined = false;
  };

  /// Open and OpenReadOnly.
  static StatusOr<ChunkLog> OpenFile(const std::string& path, bool read_only);
  /// Points `out` at record `index`'s CRC-checked payload, its bytes in
  /// `scratch` when they had to be read from the file. OutOfRange past the
  /// end, InvalidArgument ("record i is not <noun>") if it is not a
  /// `type`, DataLoss if its bytes changed or went missing on disk.
  Status Payload(size_t index, RecordType type, const char* noun,
                 std::vector<uint8_t>* scratch,
                 std::span<const uint8_t>* out) const;
  /// Points `out` at the payload of record `index` given its framed bytes
  /// (`framed`, fewer than the record's length if the file ended early),
  /// checking the framing and CRC again; the one-chunk gap for a
  /// quarantined record.
  Status CheckedPayload(size_t index, std::span<const uint8_t> framed,
                        std::span<const uint8_t>* out) const;
  /// Writes the framing header and `payload` through (durable log, one
  /// writev) or keeps one framed copy (in-memory log), and indexes it.
  Status AppendRecord(RecordType type, std::span<const uint8_t> payload);
  /// Writes all of `head` then `body` at the file's end (retrying short
  /// writes).
  Status WriteAll(std::span<const uint8_t> head,
                  std::span<const uint8_t> body);
  /// Reads up to `length` bytes at `offset` into `out`, stopping early
  /// only at the file's end.
  Status ReadAt(size_t offset, size_t length, std::vector<uint8_t>* out) const;

  std::string path_;
  /// The durable log's descriptor; -1 for an in-memory log.
  int fd_ = -1;
  /// False when the file could only be opened for reading.
  bool writable_ = false;
  /// Open found a torn preamble and left the file as it was: the first
  /// append starts the file over with a whole preamble.
  bool preamble_pending_ = false;
  std::vector<Record> records_;
  /// In-memory log only: each record's framed bytes.
  std::vector<std::unique_ptr<uint8_t[]>> memory_;
  size_t total_bytes_ = 0;
  size_t dropped_records_ = 0;
  size_t quarantined_records_ = 0;
  bool recovered_lineage_broken_ = false;
  size_t disk_end_ = 0;
};

/// Replays every timeline record of `log`, in order, into `history` (any
/// type with Ingest / MarkGap / ApplySnapshot): transmissions, gap markers
/// and snapshots; checkpoints carry recovery state for the log's owner,
/// not history, and are skipped. The records are read with one ForEach
/// (one pread of a durable log), each checked again as it is read. The
/// first error stops the replay.
template <typename History>
Status ReplayInto(const ChunkLog& log, History* history) {
  core::Transmission t;
  return log.ForEach(0, [&](size_t, RecordType type,
                            std::span<const uint8_t> payload) -> Status {
    switch (type) {
      case RecordType::kTransmission:
        SBR_RETURN_IF_ERROR(core::Transmission::ParsePayload(payload, &t));
        return history->Ingest(t);
      case RecordType::kGap: {
        BinaryReader reader(payload);
        uint32_t chunks = 0;
        SBR_RETURN_IF_ERROR(reader.GetU32(&chunks));
        history->MarkGap(chunks);
        return Status::Ok();
      }
      case RecordType::kSnapshot: {
        auto snap = core::BaseSnapshot::ParsePayload(payload);
        if (!snap.ok()) return snap.status();
        return history->ApplySnapshot(*snap);
      }
      case RecordType::kCheckpoint:
        return Status::Ok();
    }
    return Status::Ok();
  });
}

}  // namespace sbr::storage

#endif  // SBR_STORAGE_CHUNK_LOG_H_
