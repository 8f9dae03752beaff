#include "storage/chunk_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "util/crc32.h"

namespace sbr::storage {
namespace {

// Log preamble: identifies the format and its version. Version 2 added the
// per-record type byte and CRC32.
constexpr uint32_t kMagic = 0x5342524c;  // "SBRL"
constexpr uint32_t kVersion = 2;

// Validates that a record's payload parses as its declared type.
bool PayloadParses(RecordType type, std::span<const uint8_t> payload) {
  BinaryReader check(payload);
  switch (type) {
    case RecordType::kTransmission:
      return core::Transmission::Deserialize(&check).ok();
    case RecordType::kGap: {
      uint32_t chunks;
      return check.GetU32(&chunks).ok() && check.AtEnd();
    }
    case RecordType::kSnapshot:
      return core::BaseSnapshot::Deserialize(&check).ok();
    case RecordType::kCheckpoint:
      return true;  // opaque owner-defined blob; CRC is the only guard
  }
  return false;
}

// Payload of the gap marker a quarantined transmission is replaced with:
// a one-chunk count, u32 little-endian.
constexpr uint8_t kOneChunkGap[] = {1, 0, 0, 0};

// A record's CRC32 covers its type byte, then its payload.
uint32_t RecordCrc(uint8_t type, std::span<const uint8_t> payload) {
  return Crc32Finalize(
      Crc32Update(Crc32Update(kCrc32Init, std::span(&type, 1)), payload));
}

// One record as it lies on disk — len u32 | type u8 | crc u32 | payload —
// in one pre-sized buffer.
std::vector<uint8_t> FramedRecord(RecordType type,
                                  std::span<const uint8_t> payload) {
  std::vector<uint8_t> out(ChunkLog::kFramingBytes + payload.size());
  const auto len = static_cast<uint32_t>(payload.size());
  const auto type_byte = static_cast<uint8_t>(type);
  const uint32_t crc = RecordCrc(type_byte, payload);
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<uint8_t>(len >> (8 * i));
    out[5 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  out[4] = type_byte;
  std::copy(payload.begin(), payload.end(),
            out.begin() + ChunkLog::kFramingBytes);
  return out;
}

}  // namespace

ChunkLog::~ChunkLog() {
  if (fd_ >= 0) ::close(fd_);
}

ChunkLog::ChunkLog(ChunkLog&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(std::exchange(other.fd_, -1)),
      writable_(std::exchange(other.writable_, false)),
      records_(std::move(other.records_)),
      dropped_records_(other.dropped_records_),
      quarantined_records_(other.quarantined_records_),
      recovered_lineage_broken_(other.recovered_lineage_broken_),
      disk_end_(other.disk_end_) {
  other.path_.clear();
}

ChunkLog& ChunkLog::operator=(ChunkLog&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(other.path_);
    other.path_.clear();
    fd_ = std::exchange(other.fd_, -1);
    writable_ = std::exchange(other.writable_, false);
    records_ = std::move(other.records_);
    dropped_records_ = other.dropped_records_;
    quarantined_records_ = other.quarantined_records_;
    recovered_lineage_broken_ = other.recovered_lineage_broken_;
    disk_end_ = other.disk_end_;
  }
  return *this;
}

Status ChunkLog::WriteAll(std::span<const uint8_t> bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd_, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::DataLoss("write failed: " + path_);
    bytes = bytes.subspan(static_cast<size_t>(n));
  }
  return Status::Ok();
}

StatusOr<ChunkLog> ChunkLog::Open(const std::string& path) {
  ChunkLog log;
  log.path_ = path;

  log.fd_ = ::open(path.c_str(), O_RDWR | O_APPEND | O_CLOEXEC);
  log.writable_ = log.fd_ >= 0;
  if (log.fd_ < 0 && errno == ENOENT) {
    // Fresh log: create it and write the preamble.
    log.fd_ = ::open(path.c_str(), O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC,
                     0644);
    if (log.fd_ < 0) return Status::NotFound("cannot create log: " + path);
    log.writable_ = true;
    BinaryWriter header;
    header.PutU32(kMagic);
    header.PutU32(kVersion);
    if (!log.WriteAll(header.buffer()).ok()) {
      return Status::DataLoss("cannot write log header: " + path);
    }
    log.disk_end_ = header.size();
    return log;
  }
  if (log.fd_ < 0) log.fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (log.fd_ < 0) return Status::NotFound("cannot open log: " + path);

  // One sized read of the whole file.
  struct stat st {};
  if (::fstat(log.fd_, &st) != 0) {
    return Status::DataLoss("cannot stat log: " + path);
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(st.st_size));
  for (size_t got = 0; got < bytes.size();) {
    const ssize_t n = ::pread(log.fd_, bytes.data() + got,
                              bytes.size() - got, static_cast<off_t>(got));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return Status::DataLoss("cannot read log: " + path);
    if (n == 0) {
      bytes.resize(got);  // the file shrank under us; parse what was read
      break;
    }
    got += static_cast<size_t>(n);
  }
  BinaryReader reader(bytes);
  uint32_t magic = 0, version = 0;
  SBR_RETURN_IF_ERROR(reader.GetU32(&magic));
  SBR_RETURN_IF_ERROR(reader.GetU32(&version));
  if (magic != kMagic) {
    return Status::DataLoss("bad log magic in " + path);
  }
  if (version != kVersion) {
    return Status::DataLoss("unsupported log version " +
                            std::to_string(version));
  }
  // Record framing: len u32 | type u8 | crc u32 | payload. A record whose
  // framing cannot even be read is a torn tail (crash mid-write): it and
  // anything after it are dropped and the file is truncated back so later
  // appends land on a clean boundary. A record that is *complete* on disk
  // but fails its CRC or does not parse is quarantined in place: replaced
  // by a one-chunk gap if its type byte reads as a transmission (other
  // types never occupied a chunk of the timeline, so emitting a slot for
  // them could fabricate history), and because later transmissions may
  // depend on base-signal updates the corrupt record carried, subsequent
  // transmissions are also converted to gaps until a valid snapshot
  // re-anchors the stream.
  bool lineage_broken = false;
  size_t valid_end = reader.position();
  while (!reader.AtEnd()) {
    const size_t record_offset = reader.position();
    uint32_t len = 0;
    uint8_t type = 0;
    uint32_t crc = 0;
    std::span<const uint8_t> payload;
    if (!reader.GetU32(&len).ok() || !reader.GetU8(&type).ok() ||
        !reader.GetU32(&crc).ok() || !reader.GetRaw(len, &payload).ok()) {
      ++log.dropped_records_;
      break;  // torn tail
    }
    const size_t framed_len = reader.position() - record_offset;
    valid_end = reader.position();
    const bool type_ok = type <= static_cast<uint8_t>(RecordType::kCheckpoint);
    const bool intact =
        crc == RecordCrc(type, payload) && type_ok &&
        PayloadParses(static_cast<RecordType>(type), payload);
    if (!intact) {
      ++log.quarantined_records_;
      lineage_broken = true;
      if (type == static_cast<uint8_t>(RecordType::kTransmission)) {
        log.records_.push_back(Record{
            RecordType::kGap, FramedRecord(RecordType::kGap, kOneChunkGap),
            record_offset, framed_len});
      }
      continue;
    }
    const auto record_type = static_cast<RecordType>(type);
    if (lineage_broken && record_type == RecordType::kTransmission) {
      // Valid on its own, but it may reference base slots whose updates
      // were lost with the corrupt record — surfacing it could decode to
      // garbage. One record == one chunk, so a one-chunk gap keeps the
      // timeline aligned.
      ++log.quarantined_records_;
      log.records_.push_back(Record{
          RecordType::kGap, FramedRecord(RecordType::kGap, kOneChunkGap),
          record_offset, framed_len});
      continue;
    }
    if (record_type == RecordType::kSnapshot) lineage_broken = false;
    log.records_.push_back(
        Record{record_type,
               std::vector<uint8_t>(bytes.begin() + record_offset,
                                    bytes.begin() + valid_end),
               record_offset, framed_len});
  }
  log.recovered_lineage_broken_ = lineage_broken;
  log.disk_end_ = valid_end;
  if (log.dropped_records_ > 0 && valid_end < bytes.size() &&
      ::ftruncate(log.fd_, static_cast<off_t>(valid_end)) != 0) {
    return Status::DataLoss("cannot truncate torn tail: " + path);
  }
  return log;
}

Status ChunkLog::AppendRecord(RecordType type,
                              std::span<const uint8_t> payload) {
  std::vector<uint8_t> framed = FramedRecord(type, payload);
  if (!path_.empty()) {
    if (!writable_) return Status::NotFound("cannot append to log: " + path_);
    SBR_RETURN_IF_ERROR(WriteAll(framed));
  }
  const size_t framed_len = framed.size();
  records_.push_back(Record{type, std::move(framed), disk_end_, framed_len});
  disk_end_ += framed_len;
  return Status::Ok();
}

Status ChunkLog::Append(const core::Transmission& t) {
  BinaryWriter writer;
  t.Serialize(&writer);
  return AppendRecord(RecordType::kTransmission, writer.buffer());
}

Status ChunkLog::AppendSerialized(std::span<const uint8_t> transmission) {
  return AppendRecord(RecordType::kTransmission, transmission);
}

Status ChunkLog::AppendGap(uint32_t chunks) {
  BinaryWriter writer;
  writer.PutU32(chunks);
  return AppendRecord(RecordType::kGap, writer.buffer());
}

Status ChunkLog::AppendSnapshot(const core::BaseSnapshot& snapshot) {
  BinaryWriter writer;
  snapshot.Serialize(&writer);
  return AppendRecord(RecordType::kSnapshot, writer.buffer());
}

Status ChunkLog::AppendCheckpoint(const std::vector<uint8_t>& blob) {
  return AppendRecord(RecordType::kCheckpoint, blob);
}

Status ChunkLog::Payload(size_t index, RecordType type, const char* noun,
                         std::span<const uint8_t>* out) const {
  if (index >= records_.size()) {
    return Status::OutOfRange("record " + std::to_string(index) + " of " +
                              std::to_string(records_.size()));
  }
  if (records_[index].type != type) {
    return Status::InvalidArgument("record " + std::to_string(index) +
                                   " is not " + noun);
  }
  *out = records_[index].payload();
  return Status::Ok();
}

StatusOr<core::Transmission> ChunkLog::Read(size_t index) const {
  std::span<const uint8_t> payload;
  SBR_RETURN_IF_ERROR(
      Payload(index, RecordType::kTransmission, "a transmission", &payload));
  BinaryReader reader(payload);
  return core::Transmission::Deserialize(&reader);
}

StatusOr<uint32_t> ChunkLog::ReadGap(size_t index) const {
  std::span<const uint8_t> payload;
  SBR_RETURN_IF_ERROR(
      Payload(index, RecordType::kGap, "a gap marker", &payload));
  BinaryReader reader(payload);
  uint32_t chunks;
  SBR_RETURN_IF_ERROR(reader.GetU32(&chunks));
  return chunks;
}

StatusOr<core::BaseSnapshot> ChunkLog::ReadSnapshot(size_t index) const {
  std::span<const uint8_t> payload;
  SBR_RETURN_IF_ERROR(
      Payload(index, RecordType::kSnapshot, "a snapshot", &payload));
  BinaryReader reader(payload);
  return core::BaseSnapshot::Deserialize(&reader);
}

StatusOr<std::vector<uint8_t>> ChunkLog::ReadCheckpoint(size_t index) const {
  std::span<const uint8_t> payload;
  SBR_RETURN_IF_ERROR(
      Payload(index, RecordType::kCheckpoint, "a checkpoint", &payload));
  return std::vector<uint8_t>(payload.begin(), payload.end());
}

size_t ChunkLog::LastCheckpointIndex() const {
  for (size_t i = records_.size(); i-- > 0;) {
    if (records_[i].type == RecordType::kCheckpoint) return i;
  }
  return kNoCheckpoint;
}

size_t ChunkLog::TotalBytes() const {
  size_t total = 0;
  for (const auto& r : records_) total += r.payload().size();
  return total;
}

}  // namespace sbr::storage
