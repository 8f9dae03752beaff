#include "storage/chunk_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <utility>

#include "util/crc32.h"

namespace sbr::storage {
namespace {

// Log preamble: identifies the format and its version. Version 2 added the
// per-record type byte and CRC32.
constexpr uint32_t kMagic = 0x5342524c;  // "SBRL"
constexpr uint32_t kVersion = 2;

// Validates that a record's payload parses as exactly one value of its
// declared type, by the rule the station applies to a frame's payload (no
// byte left unread); a transmission parses into `scratch`, reused from
// record to record.
bool PayloadParses(RecordType type, std::span<const uint8_t> payload,
                   core::Transmission* scratch) {
  switch (type) {
    case RecordType::kTransmission:
      return core::Transmission::ParsePayload(payload, scratch).ok();
    case RecordType::kGap:
      return payload.size() == 4;
    case RecordType::kSnapshot:
      return core::BaseSnapshot::ParsePayload(payload).ok();
    case RecordType::kCheckpoint:
      return true;  // opaque owner-defined blob; CRC is the only guard
  }
  return false;
}

// Payload of the gap marker a quarantined transmission stands for: a
// one-chunk count, u32 little-endian.
constexpr uint8_t kOneChunkGap[] = {1, 0, 0, 0};

// The preamble as it lies on disk (magic, version; u32 little-endian).
constexpr size_t kPreambleBytes = 8;
std::array<uint8_t, kPreambleBytes> Preamble() {
  std::array<uint8_t, kPreambleBytes> out{};
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<uint8_t>(kMagic >> (8 * i));
    out[4 + i] = static_cast<uint8_t>(kVersion >> (8 * i));
  }
  return out;
}

// A record's CRC32 covers its type byte, then its payload.
uint32_t RecordCrc(uint8_t type, std::span<const uint8_t> payload) {
  return Crc32Finalize(
      Crc32Update(Crc32Update(kCrc32Init, std::span(&type, 1)), payload));
}

// The framing ahead of a record's payload: len u32 | type u8 | crc u32.
std::array<uint8_t, ChunkLog::kFramingBytes> Framing(
    RecordType type, std::span<const uint8_t> payload) {
  std::array<uint8_t, ChunkLog::kFramingBytes> out{};
  const auto len = static_cast<uint32_t>(payload.size());
  const auto type_byte = static_cast<uint8_t>(type);
  const uint32_t crc = RecordCrc(type_byte, payload);
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<uint8_t>(len >> (8 * i));
    out[5 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  out[4] = type_byte;
  return out;
}

}  // namespace

ChunkLog::~ChunkLog() {
  if (fd_ >= 0) ::close(fd_);
}

ChunkLog::ChunkLog(ChunkLog&& other) noexcept { *this = std::move(other); }

ChunkLog& ChunkLog::operator=(ChunkLog&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::exchange(other.path_, std::string());
    fd_ = std::exchange(other.fd_, -1);
    writable_ = std::exchange(other.writable_, false);
    preamble_pending_ = std::exchange(other.preamble_pending_, false);
    records_ = std::move(other.records_);
    memory_ = std::move(other.memory_);
    total_bytes_ = other.total_bytes_;
    dropped_records_ = other.dropped_records_;
    quarantined_records_ = other.quarantined_records_;
    recovered_lineage_broken_ = other.recovered_lineage_broken_;
    disk_end_ = other.disk_end_;
  }
  return *this;
}

Status ChunkLog::WriteAll(std::span<const uint8_t> head,
                          std::span<const uint8_t> body) {
  iovec parts[2] = {
      {const_cast<uint8_t*>(head.data()), head.size()},
      {const_cast<uint8_t*>(body.data()), body.size()}};
  iovec* next = parts;
  int count = 2;
  while (count > 0) {
    const ssize_t n = ::writev(fd_, next, count);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::DataLoss("write failed: " + path_);
    // Step past what was written; a short write resumes mid-part.
    auto left = static_cast<size_t>(n);
    while (count > 0 && left >= next->iov_len) {
      left -= next->iov_len;
      ++next;
      --count;
    }
    if (count > 0) {
      next->iov_base = static_cast<uint8_t*>(next->iov_base) + left;
      next->iov_len -= left;
    }
  }
  return Status::Ok();
}

Status ChunkLog::ReadAt(size_t offset, size_t length,
                        std::vector<uint8_t>* out) const {
  out->resize(length);
  for (size_t got = 0; got < length;) {
    const ssize_t n = ::pread(fd_, out->data() + got, length - got,
                              static_cast<off_t>(offset + got));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return Status::DataLoss("cannot read log: " + path_);
    if (n == 0) {
      out->resize(got);  // the file ends here
      break;
    }
    got += static_cast<size_t>(n);
  }
  return Status::Ok();
}

StatusOr<ChunkLog> ChunkLog::Open(const std::string& path) {
  return OpenFile(path, /*read_only=*/false);
}

StatusOr<ChunkLog> ChunkLog::OpenReadOnly(const std::string& path) {
  return OpenFile(path, /*read_only=*/true);
}

StatusOr<ChunkLog> ChunkLog::OpenFile(const std::string& path,
                                      bool read_only) {
  ChunkLog log;
  log.path_ = path;
  const auto preamble = Preamble();

  if (!read_only) {
    log.fd_ = ::open(path.c_str(), O_RDWR | O_APPEND | O_CLOEXEC);
  }
  log.writable_ = log.fd_ >= 0;
  if (!read_only && log.fd_ < 0 && errno == ENOENT) {
    // Fresh log: create it and write the preamble.
    log.fd_ = ::open(path.c_str(), O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC,
                     0644);
    if (log.fd_ < 0) return Status::NotFound("cannot create log: " + path);
    log.writable_ = true;
    if (!log.WriteAll(preamble, {}).ok()) {
      return Status::DataLoss("cannot write log header: " + path);
    }
    log.disk_end_ = preamble.size();
    return log;
  }
  if (log.fd_ < 0) log.fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (log.fd_ < 0) return Status::NotFound("cannot open log: " + path);

  // One sized read of the whole file; nothing of it is kept.
  struct stat st {};
  if (::fstat(log.fd_, &st) != 0) {
    return Status::DataLoss("cannot stat log: " + path);
  }
  std::vector<uint8_t> bytes;
  SBR_RETURN_IF_ERROR(
      log.ReadAt(0, static_cast<size_t>(st.st_size), &bytes));
  if (bytes.size() < preamble.size() &&
      std::equal(bytes.begin(), bytes.end(), preamble.begin())) {
    // A crash between creating the file and completing its preamble:
    // nothing was ever logged, so this is an empty log. The file is left
    // as it is until the first append starts it over.
    log.preamble_pending_ = true;
    log.disk_end_ = preamble.size();
    return log;
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
  // but fails its CRC or does not parse is quarantined in place: it reads
  // as a one-chunk gap if its type byte reads as a transmission (other
  // types never occupied a chunk of the timeline, so emitting a slot for
  // them could fabricate history, and they are not indexed), and because
  // later transmissions may depend on base-signal updates the corrupt
  // record carried, subsequent transmissions are also quarantined as gaps
  // until a valid snapshot re-anchors the stream.
  auto quarantine = [&log](size_t offset, size_t length) {
    log.records_.push_back(Record{offset, static_cast<uint32_t>(length),
                                  RecordType::kGap, true});
    log.total_bytes_ += sizeof(kOneChunkGap);
  };
  bool lineage_broken = false;
  size_t valid_end = reader.position();
  core::Transmission scratch;
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
        PayloadParses(static_cast<RecordType>(type), payload, &scratch);
    if (!intact) {
      ++log.quarantined_records_;
      lineage_broken = true;
      if (type == static_cast<uint8_t>(RecordType::kTransmission)) {
        quarantine(record_offset, framed_len);
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
      quarantine(record_offset, framed_len);
      continue;
    }
    if (record_type == RecordType::kSnapshot) lineage_broken = false;
    log.records_.push_back(Record{
        record_offset, static_cast<uint32_t>(framed_len), record_type, false});
    log.total_bytes_ += payload.size();
  }
  log.recovered_lineage_broken_ = lineage_broken;
  log.disk_end_ = valid_end;
  if (!read_only && log.dropped_records_ > 0 && valid_end < bytes.size() &&
      ::ftruncate(log.fd_, static_cast<off_t>(valid_end)) != 0) {
    return Status::DataLoss("cannot truncate torn tail: " + path);
  }
  return log;
}

Status ChunkLog::AppendRecord(RecordType type,
                              std::span<const uint8_t> payload) {
  const auto framing = Framing(type, payload);
  const size_t framed_len = framing.size() + payload.size();
  if (!path_.empty()) {
    if (!writable_) return Status::NotFound("cannot append to log: " + path_);
    if (preamble_pending_) {
      if (::ftruncate(fd_, 0) != 0 || !WriteAll(Preamble(), {}).ok()) {
        return Status::DataLoss("cannot write log header: " + path_);
      }
      preamble_pending_ = false;
    }
    SBR_RETURN_IF_ERROR(WriteAll(framing, payload));
  } else {
    auto framed = std::make_unique_for_overwrite<uint8_t[]>(framed_len);
    std::copy(framing.begin(), framing.end(), framed.get());
    std::copy(payload.begin(), payload.end(), framed.get() + framing.size());
    memory_.push_back(std::move(framed));
  }
  records_.push_back(
      Record{disk_end_, static_cast<uint32_t>(framed_len), type, false});
  disk_end_ += framed_len;
  total_bytes_ += payload.size();
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
  uint8_t payload[4];
  for (int i = 0; i < 4; ++i) {
    payload[i] = static_cast<uint8_t>(chunks >> (8 * i));
  }
  return AppendRecord(RecordType::kGap, payload);
}

Status ChunkLog::AppendSnapshot(const core::BaseSnapshot& snapshot) {
  BinaryWriter writer;
  snapshot.Serialize(&writer);
  return AppendRecord(RecordType::kSnapshot, writer.buffer());
}

Status ChunkLog::AppendCheckpoint(const std::vector<uint8_t>& blob) {
  return AppendRecord(RecordType::kCheckpoint, blob);
}

Status ChunkLog::CheckedPayload(size_t index,
                               std::span<const uint8_t> framed,
                               std::span<const uint8_t>* out) const {
  const Record& r = records_[index];
  if (r.quarantined) {
    *out = kOneChunkGap;
    return Status::Ok();
  }
  auto lost = [&](const char* what) {
    return Status::DataLoss("record " + std::to_string(index) + " of " +
                            path_ + " " + what);
  };
  if (framed.size() < r.length) return lost("is truncated");
  // The bytes were checked at Open (or written by this log); check them
  // again, since the file may have changed under the handle since.
  const std::span<const uint8_t> payload = framed.subspan(kFramingBytes);
  const auto type = static_cast<uint8_t>(r.type);
  if (LoadLe32(framed.data()) != payload.size() || framed[4] != type ||
      LoadLe32(framed.data() + 5) != RecordCrc(type, payload)) {
    return lost("changed on disk: framing or CRC mismatch");
  }
  *out = payload;
  return Status::Ok();
}

Status ChunkLog::ForEach(size_t first, const RecordFn& fn) const {
  std::vector<uint8_t> bytes;
  size_t base = 0;  // file offset of bytes[0]
  if (fd_ >= 0 && first < records_.size()) {
    base = records_[first].offset;
    SBR_RETURN_IF_ERROR(ReadAt(base, disk_end_ - base, &bytes));
  }
  for (size_t i = first; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::span<const uint8_t> framed;
    if (fd_ < 0) {
      framed = std::span<const uint8_t>(memory_[i].get(), r.length);
    } else if (!r.quarantined) {
      // Fewer bytes than the index spans (the file shrank) leave the
      // record short, and CheckedPayload names it.
      const size_t at = std::min<size_t>(r.offset - base, bytes.size());
      framed = std::span(bytes).subspan(
          at, std::min<size_t>(r.length, bytes.size() - at));
    }
    std::span<const uint8_t> payload;
    SBR_RETURN_IF_ERROR(CheckedPayload(i, framed, &payload));
    SBR_RETURN_IF_ERROR(fn(i, r.type, payload));
  }
  return Status::Ok();
}

Status ChunkLog::Payload(size_t index, RecordType type, const char* noun,
                         std::vector<uint8_t>* scratch,
                         std::span<const uint8_t>* out) const {
  if (index >= records_.size()) {
    return Status::OutOfRange("record " + std::to_string(index) + " of " +
                              std::to_string(records_.size()));
  }
  const Record& r = records_[index];
  if (r.type != type) {
    return Status::InvalidArgument("record " + std::to_string(index) +
                                   " is not " + noun);
  }
  std::span<const uint8_t> framed;
  if (fd_ < 0) {
    framed = std::span<const uint8_t>(memory_[index].get(), r.length);
  } else if (!r.quarantined) {
    SBR_RETURN_IF_ERROR(ReadAt(r.offset, r.length, scratch));
    framed = *scratch;
  }
  return CheckedPayload(index, framed, out);
}

StatusOr<core::Transmission> ChunkLog::Read(size_t index) const {
  std::vector<uint8_t> scratch;
  std::span<const uint8_t> payload;
  SBR_RETURN_IF_ERROR(Payload(index, RecordType::kTransmission,
                              "a transmission", &scratch, &payload));
  core::Transmission t;
  SBR_RETURN_IF_ERROR(core::Transmission::ParsePayload(payload, &t));
  return t;
}

StatusOr<uint32_t> ChunkLog::ReadGap(size_t index) const {
  std::vector<uint8_t> scratch;
  std::span<const uint8_t> payload;
  SBR_RETURN_IF_ERROR(
      Payload(index, RecordType::kGap, "a gap marker", &scratch, &payload));
  BinaryReader reader(payload);
  uint32_t chunks;
  SBR_RETURN_IF_ERROR(reader.GetU32(&chunks));
  return chunks;
}

StatusOr<core::BaseSnapshot> ChunkLog::ReadSnapshot(size_t index) const {
  std::vector<uint8_t> scratch;
  std::span<const uint8_t> payload;
  SBR_RETURN_IF_ERROR(
      Payload(index, RecordType::kSnapshot, "a snapshot", &scratch, &payload));
  return core::BaseSnapshot::ParsePayload(payload);
}

StatusOr<std::vector<uint8_t>> ChunkLog::ReadCheckpoint(size_t index) const {
  std::vector<uint8_t> scratch;
  std::span<const uint8_t> payload;
  SBR_RETURN_IF_ERROR(Payload(index, RecordType::kCheckpoint, "a checkpoint",
                              &scratch, &payload));
  return std::vector<uint8_t>(payload.begin(), payload.end());
}

size_t ChunkLog::LastCheckpointIndex() const {
  for (size_t i = records_.size(); i-- > 0;) {
    if (records_[i].type == RecordType::kCheckpoint) return i;
  }
  return kNoCheckpoint;
}

}  // namespace sbr::storage
