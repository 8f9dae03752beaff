#include "core/transmission.h"

#include <algorithm>
#include <array>
#include <bit>

#include "util/crc32.h"

namespace sbr::core {

size_t Transmission::ValueCount() const {
  size_t per_interval = base_kind == BaseKind::kNone ? 3 : 4;
  if (quadratic) ++per_interval;
  size_t total = intervals.size() * per_interval;
  for (const BaseUpdate& bu : base_updates) {
    total += bu.values.size() + 1;
  }
  return total;
}

size_t Transmission::TotalSamples() const {
  if (signal_lengths.empty()) {
    return static_cast<size_t>(num_signals) * chunk_len;
  }
  size_t total = 0;
  for (uint32_t len : signal_lengths) total += len;
  return total;
}

namespace {

void PutValue(BinaryWriter* writer, WirePrecision precision, double v) {
  if (precision == WirePrecision::kFloat32) {
    writer->PutF32(v);
  } else {
    writer->PutDouble(v);
  }
}

Status GetValue(BinaryReader* reader, WirePrecision precision, double* v) {
  return precision == WirePrecision::kFloat32 ? reader->GetF32(v)
                                              : reader->GetDouble(v);
}

size_t ValueBytes(WirePrecision precision) {
  return precision == WirePrecision::kFloat32 ? 4 : 8;
}

// Decodes one value at `p`, whose bytes the caller bounds-checked.
double LoadValue(const uint8_t* p, WirePrecision precision) {
  return precision == WirePrecision::kFloat32
             ? static_cast<double>(std::bit_cast<float>(LoadLe32(p)))
             : std::bit_cast<double>(LoadLe64(p));
}

// The arrays below are read with one bounds check for the elements that
// fit, then a decode loop with no per-element Status. When the input ends
// inside an array, the element that does not fit is read with the checked
// getters, so the error names the same field, offset and remaining bytes,
// and leaves the same partial parse, as an element-by-element read.

// Reads a base update's `out.size()` values.
Status GetValues(BinaryReader* reader, WirePrecision precision,
                 std::span<double> out) {
  const size_t width = ValueBytes(precision);
  const size_t fit = std::min(out.size(), reader->remaining() / width);
  std::span<const uint8_t> bytes;
  SBR_RETURN_IF_ERROR(reader->GetRaw(fit * width, &bytes));
  for (size_t i = 0; i < fit; ++i) {
    out[i] = LoadValue(bytes.data() + i * width, precision);
  }
  if (fit == out.size()) return Status::Ok();
  return GetValue(reader, precision, &out[fit]);
}

// Reads `out.size()` interval records: start u32 | shift u32 | a | b
// (| c when quadratic).
Status GetIntervals(BinaryReader* reader, WirePrecision precision,
                    bool quadratic, std::span<IntervalRecord> out) {
  const size_t width = ValueBytes(precision);
  const size_t record = 8 + (quadratic ? 3 : 2) * width;
  const size_t fit = std::min(out.size(), reader->remaining() / record);
  std::span<const uint8_t> bytes;
  SBR_RETURN_IF_ERROR(reader->GetRaw(fit * record, &bytes));
  const uint8_t* p = bytes.data();
  for (size_t i = 0; i < fit; ++i, p += record) {
    IntervalRecord& iv = out[i];
    iv.start = LoadLe32(p);
    iv.shift = static_cast<int32_t>(LoadLe32(p + 4));
    iv.a = LoadValue(p + 8, precision);
    iv.b = LoadValue(p + 8 + width, precision);
    iv.c = quadratic ? LoadValue(p + 8 + 2 * width, precision) : 0.0;
  }
  if (fit == out.size()) return Status::Ok();
  IntervalRecord& iv = out[fit];
  SBR_RETURN_IF_ERROR(reader->GetU32(&iv.start));
  uint32_t shift;
  SBR_RETURN_IF_ERROR(reader->GetU32(&shift));
  iv.shift = static_cast<int32_t>(shift);
  SBR_RETURN_IF_ERROR(GetValue(reader, precision, &iv.a));
  SBR_RETURN_IF_ERROR(GetValue(reader, precision, &iv.b));
  // Only a quadratic record can end past b; its c is what does not fit.
  iv.c = 0.0;
  return GetValue(reader, precision, &iv.c);
}

}  // namespace

void Transmission::Serialize(BinaryWriter* writer) const {
  writer->PutU32(num_signals);
  writer->PutU32(chunk_len);
  writer->PutU32(static_cast<uint32_t>(signal_lengths.size()));
  for (uint32_t len : signal_lengths) writer->PutU32(len);
  writer->PutU32(w);
  writer->PutU8(static_cast<uint8_t>(base_kind));
  writer->PutU8(quadratic ? 1 : 0);
  writer->PutU8(static_cast<uint8_t>(precision));
  writer->PutU32(static_cast<uint32_t>(base_updates.size()));
  for (const BaseUpdate& bu : base_updates) {
    writer->PutU32(bu.slot);
    writer->PutU32(static_cast<uint32_t>(bu.values.size()));
    for (double v : bu.values) PutValue(writer, precision, v);
  }
  writer->PutU32(static_cast<uint32_t>(intervals.size()));
  for (const IntervalRecord& iv : intervals) {
    writer->PutU32(iv.start);
    writer->PutU32(static_cast<uint32_t>(iv.shift));
    PutValue(writer, precision, iv.a);
    PutValue(writer, precision, iv.b);
    if (quadratic) PutValue(writer, precision, iv.c);
  }
}

StatusOr<Transmission> Transmission::Deserialize(BinaryReader* reader) {
  Transmission t;
  SBR_RETURN_IF_ERROR(DeserializeInto(reader, &t));
  return t;
}

Status Transmission::DeserializeInto(BinaryReader* reader, Transmission* out) {
  Transmission& t = *out;
  SBR_RETURN_IF_ERROR(reader->GetU32(&t.num_signals));
  SBR_RETURN_IF_ERROR(reader->GetU32(&t.chunk_len));
  uint32_t num_lengths;
  SBR_RETURN_IF_ERROR(reader->GetU32(&num_lengths));
  if (num_lengths != 0 && num_lengths != t.num_signals) {
    return Status::DataLoss("signal_lengths count mismatch");
  }
  // Guard allocations against corrupted counts: every entry needs at
  // least 4 more bytes of input.
  if (static_cast<size_t>(num_lengths) * 4 > reader->remaining()) {
    return Status::DataLoss("signal_lengths count exceeds input");
  }
  t.signal_lengths.resize(num_lengths);
  std::span<const uint8_t> lengths;
  SBR_RETURN_IF_ERROR(reader->GetRaw(static_cast<size_t>(num_lengths) * 4,
                                     &lengths));
  for (uint32_t i = 0; i < num_lengths; ++i) {
    t.signal_lengths[i] = LoadLe32(lengths.data() + 4 * i);
  }
  SBR_RETURN_IF_ERROR(reader->GetU32(&t.w));
  uint8_t kind;
  SBR_RETURN_IF_ERROR(reader->GetU8(&kind));
  if (kind > static_cast<uint8_t>(BaseKind::kNone)) {
    return Status::DataLoss("invalid base kind " + std::to_string(kind));
  }
  t.base_kind = static_cast<BaseKind>(kind);
  uint8_t quad;
  SBR_RETURN_IF_ERROR(reader->GetU8(&quad));
  if (quad > 1) {
    return Status::DataLoss("invalid quadratic flag " + std::to_string(quad));
  }
  t.quadratic = quad == 1;
  uint8_t precision;
  SBR_RETURN_IF_ERROR(reader->GetU8(&precision));
  if (precision > static_cast<uint8_t>(WirePrecision::kFloat32)) {
    return Status::DataLoss("invalid wire precision " +
                            std::to_string(precision));
  }
  t.precision = static_cast<WirePrecision>(precision);

  uint32_t num_updates;
  SBR_RETURN_IF_ERROR(reader->GetU32(&num_updates));
  // Each update carries at least a slot id and a length prefix (8 bytes).
  if (static_cast<size_t>(num_updates) * 8 > reader->remaining()) {
    return Status::DataLoss("base update count exceeds input");
  }
  t.base_updates.resize(num_updates);
  for (auto& bu : t.base_updates) {
    SBR_RETURN_IF_ERROR(reader->GetU32(&bu.slot));
    uint32_t len;
    SBR_RETURN_IF_ERROR(reader->GetU32(&len));
    if (static_cast<size_t>(len) * 4 > reader->remaining()) {
      return Status::DataLoss("base update length exceeds input");
    }
    bu.values.resize(len);
    SBR_RETURN_IF_ERROR(GetValues(reader, t.precision, bu.values));
  }

  uint32_t num_intervals;
  SBR_RETURN_IF_ERROR(reader->GetU32(&num_intervals));
  // Each interval record is at least 16 bytes on the wire (f32 mode).
  if (static_cast<size_t>(num_intervals) * 16 > reader->remaining()) {
    return Status::DataLoss("interval count exceeds input");
  }
  t.intervals.resize(num_intervals);
  return GetIntervals(reader, t.precision, t.quadratic, t.intervals);
}

Status Transmission::ParsePayload(std::span<const uint8_t> payload,
                                  Transmission* out) {
  BinaryReader reader(payload);
  SBR_RETURN_IF_ERROR(DeserializeInto(&reader, out));
  if (!reader.AtEnd()) {
    return Status::DataLoss("trailing bytes after transmission");
  }
  return Status::Ok();
}

// ----------------------------------------------------------------- framing

namespace {

constexpr uint32_t kFrameMagic = 0x53425246;  // "SBRF"

// The CRC-covered header fields (everything between the magic and the
// checksum) as little-endian bytes on the stack, so writer and reader
// checksum identical bytes without building a heap buffer.
constexpr size_t kCoveredHeaderBytes = 1 + 4 + 8 + 4 + 4;
using CoveredHeader = std::array<uint8_t, kCoveredHeaderBytes>;

CoveredHeader MakeCoveredHeader(FrameType type, uint32_t sensor_id,
                                uint64_t seq, uint32_t epoch,
                                size_t payload_size) {
  CoveredHeader h{};
  size_t pos = 0;
  auto put = [&](uint64_t v, size_t bytes) {
    for (size_t i = 0; i < bytes; ++i) {
      h[pos++] = static_cast<uint8_t>(v >> (8 * i));
    }
  };
  put(static_cast<uint8_t>(type), 1);
  put(sensor_id, 4);
  put(seq, 8);
  put(epoch, 4);
  put(static_cast<uint32_t>(payload_size), 4);
  return h;
}

uint32_t FrameCrc(const CoveredHeader& header,
                  std::span<const uint8_t> payload) {
  return Crc32Finalize(
      Crc32Update(Crc32Update(kCrc32Init, header), payload));
}

}  // namespace

void Frame::Serialize(BinaryWriter* writer) const {
  const CoveredHeader header =
      MakeCoveredHeader(type, sensor_id, seq, epoch, payload.size());
  writer->PutU32(kFrameMagic);
  writer->PutRaw(header);
  writer->PutU32(FrameCrc(header, payload));
  writer->PutRaw(payload);
}

StatusOr<FrameView> Frame::ParseView(std::span<const uint8_t> bytes) {
  BinaryReader reader(bytes);
  uint32_t magic;
  SBR_RETURN_IF_ERROR(reader.GetU32(&magic));
  if (magic != kFrameMagic) {
    return Status::DataLoss("bad frame magic");
  }
  FrameView f;
  uint8_t type;
  SBR_RETURN_IF_ERROR(reader.GetU8(&type));
  if (type > static_cast<uint8_t>(FrameType::kSnapshot)) {
    return Status::DataLoss("invalid frame type " + std::to_string(type));
  }
  f.type = static_cast<FrameType>(type);
  SBR_RETURN_IF_ERROR(reader.GetU32(&f.sensor_id));
  SBR_RETURN_IF_ERROR(reader.GetU64(&f.seq));
  SBR_RETURN_IF_ERROR(reader.GetU32(&f.epoch));
  uint32_t len, crc;
  SBR_RETURN_IF_ERROR(reader.GetU32(&len));
  SBR_RETURN_IF_ERROR(reader.GetU32(&crc));
  SBR_RETURN_IF_ERROR(reader.GetRaw(len, &f.payload));
  if (crc != FrameCrc(MakeCoveredHeader(f.type, f.sensor_id, f.seq, f.epoch,
                                        f.payload.size()),
                      f.payload)) {
    return Status::DataLoss("frame CRC mismatch");
  }
  if (!reader.AtEnd()) {
    return Status::DataLoss("trailing bytes after frame");
  }
  return f;
}

Frame MakeDataFrame(uint32_t sensor_id, uint64_t seq, uint32_t epoch,
                    const Transmission& t) {
  Frame f;
  f.type = FrameType::kData;
  f.sensor_id = sensor_id;
  f.seq = seq;
  f.epoch = epoch;
  BinaryWriter w;
  t.Serialize(&w);
  f.payload = w.TakeBuffer();
  return f;
}

size_t BaseSnapshot::ValueCount() const {
  size_t total = 0;
  for (const BaseUpdate& s : slots) total += s.values.size() + 1;
  return total;
}

void BaseSnapshot::Serialize(BinaryWriter* writer) const {
  writer->PutU32(missing_chunks);
  writer->PutU64(timeline_chunks);
  writer->PutU32(w);
  writer->PutU8(static_cast<uint8_t>(base_kind));
  writer->PutU32(static_cast<uint32_t>(slots.size()));
  for (const BaseUpdate& s : slots) {
    writer->PutU32(s.slot);
    writer->PutDoubles(s.values);
  }
}

StatusOr<BaseSnapshot> BaseSnapshot::Deserialize(BinaryReader* reader) {
  BaseSnapshot snap;
  SBR_RETURN_IF_ERROR(reader->GetU32(&snap.missing_chunks));
  SBR_RETURN_IF_ERROR(reader->GetU64(&snap.timeline_chunks));
  SBR_RETURN_IF_ERROR(reader->GetU32(&snap.w));
  uint8_t kind;
  SBR_RETURN_IF_ERROR(reader->GetU8(&kind));
  if (kind > static_cast<uint8_t>(BaseKind::kNone)) {
    return Status::DataLoss("invalid snapshot base kind");
  }
  snap.base_kind = static_cast<BaseKind>(kind);
  uint32_t num_slots;
  SBR_RETURN_IF_ERROR(reader->GetU32(&num_slots));
  // Each slot carries at least a slot id and a doubles length prefix.
  if (static_cast<size_t>(num_slots) * 8 > reader->remaining()) {
    return Status::DataLoss("snapshot slot count exceeds input");
  }
  snap.slots.resize(num_slots);
  for (auto& s : snap.slots) {
    SBR_RETURN_IF_ERROR(reader->GetU32(&s.slot));
    SBR_RETURN_IF_ERROR(reader->GetDoubles(&s.values));
  }
  return snap;
}

StatusOr<BaseSnapshot> BaseSnapshot::ParsePayload(
    std::span<const uint8_t> payload) {
  BinaryReader reader(payload);
  auto snap = Deserialize(&reader);
  if (snap.ok() && !reader.AtEnd()) {
    return Status::DataLoss("trailing bytes after snapshot");
  }
  return snap;
}

Frame MakeSnapshotFrame(uint32_t sensor_id, uint64_t seq, uint32_t epoch,
                        const BaseSnapshot& snapshot) {
  Frame f;
  f.type = FrameType::kSnapshot;
  f.sensor_id = sensor_id;
  f.seq = seq;
  f.epoch = epoch;
  BinaryWriter w;
  snapshot.Serialize(&w);
  f.payload = w.TakeBuffer();
  return f;
}

}  // namespace sbr::core
