// Unit tests for the transmission wire format: value accounting,
// serialization round trips and corruption handling, plus a differential
// oracle that checks the parsers against a field-by-field reference.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/transmission.h"
#include "util/crc32.h"

namespace sbr::core {
namespace {

Transmission MakeSample() {
  Transmission t;
  t.num_signals = 3;
  t.chunk_len = 100;
  t.w = 10;
  t.base_kind = BaseKind::kStored;
  BaseUpdate bu;
  bu.slot = 2;
  bu.values = {1.5, -2.5, 3.5, 0, 1, 2, 3, 4, 5, 6};
  t.base_updates.push_back(bu);
  t.intervals.push_back({0, 5, 1.25, -0.5});
  t.intervals.push_back({40, -1, 0.0, 9.0});
  t.intervals.push_back({200, 17, 2.0, 0.25});
  return t;
}

TEST(Transmission, ValueCountStoredBase) {
  const Transmission t = MakeSample();
  // 1 base update of width 10 -> 11 values; 3 intervals -> 12 values.
  EXPECT_EQ(t.ValueCount(), 11u + 12u);
}

TEST(Transmission, ValueCountNoBaseUsesThreePerInterval) {
  Transmission t = MakeSample();
  t.base_kind = BaseKind::kNone;
  t.base_updates.clear();
  EXPECT_EQ(t.ValueCount(), 9u);
}

TEST(Transmission, SerializeRoundTrip) {
  const Transmission t = MakeSample();
  BinaryWriter w;
  t.Serialize(&w);
  BinaryReader r(w.buffer());
  auto back = Transmission::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_signals, t.num_signals);
  EXPECT_EQ(back->chunk_len, t.chunk_len);
  EXPECT_EQ(back->w, t.w);
  EXPECT_EQ(back->base_kind, t.base_kind);
  ASSERT_EQ(back->base_updates.size(), 1u);
  EXPECT_EQ(back->base_updates[0].slot, 2u);
  EXPECT_EQ(back->base_updates[0].values, t.base_updates[0].values);
  ASSERT_EQ(back->intervals.size(), 3u);
  EXPECT_EQ(back->intervals[1].shift, -1);
  EXPECT_DOUBLE_EQ(back->intervals[2].a, 2.0);
  EXPECT_TRUE(r.AtEnd());
}

TEST(Transmission, EmptyTransmissionRoundTrip) {
  Transmission t;
  t.num_signals = 1;
  t.chunk_len = 8;
  t.w = 2;
  t.base_kind = BaseKind::kDctFixed;
  BinaryWriter w;
  t.Serialize(&w);
  BinaryReader r(w.buffer());
  auto back = Transmission::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->base_updates.empty());
  EXPECT_TRUE(back->intervals.empty());
  EXPECT_EQ(back->base_kind, BaseKind::kDctFixed);
}

TEST(Transmission, TruncatedBytesFail) {
  const Transmission t = MakeSample();
  BinaryWriter w;
  t.Serialize(&w);
  for (size_t cut : {size_t{0}, size_t{4}, size_t{13}, w.size() - 1}) {
    std::span<const uint8_t> partial(w.buffer().data(), cut);
    BinaryReader r(partial);
    EXPECT_FALSE(Transmission::Deserialize(&r).ok()) << "cut=" << cut;
  }
}

TEST(Transmission, InvalidBaseKindRejected) {
  Transmission t = MakeSample();
  BinaryWriter w;
  t.Serialize(&w);
  std::vector<uint8_t> bytes = w.buffer();
  bytes[16] = 0x7f;  // the base_kind byte (after four u32 header fields)
  BinaryReader r(bytes);
  EXPECT_FALSE(Transmission::Deserialize(&r).ok());
}

TEST(Transmission, NegativeShiftSurvivesRoundTrip) {
  Transmission t;
  t.num_signals = 1;
  t.chunk_len = 4;
  t.w = 2;
  t.intervals.push_back({0, -1, 1.0, 2.0});
  BinaryWriter w;
  t.Serialize(&w);
  BinaryReader r(w.buffer());
  auto back = Transmission::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->intervals[0].shift, -1);
}

// ------------------------------------------------- differential parser oracle
//
// The reference parsers below read every field with its own checked getter
// call, as the wire format's parsers did before arrays were bounds-checked
// once and decoded in a loop. The parsers under test must agree with them
// on every input: the Status (code and message), every parsed field bit for
// bit (a failed parse's partial fields too), and the reader position.

namespace ref {

// The message BinaryReader gives a read of `n` bytes with fewer left.
Status Truncated(const BinaryReader& r, size_t n) {
  return Status::DataLoss("truncated input: need " + std::to_string(n) +
                          " bytes at offset " + std::to_string(r.position()) +
                          ", have " + std::to_string(r.remaining()));
}

Status GetValue(BinaryReader* reader, WirePrecision precision, double* v) {
  return precision == WirePrecision::kFloat32 ? reader->GetF32(v)
                                              : reader->GetDouble(v);
}

Status GetDoubles(BinaryReader* reader, std::vector<double>* out) {
  uint32_t len = 0;
  SBR_RETURN_IF_ERROR(reader->GetU32(&len));
  if (static_cast<size_t>(len) * 8 > reader->remaining()) {
    return Truncated(*reader, static_cast<size_t>(len) * 8);
  }
  out->clear();
  out->reserve(len);
  for (uint32_t i = 0; i < len; ++i) {
    double v = 0.0;
    SBR_RETURN_IF_ERROR(reader->GetDouble(&v));
    out->push_back(v);
  }
  return Status::Ok();
}

Status DeserializeInto(BinaryReader* reader, Transmission* out) {
  Transmission& t = *out;
  SBR_RETURN_IF_ERROR(reader->GetU32(&t.num_signals));
  SBR_RETURN_IF_ERROR(reader->GetU32(&t.chunk_len));
  uint32_t num_lengths = 0;
  SBR_RETURN_IF_ERROR(reader->GetU32(&num_lengths));
  if (num_lengths != 0 && num_lengths != t.num_signals) {
    return Status::DataLoss("signal_lengths count mismatch");
  }
  if (static_cast<size_t>(num_lengths) * 4 > reader->remaining()) {
    return Status::DataLoss("signal_lengths count exceeds input");
  }
  t.signal_lengths.resize(num_lengths);
  for (auto& len : t.signal_lengths) {
    SBR_RETURN_IF_ERROR(reader->GetU32(&len));
  }
  SBR_RETURN_IF_ERROR(reader->GetU32(&t.w));
  uint8_t kind = 0;
  SBR_RETURN_IF_ERROR(reader->GetU8(&kind));
  if (kind > static_cast<uint8_t>(BaseKind::kNone)) {
    return Status::DataLoss("invalid base kind " + std::to_string(kind));
  }
  t.base_kind = static_cast<BaseKind>(kind);
  uint8_t quad = 0;
  SBR_RETURN_IF_ERROR(reader->GetU8(&quad));
  if (quad > 1) {
    return Status::DataLoss("invalid quadratic flag " + std::to_string(quad));
  }
  t.quadratic = quad == 1;
  uint8_t precision = 0;
  SBR_RETURN_IF_ERROR(reader->GetU8(&precision));
  if (precision > static_cast<uint8_t>(WirePrecision::kFloat32)) {
    return Status::DataLoss("invalid wire precision " +
                            std::to_string(precision));
  }
  t.precision = static_cast<WirePrecision>(precision);

  uint32_t num_updates = 0;
  SBR_RETURN_IF_ERROR(reader->GetU32(&num_updates));
  if (static_cast<size_t>(num_updates) * 8 > reader->remaining()) {
    return Status::DataLoss("base update count exceeds input");
  }
  t.base_updates.resize(num_updates);
  for (auto& bu : t.base_updates) {
    SBR_RETURN_IF_ERROR(reader->GetU32(&bu.slot));
    uint32_t len = 0;
    SBR_RETURN_IF_ERROR(reader->GetU32(&len));
    if (static_cast<size_t>(len) * 4 > reader->remaining()) {
      return Status::DataLoss("base update length exceeds input");
    }
    bu.values.resize(len);
    for (auto& v : bu.values) {
      SBR_RETURN_IF_ERROR(GetValue(reader, t.precision, &v));
    }
  }

  uint32_t num_intervals = 0;
  SBR_RETURN_IF_ERROR(reader->GetU32(&num_intervals));
  if (static_cast<size_t>(num_intervals) * 16 > reader->remaining()) {
    return Status::DataLoss("interval count exceeds input");
  }
  t.intervals.resize(num_intervals);
  for (auto& iv : t.intervals) {
    SBR_RETURN_IF_ERROR(reader->GetU32(&iv.start));
    uint32_t shift = 0;
    SBR_RETURN_IF_ERROR(reader->GetU32(&shift));
    iv.shift = static_cast<int32_t>(shift);
    SBR_RETURN_IF_ERROR(GetValue(reader, t.precision, &iv.a));
    SBR_RETURN_IF_ERROR(GetValue(reader, t.precision, &iv.b));
    iv.c = 0.0;
    if (t.quadratic) {
      SBR_RETURN_IF_ERROR(GetValue(reader, t.precision, &iv.c));
    }
  }
  return Status::Ok();
}

Status ParsePayload(std::span<const uint8_t> payload, Transmission* out) {
  BinaryReader reader(payload);
  SBR_RETURN_IF_ERROR(DeserializeInto(&reader, out));
  if (!reader.AtEnd()) {
    return Status::DataLoss("trailing bytes after transmission");
  }
  return Status::Ok();
}

StatusOr<BaseSnapshot> DeserializeSnapshot(BinaryReader* reader) {
  BaseSnapshot snap;
  SBR_RETURN_IF_ERROR(reader->GetU32(&snap.missing_chunks));
  SBR_RETURN_IF_ERROR(reader->GetU64(&snap.timeline_chunks));
  SBR_RETURN_IF_ERROR(reader->GetU32(&snap.w));
  uint8_t kind = 0;
  SBR_RETURN_IF_ERROR(reader->GetU8(&kind));
  if (kind > static_cast<uint8_t>(BaseKind::kNone)) {
    return Status::DataLoss("invalid snapshot base kind");
  }
  snap.base_kind = static_cast<BaseKind>(kind);
  uint32_t num_slots = 0;
  SBR_RETURN_IF_ERROR(reader->GetU32(&num_slots));
  if (static_cast<size_t>(num_slots) * 8 > reader->remaining()) {
    return Status::DataLoss("snapshot slot count exceeds input");
  }
  snap.slots.resize(num_slots);
  for (auto& s : snap.slots) {
    SBR_RETURN_IF_ERROR(reader->GetU32(&s.slot));
    SBR_RETURN_IF_ERROR(GetDoubles(reader, &s.values));
  }
  return snap;
}

StatusOr<BaseSnapshot> ParseSnapshot(std::span<const uint8_t> payload) {
  BinaryReader reader(payload);
  auto snap = DeserializeSnapshot(&reader);
  if (snap.ok() && !reader.AtEnd()) {
    return Status::DataLoss("trailing bytes after snapshot");
  }
  return snap;
}

StatusOr<FrameView> ParseView(std::span<const uint8_t> bytes) {
  BinaryReader reader(bytes);
  uint32_t magic = 0;
  SBR_RETURN_IF_ERROR(reader.GetU32(&magic));
  if (magic != 0x53425246) return Status::DataLoss("bad frame magic");
  FrameView f;
  uint8_t type = 0;
  SBR_RETURN_IF_ERROR(reader.GetU8(&type));
  if (type > static_cast<uint8_t>(FrameType::kSnapshot)) {
    return Status::DataLoss("invalid frame type " + std::to_string(type));
  }
  f.type = static_cast<FrameType>(type);
  SBR_RETURN_IF_ERROR(reader.GetU32(&f.sensor_id));
  SBR_RETURN_IF_ERROR(reader.GetU64(&f.seq));
  SBR_RETURN_IF_ERROR(reader.GetU32(&f.epoch));
  uint32_t len = 0, crc = 0;
  SBR_RETURN_IF_ERROR(reader.GetU32(&len));
  SBR_RETURN_IF_ERROR(reader.GetU32(&crc));
  SBR_RETURN_IF_ERROR(reader.GetRaw(len, &f.payload));
  // The CRC covers the header bytes between the magic and the checksum
  // with the length as parsed, then the payload.
  BinaryWriter covered;
  covered.PutU8(type);
  covered.PutU32(f.sensor_id);
  covered.PutU64(f.seq);
  covered.PutU32(f.epoch);
  covered.PutU32(static_cast<uint32_t>(f.payload.size()));
  if (crc != Crc32Finalize(Crc32Update(
                 Crc32Update(kCrc32Init, covered.buffer()), f.payload))) {
    return Status::DataLoss("frame CRC mismatch");
  }
  if (!reader.AtEnd()) return Status::DataLoss("trailing bytes after frame");
  return f;
}

}  // namespace ref

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Every field of `t`, doubles as bit patterns, one line.
std::string Describe(const Transmission& t) {
  std::ostringstream os;
  os << t.num_signals << ' ' << t.chunk_len << ' ' << t.w << ' '
     << int(t.base_kind) << ' ' << t.quadratic << ' ' << int(t.precision)
     << " L";
  for (uint32_t len : t.signal_lengths) os << ' ' << len;
  os << " U";
  for (const BaseUpdate& bu : t.base_updates) {
    os << " [" << bu.slot;
    for (double v : bu.values) os << ' ' << Bits(v);
    os << ']';
  }
  os << " I";
  for (const IntervalRecord& iv : t.intervals) {
    os << " [" << iv.start << ' ' << iv.shift << ' ' << Bits(iv.a) << ' '
       << Bits(iv.b) << ' ' << Bits(iv.c) << ']';
  }
  return os.str();
}

std::string Describe(const BaseSnapshot& s) {
  std::ostringstream os;
  os << s.missing_chunks << ' ' << s.timeline_chunks << ' ' << s.w << ' '
     << int(s.base_kind);
  for (const BaseUpdate& slot : s.slots) {
    os << " [" << slot.slot;
    for (double v : slot.values) os << ' ' << Bits(v);
    os << ']';
  }
  return os.str();
}

// A frame's fields, its payload as an offset into `bytes`.
std::string Describe(const FrameView& f, std::span<const uint8_t> bytes) {
  std::ostringstream os;
  os << int(f.type) << ' ' << f.sensor_id << ' ' << f.seq << ' ' << f.epoch
     << " @" << (f.payload.data() - bytes.data()) << '+' << f.payload.size();
  return os.str();
}

// Values that must survive bit for bit: signed zero, a denormal, infinity
// and a NaN with a payload.
constexpr double kNegZero = -0.0;
const double kDenormal = std::numeric_limits<double>::denorm_min();
const double kInf = std::numeric_limits<double>::infinity();
const double kNan = std::bit_cast<double>(uint64_t{0x7ff8000000000123});

Transmission MakeOracleTransmission(BaseKind kind, WirePrecision precision,
                                    bool quadratic, bool multi_rate) {
  Transmission t;
  t.num_signals = 3;
  t.chunk_len = multi_rate ? 0 : 64;
  if (multi_rate) t.signal_lengths = {64, 32, 16};
  t.w = 4;
  t.base_kind = kind;
  t.quadratic = quadratic;
  t.precision = precision;
  if (kind == BaseKind::kStored) {
    t.base_updates.push_back({0, {1.5, kNegZero, kDenormal, -3.25}});
    t.base_updates.push_back({3, {kInf, 2.0, kNan, 1e-300}});
  }
  const int32_t no_shift = -1;
  for (uint32_t k = 0; k < 7; ++k) {
    IntervalRecord iv;
    iv.start = 9 * k;
    iv.shift = kind == BaseKind::kNone || k % 3 == 2 ? no_shift
                                                     : static_cast<int32_t>(k);
    iv.a = 0.1 * k - 0.35;
    iv.b = k == 4 ? kNegZero : 1.0 / (k + 1);
    iv.c = quadratic ? -0.01 * k : 0.0;
    t.intervals.push_back(iv);
  }
  return t;
}

std::vector<uint8_t> Bytes(const Transmission& t) {
  BinaryWriter w;
  t.Serialize(&w);
  return w.TakeBuffer();
}

std::vector<uint8_t> Bytes(const BaseSnapshot& s) {
  BinaryWriter w;
  s.Serialize(&w);
  return w.TakeBuffer();
}

std::vector<uint8_t> Bytes(const Frame& f) {
  BinaryWriter w;
  f.Serialize(&w);
  return w.TakeBuffer();
}

// Every transmission payload variant: both precisions, linear and
// quadratic records, stored / DCT / no-base kinds, uniform and multi-rate
// geometry.
std::vector<std::vector<uint8_t>> TransmissionPayloads() {
  std::vector<std::vector<uint8_t>> out;
  for (BaseKind kind :
       {BaseKind::kStored, BaseKind::kDctFixed, BaseKind::kNone}) {
    for (WirePrecision precision :
         {WirePrecision::kFloat64, WirePrecision::kFloat32}) {
      for (bool quadratic : {false, true}) {
        for (bool multi_rate : {false, true}) {
          out.push_back(Bytes(
              MakeOracleTransmission(kind, precision, quadratic, multi_rate)));
        }
      }
    }
  }
  Transmission empty;
  empty.num_signals = 1;
  empty.chunk_len = 8;
  out.push_back(Bytes(empty));
  return out;
}

std::vector<std::vector<uint8_t>> SnapshotPayloads() {
  BaseSnapshot with_slots;
  with_slots.missing_chunks = 3;
  with_slots.timeline_chunks = uint64_t{1} << 40;
  with_slots.w = 4;
  with_slots.slots.push_back({0, {1.0, kNegZero, kDenormal, kNan}});
  with_slots.slots.push_back({2, {kInf, -kInf, 0.5, 1e300}});
  BaseSnapshot empty;
  empty.base_kind = BaseKind::kNone;
  return {Bytes(with_slots), Bytes(empty)};
}

// `bytes`, every prefix of it, `bytes` with one byte appended, and every
// single-byte flip of it (each byte XORed with 0x01, 0x80 and 0xff).
std::vector<std::vector<uint8_t>> Mutations(const std::vector<uint8_t>& bytes) {
  std::vector<std::vector<uint8_t>> out;
  for (size_t n = 0; n <= bytes.size(); ++n) {
    out.emplace_back(bytes.begin(), bytes.begin() + n);
  }
  out.push_back(bytes);
  out.back().push_back(0);
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (uint8_t mask : {0x01, 0x80, 0xff}) {
      out.push_back(bytes);
      out.back()[i] ^= mask;
    }
  }
  return out;
}

// Parses `bytes` with both parsers, each into its own scratch object that
// carries over from the previous call, and compares the outcomes.
void ExpectSameTransmissionParse(std::span<const uint8_t> bytes,
                                 Transmission* got_scratch,
                                 Transmission* want_scratch,
                                 const std::string& where) {
  BinaryReader got_reader(bytes), want_reader(bytes);
  const Status got = Transmission::DeserializeInto(&got_reader, got_scratch);
  const Status want = ref::DeserializeInto(&want_reader, want_scratch);
  ASSERT_EQ(got, want) << where;
  ASSERT_EQ(got_reader.position(), want_reader.position()) << where;
  ASSERT_EQ(Describe(*got_scratch), Describe(*want_scratch)) << where;
  // The exact-parse rule on top of it.
  ASSERT_EQ(Transmission::ParsePayload(bytes, got_scratch),
            ref::ParsePayload(bytes, want_scratch))
      << where;
  ASSERT_EQ(Describe(*got_scratch), Describe(*want_scratch)) << where;
}

TEST(ParserOracle, TransmissionMatchesFieldByFieldReference) {
  Transmission got, want;
  const auto payloads = TransmissionPayloads();
  for (size_t p = 0; p < payloads.size(); ++p) {
    // The valid payload parses, and round-trips its bytes.
    Transmission parsed;
    ASSERT_TRUE(Transmission::ParsePayload(payloads[p], &parsed).ok()) << p;
    ASSERT_EQ(Bytes(parsed), payloads[p]) << p;
    const auto cases = Mutations(payloads[p]);
    for (size_t c = 0; c < cases.size(); ++c) {
      ASSERT_NO_FATAL_FAILURE(ExpectSameTransmissionParse(
          cases[c], &got, &want,
          "payload " + std::to_string(p) + " case " + std::to_string(c)));
    }
  }
}

TEST(ParserOracle, LargeThenSmallIntoOneScratch) {
  // A receiver's scratch keeps the capacity of the largest frame it has
  // parsed; a smaller frame after it must leave no stale element behind.
  Transmission large_tx = MakeOracleTransmission(
      BaseKind::kStored, WirePrecision::kFloat64, true, true);
  for (uint32_t k = 0; k < 200; ++k) {
    large_tx.intervals.push_back({1000 + k, static_cast<int32_t>(k), 0.5 * k,
                               -0.25 * k, 0.125 * k});
  }
  large_tx.base_updates.push_back({7, std::vector<double>(64, 3.0)});
  const Transmission& large = large_tx;
  const Transmission small = MakeOracleTransmission(
      BaseKind::kNone, WirePrecision::kFloat32, false, false);
  Transmission got, want;
  for (const Transmission* t : {&large, &small, &large, &small}) {
    const std::vector<uint8_t> bytes = Bytes(*t);
    ASSERT_NO_FATAL_FAILURE(
        ExpectSameTransmissionParse(bytes, &got, &want, "sequence"));
    ASSERT_EQ(Bytes(got), bytes);
  }
}

TEST(ParserOracle, SnapshotMatchesFieldByFieldReference) {
  const auto payloads = SnapshotPayloads();
  for (size_t p = 0; p < payloads.size(); ++p) {
    const auto cases = Mutations(payloads[p]);
    for (size_t c = 0; c < cases.size(); ++c) {
      const std::string where =
          "snapshot " + std::to_string(p) + " case " + std::to_string(c);
      BinaryReader got_reader(cases[c]), want_reader(cases[c]);
      const auto got = BaseSnapshot::Deserialize(&got_reader);
      const auto want = ref::DeserializeSnapshot(&want_reader);
      ASSERT_EQ(got.status(), want.status()) << where;
      ASSERT_EQ(got_reader.position(), want_reader.position()) << where;
      if (got.ok()) {
        ASSERT_EQ(Describe(*got), Describe(*want)) << where;
      }
      ASSERT_EQ(BaseSnapshot::ParsePayload(cases[c]).status(),
                ref::ParseSnapshot(cases[c]).status())
          << where;
    }
  }
}

TEST(ParserOracle, FrameMatchesFieldByFieldReference) {
  const auto tx = TransmissionPayloads();
  const auto snaps = SnapshotPayloads();
  Frame data;
  data.type = FrameType::kData;
  data.sensor_id = 0x01020304;
  data.seq = uint64_t{1} << 33 | 5;
  data.epoch = 7;
  data.payload = tx[0];
  Frame snapshot = data;
  snapshot.type = FrameType::kSnapshot;
  snapshot.payload = snaps[0];
  for (const Frame* frame : {&data, &snapshot}) {
    const std::vector<uint8_t> bytes = Bytes(*frame);
    ASSERT_TRUE(Frame::ParseView(bytes).ok());
    const auto cases = Mutations(bytes);
    for (size_t c = 0; c < cases.size(); ++c) {
      const std::string where = "frame type " +
                                std::to_string(int(frame->type)) + " case " +
                                std::to_string(c);
      const auto got = Frame::ParseView(cases[c]);
      const auto want = ref::ParseView(cases[c]);
      ASSERT_EQ(got.status(), want.status()) << where;
      if (got.ok()) {
        ASSERT_EQ(Describe(*got, cases[c]), Describe(*want, cases[c]))
            << where;
      }
    }
  }
}

}  // namespace
}  // namespace sbr::core
