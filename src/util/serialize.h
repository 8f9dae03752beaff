// Binary serialization helpers used by transmissions and the base-station
// chunk logs. Encoding is explicit little-endian fixed-width so that logs
// written on one machine decode on any other.
#ifndef SBR_UTIL_SERIALIZE_H_
#define SBR_UTIL_SERIALIZE_H_

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace sbr {

/// Appends primitive values to a growable byte buffer.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  void PutU8(uint8_t v) { buffer_.push_back(v); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  /// Stores the IEEE-754 bit pattern; exact round trip.
  void PutDouble(double v);
  /// Stores the value rounded to IEEE-754 binary32 (the compact wire
  /// mode); reading it back yields the rounded double.
  void PutF32(double v);
  /// Length-prefixed (u32) raw bytes.
  void PutBytes(std::span<const uint8_t> bytes);
  /// Raw bytes, no length prefix (for callers that frame explicitly).
  void PutRaw(std::span<const uint8_t> bytes) {
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  }
  /// Length-prefixed (u32) string.
  void PutString(const std::string& s);
  /// Length-prefixed (u32) vector of doubles.
  void PutDoubles(std::span<const double> values);

  const std::vector<uint8_t>& buffer() const { return buffer_; }
  std::vector<uint8_t> TakeBuffer() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  std::vector<uint8_t> buffer_;
};

/// Little-endian loads of fixed-width values from raw bytes, for decoders
/// that bounds-checked a whole array once (BinaryReader::GetRaw) and then
/// decode its elements with no further check.
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}
inline uint64_t LoadLe64(const uint8_t* p) {
  return static_cast<uint64_t>(LoadLe32(p)) |
         static_cast<uint64_t>(LoadLe32(p + 4)) << 32;
}

/// Reads primitive values back out of a byte span. All getters return a
/// non-OK status on truncated input instead of reading out of bounds.
///
/// The fixed-width getters are inline: the happy path is one compare
/// against remaining() and one little-endian load, and only a truncated
/// read leaves it, through Truncated(), whose message is built out of
/// line. A failed getter consumes nothing and leaves `*out` as it was.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const uint8_t> data) : data_(data) {}

  Status GetU8(uint8_t* out) {
    if (remaining() < 1) [[unlikely]] return Truncated(1);
    *out = data_[pos_++];
    return Status::Ok();
  }
  Status GetU32(uint32_t* out) {
    if (remaining() < 4) [[unlikely]] return Truncated(4);
    *out = LoadLe32(data_.data() + pos_);
    pos_ += 4;
    return Status::Ok();
  }
  Status GetU64(uint64_t* out) {
    if (remaining() < 8) [[unlikely]] return Truncated(8);
    *out = LoadLe64(data_.data() + pos_);
    pos_ += 8;
    return Status::Ok();
  }
  Status GetI64(int64_t* out) {
    if (remaining() < 8) [[unlikely]] return Truncated(8);
    *out = static_cast<int64_t>(LoadLe64(data_.data() + pos_));
    pos_ += 8;
    return Status::Ok();
  }
  Status GetDouble(double* out) {
    if (remaining() < 8) [[unlikely]] return Truncated(8);
    *out = std::bit_cast<double>(LoadLe64(data_.data() + pos_));
    pos_ += 8;
    return Status::Ok();
  }
  /// Reads a binary32 value written by PutF32, widened to double.
  Status GetF32(double* out) {
    if (remaining() < 4) [[unlikely]] return Truncated(4);
    *out = static_cast<double>(
        std::bit_cast<float>(LoadLe32(data_.data() + pos_)));
    pos_ += 4;
    return Status::Ok();
  }
  Status GetString(std::string* out);
  /// Reads a length-prefixed vector of doubles: one bounds check for the
  /// whole array, then a plain decode loop.
  Status GetDoubles(std::vector<double>* out);
  /// Reads exactly `n` raw bytes (no length prefix).
  Status GetRaw(size_t n, std::vector<uint8_t>* out);
  /// Views the next `n` raw bytes in place (no copy; valid while the
  /// underlying data is).
  Status GetRaw(size_t n, std::span<const uint8_t>* out) {
    if (remaining() < n) [[unlikely]] return Truncated(n);
    *out = data_.subspan(pos_, n);
    pos_ += n;
    return Status::Ok();
  }

  /// Bytes consumed so far.
  size_t position() const { return pos_; }
  /// Bytes left unread.
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  /// The DataLoss a read of `n` bytes at the current position gets when
  /// fewer remain. The code is built inline, so callers see that the
  /// error path never returns OK; only the message is out of line.
  Status Truncated(size_t n) const {
    return Status(StatusCode::kDataLoss, TruncatedMessage(n));
  }
  /// "truncated input: need N bytes at offset P, have R". Cold on its
  /// definition only: GCC 12 loses the getters' OK-path predicate at a
  /// call it sees as cold and warns -Wmaybe-uninitialized at every caller.
  [[gnu::noinline]] std::string TruncatedMessage(size_t n) const;

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace sbr

#endif  // SBR_UTIL_SERIALIZE_H_
