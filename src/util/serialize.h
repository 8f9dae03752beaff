// Binary serialization helpers used by transmissions and the base-station
// chunk logs. Encoding is explicit little-endian fixed-width so that logs
// written on one machine decode on any other.
#ifndef SBR_UTIL_SERIALIZE_H_
#define SBR_UTIL_SERIALIZE_H_

#include <cstdint>
#include <cstring>
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

/// Reads primitive values back out of a byte span. All getters return a
/// non-OK status on truncated input instead of reading out of bounds.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const uint8_t> data) : data_(data) {}

  Status GetU8(uint8_t* out);
  Status GetU32(uint32_t* out);
  Status GetU64(uint64_t* out);
  Status GetI64(int64_t* out);
  Status GetDouble(double* out);
  /// Reads a binary32 value written by PutF32, widened to double.
  Status GetF32(double* out);
  Status GetString(std::string* out);
  Status GetDoubles(std::vector<double>* out);
  /// Reads exactly `n` raw bytes (no length prefix).
  Status GetRaw(size_t n, std::vector<uint8_t>* out);
  /// Views the next `n` raw bytes in place (no copy; valid while the
  /// underlying data is).
  Status GetRaw(size_t n, std::span<const uint8_t>* out);

  /// Bytes consumed so far.
  size_t position() const { return pos_; }
  /// Bytes left unread.
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status Need(size_t n);

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace sbr

#endif  // SBR_UTIL_SERIALIZE_H_
