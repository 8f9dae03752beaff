#include "util/serialize.h"

#include <bit>

namespace sbr {

void BinaryWriter::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buffer_.push_back((v >> (8 * i)) & 0xff);
}

void BinaryWriter::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buffer_.push_back((v >> (8 * i)) & 0xff);
}

void BinaryWriter::PutDouble(double v) {
  PutU64(std::bit_cast<uint64_t>(v));
}

void BinaryWriter::PutF32(double v) {
  PutU32(std::bit_cast<uint32_t>(static_cast<float>(v)));
}

void BinaryWriter::PutBytes(std::span<const uint8_t> bytes) {
  PutU32(static_cast<uint32_t>(bytes.size()));
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void BinaryWriter::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void BinaryWriter::PutDoubles(std::span<const double> values) {
  PutU32(static_cast<uint32_t>(values.size()));
  for (double v : values) PutDouble(v);
}

[[gnu::cold]] std::string BinaryReader::TruncatedMessage(size_t n) const {
  return "truncated input: need " + std::to_string(n) + " bytes at offset " +
         std::to_string(pos_) + ", have " + std::to_string(remaining());
}

Status BinaryReader::GetString(std::string* out) {
  uint32_t len = 0;
  SBR_RETURN_IF_ERROR(GetU32(&len));
  if (remaining() < len) return Truncated(len);
  out->assign(reinterpret_cast<const char*>(data_.data()) + pos_, len);
  pos_ += len;
  return Status::Ok();
}

Status BinaryReader::GetDoubles(std::vector<double>* out) {
  uint32_t len = 0;
  SBR_RETURN_IF_ERROR(GetU32(&len));
  std::span<const uint8_t> bytes;
  SBR_RETURN_IF_ERROR(GetRaw(static_cast<size_t>(len) * 8, &bytes));
  out->clear();
  out->reserve(len);
  for (uint32_t i = 0; i < len; ++i) {
    out->push_back(std::bit_cast<double>(LoadLe64(bytes.data() + 8 * i)));
  }
  return Status::Ok();
}

Status BinaryReader::GetRaw(size_t n, std::vector<uint8_t>* out) {
  if (remaining() < n) return Truncated(n);
  out->assign(data_.begin() + pos_, data_.begin() + pos_ + n);
  pos_ += n;
  return Status::Ok();
}

}  // namespace sbr
