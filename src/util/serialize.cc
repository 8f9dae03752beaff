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

Status BinaryReader::Need(size_t n) {
  if (pos_ + n > data_.size()) {
    return Status::DataLoss("truncated input: need " + std::to_string(n) +
                            " bytes at offset " + std::to_string(pos_) +
                            ", have " + std::to_string(remaining()));
  }
  return Status::Ok();
}

Status BinaryReader::GetU8(uint8_t* out) {
  SBR_RETURN_IF_ERROR(Need(1));
  *out = data_[pos_++];
  return Status::Ok();
}

Status BinaryReader::GetU32(uint32_t* out) {
  SBR_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_++]) << (8 * i);
  *out = v;
  return Status::Ok();
}

Status BinaryReader::GetU64(uint64_t* out) {
  SBR_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
  *out = v;
  return Status::Ok();
}

Status BinaryReader::GetI64(int64_t* out) {
  uint64_t v;
  SBR_RETURN_IF_ERROR(GetU64(&v));
  *out = static_cast<int64_t>(v);
  return Status::Ok();
}

Status BinaryReader::GetDouble(double* out) {
  uint64_t bits;
  SBR_RETURN_IF_ERROR(GetU64(&bits));
  *out = std::bit_cast<double>(bits);
  return Status::Ok();
}

Status BinaryReader::GetF32(double* out) {
  uint32_t bits;
  SBR_RETURN_IF_ERROR(GetU32(&bits));
  *out = static_cast<double>(std::bit_cast<float>(bits));
  return Status::Ok();
}

Status BinaryReader::GetString(std::string* out) {
  uint32_t len;
  SBR_RETURN_IF_ERROR(GetU32(&len));
  SBR_RETURN_IF_ERROR(Need(len));
  out->assign(reinterpret_cast<const char*>(data_.data()) + pos_, len);
  pos_ += len;
  return Status::Ok();
}

Status BinaryReader::GetDoubles(std::vector<double>* out) {
  uint32_t len;
  SBR_RETURN_IF_ERROR(GetU32(&len));
  SBR_RETURN_IF_ERROR(Need(static_cast<size_t>(len) * 8));
  out->clear();
  out->reserve(len);
  for (uint32_t i = 0; i < len; ++i) {
    double v;
    SBR_RETURN_IF_ERROR(GetDouble(&v));
    out->push_back(v);
  }
  return Status::Ok();
}

Status BinaryReader::GetRaw(size_t n, std::vector<uint8_t>* out) {
  SBR_RETURN_IF_ERROR(Need(n));
  out->assign(data_.begin() + pos_, data_.begin() + pos_ + n);
  pos_ += n;
  return Status::Ok();
}

Status BinaryReader::GetRaw(size_t n, std::span<const uint8_t>* out) {
  SBR_RETURN_IF_ERROR(Need(n));
  *out = data_.subspan(pos_, n);
  pos_ += n;
  return Status::Ok();
}

}  // namespace sbr
