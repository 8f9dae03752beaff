// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over byte spans. Used to
// detect corruption of on-air frames and on-disk chunk-log records: a
// flipped bit or truncated buffer fails the checksum instead of reaching
// the decoder.
#ifndef SBR_UTIL_CRC32_H_
#define SBR_UTIL_CRC32_H_

#include <cstdint>
#include <span>

namespace sbr {

/// Initial raw CRC state (before the final bit inversion).
inline constexpr uint32_t kCrc32Init = 0xffffffffu;

/// Folds `data` into a raw CRC state; chain calls to checksum
/// non-contiguous buffers, then apply Crc32Finalize. On an x86-64 CPU with
/// PCLMULQDQ the bulk of a buffer of 64 bytes or more is folded with
/// carry-less multiplies (chosen once per process), the rest with
/// Crc32UpdatePortable; both give the same state.
uint32_t Crc32Update(uint32_t state, std::span<const uint8_t> data);

/// The table-driven fold (slicing-by-8) every CPU runs.
uint32_t Crc32UpdatePortable(uint32_t state, std::span<const uint8_t> data);

/// Final bit inversion turning a raw state into the checksum value.
inline uint32_t Crc32Finalize(uint32_t state) { return state ^ 0xffffffffu; }

/// One-shot checksum of a contiguous buffer.
inline uint32_t Crc32(std::span<const uint8_t> data) {
  return Crc32Finalize(Crc32Update(kCrc32Init, data));
}

}  // namespace sbr

#endif  // SBR_UTIL_CRC32_H_
