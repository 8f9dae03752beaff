#include "util/crc32.h"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#define SBR_CRC32_CLMUL 1
#endif

namespace sbr {
namespace {

// Slicing-by-8 tables: kTables[0] is the classic bytewise table;
// kTables[k][i] is the CRC of byte i followed by k zero bytes, so eight
// input bytes fold into the state with eight independent lookups.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xffu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr Tables kTables = MakeTables();

/// Little-endian 32-bit load (the byte order the reflected CRC consumes).
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 |
         static_cast<uint32_t>(p[3]) << 24;
}

#if SBR_CRC32_CLMUL
[[gnu::target("sse4.1")]] inline __m128i Load(const uint8_t* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

// One fold of lane a by the constant pair k: a.lo * k.lo xor a.hi * k.hi,
// xor `next`.
[[gnu::target("pclmul,sse4.1")]] inline __m128i Fold(__m128i a, __m128i k,
                                                     __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x11),
                                     _mm_clmulepi64_si128(a, k, 0x00)),
                       next);
}

// Folds n bytes (n >= 64, a multiple of 16) into a raw CRC state with
// carry-less multiplies: four 128-bit lanes fold 64 bytes a step, then
// fold to one lane, to 64 bits, and Barrett-reduce to 32 (Gopal et al.,
// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction", Intel, 2009; the constants are the bit-reflected ones for
// polynomial 0xEDB88320).
[[gnu::target("pclmul,sse4.1")]] uint32_t ClmulUpdate(uint32_t state,
                                                      const uint8_t* p,
                                                      size_t n) {
  alignas(16) static const uint64_t kK1K2[2] = {0x0154442bd4, 0x01c6e41596};
  alignas(16) static const uint64_t kK3K4[2] = {0x01751997d0, 0x00ccaa009e};
  alignas(16) static const uint64_t kK5K0[2] = {0x0163cd6124, 0x0000000000};
  alignas(16) static const uint64_t kPoly[2] = {0x01db710641, 0x01f7011641};
  __m128i x1 =
      _mm_xor_si128(Load(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = Load(p + 16);
  __m128i x3 = Load(p + 32);
  __m128i x4 = Load(p + 48);
  p += 64;
  n -= 64;
  const __m128i k1k2 =
      _mm_load_si128(reinterpret_cast<const __m128i*>(kK1K2));
  for (; n >= 64; p += 64, n -= 64) {
    x1 = Fold(x1, k1k2, Load(p));
    x2 = Fold(x2, k1k2, Load(p + 16));
    x3 = Fold(x3, k1k2, Load(p + 32));
    x4 = Fold(x4, k1k2, Load(p + 48));
  }
  const __m128i k3k4 =
      _mm_load_si128(reinterpret_cast<const __m128i*>(kK3K4));
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = Fold(x1, k3k4, Load(p));

  // 128 -> 64 bits.
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  const __m128i k5 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(kK5K0));
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00),
                     _mm_srli_si128(x1, 4));
  // Barrett reduction to 32 bits.
  const __m128i poly =
      _mm_load_si128(reinterpret_cast<const __m128i*>(kPoly));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

bool CpuHasClmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}
#endif

}  // namespace

uint32_t Crc32Update(uint32_t state, std::span<const uint8_t> data) {
#if SBR_CRC32_CLMUL
  static const bool kClmul = CpuHasClmul();
  if (kClmul && data.size() >= 64) {
    const size_t bulk = data.size() & ~size_t{15};
    state = ClmulUpdate(state, data.data(), bulk);
    data = data.subspan(bulk);
  }
#endif
  return Crc32UpdatePortable(state, data);
}

uint32_t Crc32UpdatePortable(uint32_t state, std::span<const uint8_t> data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  while (n >= 8) {
    const uint32_t lo = LoadLe32(p) ^ state;
    const uint32_t hi = LoadLe32(p + 4);
    state = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
            kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
            kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (; n > 0; --n, ++p) {
    state = kTables[0][(state ^ *p) & 0xffu] ^ (state >> 8);
  }
  return state;
}

}  // namespace sbr
