//===-- support/Crc32.h - CRC32C checksums ----------------------*- C++ -*-===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) used to
/// checksum trace-log segments (docs/LOG_FORMAT.md). The v2 segmented
/// format stores one CRC per segment header and one per payload, so the
/// salvage reader can tell a bit flip from a clean frame with a 2^-32
/// false-accept probability.
///
/// Every trace byte is checksummed by the writer and again by every
/// reader, so the CRC runs at memory speed where it can: on x86 CPUs with
/// SSE4.2 crc32cUpdate() uses the `crc32` instruction, which computes this
/// very polynomial, eight bytes per instruction. The choice is made once
/// at run time (__builtin_cpu_supports), and the instruction is reached
/// through a target("sse4.2") function, so a generic (non -march=native)
/// build gets it too. Elsewhere a slice-by-8 table loop is used. Both
/// paths produce identical values; files are byte-identical either way.
///
//===----------------------------------------------------------------------===//

#ifndef LITERACE_SUPPORT_CRC32_H
#define LITERACE_SUPPORT_CRC32_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define LITERACE_CRC32C_HW 1
#include <nmmintrin.h>
#endif

namespace literace {

namespace detail {

/// Slice-by-8 tables: T[0] is the classic byte table; T[K][B] is the CRC
/// of byte B followed by K zero bytes.
inline const std::array<std::array<uint32_t, 256>, 8> &crc32cTables() {
  static const std::array<std::array<uint32_t, 256>, 8> Tables = [] {
    std::array<std::array<uint32_t, 256>, 8> T{};
    for (uint32_t I = 0; I != 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K != 8; ++K)
        C = (C & 1) ? (C >> 1) ^ 0x82f63b78u : C >> 1;
      T[0][I] = C;
    }
    for (uint32_t I = 0; I != 256; ++I)
      for (size_t K = 1; K != 8; ++K)
        T[K][I] = T[0][T[K - 1][I] & 0xff] ^ (T[K - 1][I] >> 8);
    return T;
  }();
  return Tables;
}

/// Portable CRC32C update (slice-by-8). Always available; the reference
/// the hardware path is tested against.
inline uint32_t crc32cUpdateTable(uint32_t State, const void *Data,
                                  size_t Size) {
  const auto &T = crc32cTables();
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  for (; Size >= 8; P += 8, Size -= 8) {
    uint32_t Lo, Hi;
    std::memcpy(&Lo, P, 4); // little-endian hosts only, like the format
    std::memcpy(&Hi, P + 4, 4);
    Lo ^= State;
    State = T[7][Lo & 0xff] ^ T[6][(Lo >> 8) & 0xff] ^
            T[5][(Lo >> 16) & 0xff] ^ T[4][Lo >> 24] ^ T[3][Hi & 0xff] ^
            T[2][(Hi >> 8) & 0xff] ^ T[1][(Hi >> 16) & 0xff] ^
            T[0][Hi >> 24];
  }
  for (; Size; ++P, --Size)
    State = T[0][(State ^ *P) & 0xff] ^ (State >> 8);
  return State;
}

#ifdef LITERACE_CRC32C_HW
/// CRC32C update with the SSE4.2 `crc32` instruction. Call only where
/// crc32cHardwareAvailable() is true.
__attribute__((target("sse4.2"))) inline uint32_t
crc32cUpdateHardware(uint32_t State, const void *Data, size_t Size) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  uint64_t C = State;
  for (; Size >= 8; P += 8, Size -= 8) {
    uint64_t Word;
    std::memcpy(&Word, P, 8);
    C = _mm_crc32_u64(C, Word);
  }
  uint32_t C32 = static_cast<uint32_t>(C);
  for (; Size; ++P, --Size)
    C32 = _mm_crc32_u8(C32, *P);
  return C32;
}
#endif

/// True when crc32cUpdate() takes the hardware path on this CPU.
inline bool crc32cHardwareAvailable() {
#ifdef LITERACE_CRC32C_HW
  static const bool Available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return Available;
#else
  return false;
#endif
}

} // namespace detail

/// Extends a running CRC32C with \p Size bytes. Start from crc32cInit()
/// and finish with crc32cFinal(); or use crc32c() for one-shot data.
inline uint32_t crc32cUpdate(uint32_t State, const void *Data, size_t Size) {
#ifdef LITERACE_CRC32C_HW
  if (detail::crc32cHardwareAvailable())
    return detail::crc32cUpdateHardware(State, Data, Size);
#endif
  return detail::crc32cUpdateTable(State, Data, Size);
}

/// Initial state of an incremental CRC32C.
inline uint32_t crc32cInit() { return 0xffffffffu; }

/// Finalizes an incremental CRC32C state into the checksum value.
inline uint32_t crc32cFinal(uint32_t State) { return State ^ 0xffffffffu; }

/// One-shot CRC32C of a buffer (the RFC 3720 check value: the CRC of
/// "123456789" is 0xE3069283).
inline uint32_t crc32c(const void *Data, size_t Size) {
  return crc32cFinal(crc32cUpdate(crc32cInit(), Data, Size));
}

} // namespace literace

#endif // LITERACE_SUPPORT_CRC32_H
