#include "common/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <nmmintrin.h>
#endif

namespace rhsd {
namespace {

// Reflected CRC-32C, polynomial 0x1EDC6F41 (reversed: 0x82F63B78).
constexpr std::uint32_t kPoly = 0x82F63B78u;

constexpr std::array<std::uint32_t, 256> MakeTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr auto kTable = MakeTable();

std::uint32_t Crc32cTable(const std::uint8_t* p, std::size_t n,
                          std::uint32_t crc) {
  for (std::size_t i = 0; i < n; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__) || defined(__i386__)

bool HaveSse42() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ecx & (1u << 20)) != 0;  // SSE4.2 → CRC32 instruction
}

#if defined(__x86_64__)

// Three interleaved streams: the crc32 instruction has a latency of
// about three cycles but a throughput of one per cycle, so one stream
// leaves two thirds of it idle.  Each 768-byte stride splits into three
// 256-byte lanes, CRC'd side by side (lanes two and three from a zero
// register), then joined with Adler's method: the register CRC is
// linear, so crc(A | B) = shift256(crc(A)) ^ crc0(B), where shift256
// feeds 256 zero bytes through the register — a 32x32 GF(2) matrix,
// applied as four byte-indexed tables.
constexpr std::size_t kLaneBytes = 256;
constexpr std::size_t kStrideBytes = 3 * kLaneBytes;

constexpr std::array<std::array<std::uint32_t, 256>, 4> MakeShiftTable() {
  // The image of each register bit under kLaneBytes zero bytes, then
  // every byte value of each register byte as the XOR of its bits'.
  std::array<std::uint32_t, 32> bit_image{};
  for (int b = 0; b < 32; ++b) {
    std::uint32_t crc = 1u << b;
    for (std::size_t i = 0; i < kLaneBytes; ++i) {
      crc = kTable[crc & 0xFFu] ^ (crc >> 8);
    }
    bit_image[b] = crc;
  }
  std::array<std::array<std::uint32_t, 256>, 4> shift{};
  for (int k = 0; k < 4; ++k) {
    for (std::uint32_t v = 0; v < 256; ++v) {
      std::uint32_t out = 0;
      for (int b = 0; b < 8; ++b) {
        if ((v >> b) & 1u) out ^= bit_image[8 * k + b];
      }
      shift[k][v] = out;
    }
  }
  return shift;
}

constexpr auto kShift256 = MakeShiftTable();

std::uint32_t Shift256(std::uint32_t crc) {
  return kShift256[0][crc & 0xFFu] ^ kShift256[1][(crc >> 8) & 0xFFu] ^
         kShift256[2][(crc >> 16) & 0xFFu] ^ kShift256[3][crc >> 24];
}

#endif  // __x86_64__

// The SSE4.2 CRC32 instruction implements exactly this reflected
// Castagnoli CRC, so the two paths are bit-identical.
__attribute__((target("sse4.2"))) std::uint32_t Crc32cHw(
    const std::uint8_t* p, std::size_t n, std::uint32_t crc) {
#if defined(__x86_64__)
  const auto load = [](const std::uint8_t* q) {
    std::uint64_t word;
    std::memcpy(&word, q, 8);
    return word;
  };
  while (n >= kStrideBytes) {
    std::uint64_t c0 = crc;
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (std::size_t i = 0; i < kLaneBytes; i += 8) {
      c0 = _mm_crc32_u64(c0, load(p + i));
      c1 = _mm_crc32_u64(c1, load(p + kLaneBytes + i));
      c2 = _mm_crc32_u64(c2, load(p + 2 * kLaneBytes + i));
    }
    crc = Shift256(static_cast<std::uint32_t>(c0)) ^
          static_cast<std::uint32_t>(c1);
    crc = Shift256(crc) ^ static_cast<std::uint32_t>(c2);
    p += kStrideBytes;
    n -= kStrideBytes;
  }
  std::uint64_t c = crc;
  while (n >= 8) {
    c = _mm_crc32_u64(c, load(p));
    p += 8;
    n -= 8;
  }
  crc = static_cast<std::uint32_t>(c);
#endif
  while (n >= 4) {
    std::uint32_t word;
    std::memcpy(&word, p, 4);
    crc = _mm_crc32_u32(crc, word);
    p += 4;
    n -= 4;
  }
  while (n > 0) {
    crc = _mm_crc32_u8(crc, *p);
    ++p;
    --n;
  }
  return crc;
}

#endif  // x86

}  // namespace

std::uint32_t Crc32c(std::span<const std::uint8_t> data, std::uint32_t seed) {
#if defined(__x86_64__) || defined(__i386__)
  static const bool kHaveHw = HaveSse42();
  if (kHaveHw) {
    return ~Crc32cHw(data.data(), data.size(), ~seed);
  }
#endif
  return Crc32cBytewise(data, seed);
}

std::uint32_t Crc32cBytewise(std::span<const std::uint8_t> data,
                             std::uint32_t seed) {
  return ~Crc32cTable(data.data(), data.size(), ~seed);
}

}  // namespace rhsd
