// CRC-32C (Castagnoli), the checksum ext4 uses for extent-tree nodes.
//
// The paper's Figure 3 exploit hinges on the asymmetry that ext4 extent
// trees carry CRC-32C but legacy indirect blocks do not; the mini
// filesystem reproduces that, so it needs a faithful CRC-32C.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace rhsd {

/// CRC-32C of `data`, chained from `seed` (pass 0 to start).  With
/// SSE4.2 it runs the crc32 instruction on three interleaved streams per
/// 768-byte stride, joined by a 256-byte shift table (Adler's method);
/// the L2P journal checks every 4 KiB page it reloads with it.
[[nodiscard]] std::uint32_t Crc32c(std::span<const std::uint8_t> data,
                                   std::uint32_t seed = 0);

/// The same CRC one byte-table lookup at a time: Crc32c() without
/// SSE4.2, and the oracle its tests compare the hardware path against.
[[nodiscard]] std::uint32_t Crc32cBytewise(std::span<const std::uint8_t> data,
                                           std::uint32_t seed = 0);

}  // namespace rhsd
