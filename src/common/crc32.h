// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//
// One checksum shared by every framed byte stream in the tree — the hub
// wire protocol's command frames and the CTR store's segment frames, both
// net/frame.h frames — so a frame written by one subsystem is checkable by
// the other's tooling and the implementations can never drift.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace chaser {

/// Slicing-by-8: eight derived tables let the loop fold eight bytes per
/// iteration instead of one — same polynomial, same result, ~5x the
/// throughput, which matters once columnar stores checksum megabytes of
/// block frames per scan.
inline std::uint32_t Crc32(const char* data, std::size_t n) {
  static const std::array<std::array<std::uint32_t, 256>, 8> tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      for (int j = 1; j < 8; ++j) {
        t[j][i] = t[0][t[j - 1][i] & 0xFFu] ^ (t[j - 1][i] >> 8);
      }
    }
    return t;
  }();
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint32_t lo =
        crc ^ (static_cast<std::uint32_t>(p[i]) |
               static_cast<std::uint32_t>(p[i + 1]) << 8 |
               static_cast<std::uint32_t>(p[i + 2]) << 16 |
               static_cast<std::uint32_t>(p[i + 3]) << 24);
    const std::uint32_t hi = static_cast<std::uint32_t>(p[i + 4]) |
                             static_cast<std::uint32_t>(p[i + 5]) << 8 |
                             static_cast<std::uint32_t>(p[i + 6]) << 16 |
                             static_cast<std::uint32_t>(p[i + 7]) << 24;
    crc = tables[7][lo & 0xFFu] ^ tables[6][(lo >> 8) & 0xFFu] ^
          tables[5][(lo >> 16) & 0xFFu] ^ tables[4][lo >> 24] ^
          tables[3][hi & 0xFFu] ^ tables[2][(hi >> 8) & 0xFFu] ^
          tables[1][(hi >> 16) & 0xFFu] ^ tables[0][hi >> 24];
  }
  for (; i < n; ++i) {
    crc = tables[0][(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace chaser
