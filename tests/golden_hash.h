// FNV-1a over a solution vector's IEEE-754 bit patterns: the fingerprint
// the golden-row tests pin next to status, iterations and residual bits.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace refloat::golden {

inline std::uint64_t fnv1a(const std::vector<double>& v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double d : v) {
    const auto bits = std::bit_cast<std::uint64_t>(d);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

}  // namespace refloat::golden
