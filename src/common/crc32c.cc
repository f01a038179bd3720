#include "common/crc32c.h"

#include <array>
#include <cstring>

#include "common/simd_gate.h"

#if SLIDER_SIMD_X86
#include <nmmintrin.h>
#endif

namespace slider {
namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

constexpr std::array<std::uint32_t, 256> make_table() {
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

constexpr std::array<std::uint32_t, 256> kTable = make_table();

#if SLIDER_SIMD_X86

// The SSE4.2 crc32 instruction computes exactly this polynomial; the
// 64-bit form folds in 8 bytes per instruction.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::string_view data, std::uint32_t crc) {
  const char* p = data.data();
  std::size_t n = data.size();
  std::uint64_t state = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    state = _mm_crc32_u64(state, word);
  }
  auto narrow = static_cast<std::uint32_t>(state);
  for (; n > 0; ++p, --n) {
    narrow = _mm_crc32_u8(narrow, static_cast<std::uint8_t>(*p));
  }
  return ~narrow;
}

bool use_sse42() {
  static const bool enabled =
      simd_enabled() && __builtin_cpu_supports("sse4.2") != 0;
  return enabled;
}

#endif  // SLIDER_SIMD_X86

}  // namespace

std::uint32_t crc32c_portable(std::string_view data, std::uint32_t crc) {
  crc = ~crc;
  for (const char c : data) {
    crc = kTable[(crc ^ static_cast<std::uint8_t>(c)) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint32_t crc32c(std::string_view data, std::uint32_t crc) {
#if SLIDER_SIMD_X86
  if (use_sse42()) return crc32c_sse42(data, crc);
#endif
  return crc32c_portable(data, crc);
}

}  // namespace slider
