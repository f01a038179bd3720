// CRC32C (Castagnoli, reflected polynomial 0x82F63B78) — the checksum the
// durability subsystem stamps on every segment-log record and checkpoint
// manifest, and MemoStore on every memoized payload. On x86-64 CPUs with
// SSE4.2, crc32c() runs the hardware crc32 instruction, 8 bytes at a time;
// elsewhere, with -DSLIDER_DISABLE_SIMD=ON, or with SLIDER_SIMD=0 in the
// environment, it runs a byte-wise table loop. Both give the same values.
#pragma once

#include <cstdint>
#include <string_view>

namespace slider {

// Incremental: feed the previous return value back in as `crc` to checksum
// a logically concatenated byte stream. `crc = 0` starts a fresh stream.
std::uint32_t crc32c(std::string_view data, std::uint32_t crc = 0);

// The table loop crc32c() falls back to, callable directly so tests can
// hold the hardware path to it.
std::uint32_t crc32c_portable(std::string_view data, std::uint32_t crc = 0);

}  // namespace slider
