// The one switch for every hand-written SIMD path (the flat tier's bulk
// kernels, CRC32C). -DSLIDER_DISABLE_SIMD=ON compiles the x86 paths out;
// SLIDER_SIMD=0 in the environment turns them off at run time. Either way
// the portable loops run, and they compute the same values.
#pragma once

#if !defined(SLIDER_DISABLE_SIMD) && defined(__x86_64__)
#define SLIDER_SIMD_X86 1
#else
#define SLIDER_SIMD_X86 0
#endif

namespace slider {

// False when SLIDER_SIMD=0 is set (read once). Callers still check that
// the CPU has the instructions they use.
bool simd_enabled();

}  // namespace slider
