#include "common/simd_gate.h"

#include <cstdlib>

namespace slider {

bool simd_enabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("SLIDER_SIMD");
    return !(env != nullptr && env[0] == '0' && env[1] == '\0');
  }();
  return enabled;
}

}  // namespace slider
