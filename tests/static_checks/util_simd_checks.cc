// Pins util/simd.h's lane types to the SimdOps concept. Compiling this TU
// is the test; it has no runtime code.

#include <cstdint>

#include "util/simd.h"

namespace memagg {

// The scalar oracle and the compiled lane both model SimdOps, so any
// container's Ops parameter accepts either.
static_assert(simd::SimdOps<simd::ScalarOps>);
static_assert(simd::SimdOps<simd::DefaultOps>);

// Negative modeling: a lane missing a kernel, or returning the wrong mask
// width, is not a SimdOps.
namespace {

struct MissingMatch {
  static constexpr const char* Name() { return "broken"; }
  // Missing: MatchByteTag and the rest of the kernel vocabulary.
};

struct NarrowMask : simd::ScalarOps {
  // Wrong return type: group masks are uint32_t, not uint16_t (bit 16..31
  // headroom for a future 32-wide group).
  static uint16_t MatchByteTag(const uint8_t*, uint8_t) { return 0; }
};

static_assert(!simd::SimdOps<MissingMatch>);
static_assert(!simd::SimdOps<NarrowMask>);

}  // namespace

// The control-byte scheme's two load-bearing constants.
static_assert(simd::kGroupWidth == 16);
static_assert(simd::kCtrlEmpty == 0x80);

}  // namespace memagg
