// compile-fail: a SIMD lane without the group-probe kernel must be rejected
// at the container's Ops template parameter with SimdOps in the diagnostic.

#include <cstdint>

#include "hash/dense_map.h"
#include "util/simd.h"

namespace memagg {

struct HalfLane {
  static constexpr const char* Name() { return "half"; }
  // Missing: MatchByteTag/MatchEmpty/FindByte16/FindByte32/MatchKey4.
};

using Broken = DenseMap<uint64_t, NullTracer, HalfLane>;
Broken* unused = nullptr;

}  // namespace memagg
