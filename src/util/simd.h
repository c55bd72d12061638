// SIMD hot-path kernels, one lane fixed at compile time.
//
// The paper's compare-bound inner loops — hash-table tag probing, ART child
// key scans, cuckoo bucket scans — are all "find a byte/word among N"
// problems. This header names those kernels once, behind the `SimdOps`
// concept, and provides two lanes:
//
//   ScalarOps   portable reference loops: the correctness oracle of the
//               lane-equivalence suite, and the lane of any target without
//               SSE2;
//   Sse2Ops     ScalarOps with the byte kernels replaced by 128-bit
//               compare + movemask (SSE2, which every x86-64 target has).
//
// `DefaultOps` is the lane the compiler targets: Sse2Ops when __SSE2__ is
// defined, ScalarOps otherwise. It is the default `Ops` of every container,
// so probe loops call the kernels directly; tests and benchmarks pin
// ScalarOps to compare against it. All raw intrinsics in the repo live in
// this header — astlint's raw-simd-intrinsic rule (tools/astlint/) rejects
// them anywhere outside src/util/simd*.

#ifndef MEMAGG_UTIL_SIMD_H_
#define MEMAGG_UTIL_SIMD_H_

#include <concepts>
#include <cstddef>
#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace memagg {
namespace simd {

/// Width of one control-byte probe group (Swiss-table style): every lane
/// matches 16 tag bytes per step, so scalar and vector probes visit slots in
/// the same group order and place every key in the same slot.
inline constexpr size_t kGroupWidth = 16;

/// Control byte marking an empty slot. Full slots store a 7-bit tag (high
/// bit clear), so "any empty in group" is exactly the sign-bit mask of the
/// group — one movemask in the vector lane.
inline constexpr uint8_t kCtrlEmpty = 0x80;

/// 7-bit tag of a hash for the control-byte array. Uses the top bits; the
/// table index uses the low bits, so tag and position stay independent.
inline constexpr uint8_t TagOfHash(uint64_t hash) {
  return static_cast<uint8_t>(hash >> 57);
}

/// The kernel vocabulary every lane implements.
///
///   MatchByteTag(group, tag)  bitmask (bit i set <=> group[i] == tag) over
///                             one kGroupWidth control-byte group
///   MatchEmpty(group)         bitmask of kCtrlEmpty bytes in the group
///   FindByte16/32(keys, n, b) first index i < n with keys[i] == b, else -1;
///                             may read the full 16/32-byte array (callers
///                             pass fixed-size node arrays)
///   MatchKey4(keys, key)      first slot s < 4 with keys[s] == key, else -1
///                             (cuckoo bucket scan; pass kEmptyKey to find a
///                             free slot)
template <typename T>
concept SimdOps = requires(const uint8_t* group, uint8_t byte, int count,
                           const uint64_t* keys, uint64_t key) {
  { T::Name() } -> std::convertible_to<const char*>;
  { T::MatchByteTag(group, byte) } -> std::same_as<uint32_t>;
  { T::MatchEmpty(group) } -> std::same_as<uint32_t>;
  { T::FindByte16(group, count, byte) } -> std::same_as<int>;
  { T::FindByte32(group, count, byte) } -> std::same_as<int>;
  { T::MatchKey4(keys, key) } -> std::same_as<int>;
};

// --- Scalar lane -------------------------------------------------------------

/// Portable reference lane: the byte/word loops the vector lane replaces.
/// Also the correctness oracle for the lane-equivalence suite.
struct ScalarOps {
  static constexpr const char* Name() { return "scalar"; }

  static uint32_t MatchByteTag(const uint8_t* group, uint8_t tag) {
    uint32_t mask = 0;
    for (size_t i = 0; i < kGroupWidth; ++i) {
      mask |= static_cast<uint32_t>(group[i] == tag) << i;
    }
    return mask;
  }

  static uint32_t MatchEmpty(const uint8_t* group) {
    return MatchByteTag(group, kCtrlEmpty);
  }

  static int FindByte16(const uint8_t* keys, int count, uint8_t byte) {
    for (int i = 0; i < count; ++i) {
      if (keys[i] == byte) return i;
    }
    return -1;
  }

  static int FindByte32(const uint8_t* keys, int count, uint8_t byte) {
    for (int i = 0; i < count; ++i) {
      if (keys[i] == byte) return i;
    }
    return -1;
  }

  /// Every lane uses this loop: a vector compare of the 4-slot bucket lost
  /// to it both in bench_simd and in CuckooMap builds (docs/simd.md).
  static int MatchKey4(const uint64_t* keys, uint64_t key) {
    for (int s = 0; s < 4; ++s) {
      if (keys[s] == key) return s;
    }
    return -1;
  }
};

#if defined(__SSE2__)

// --- SSE2 lane ---------------------------------------------------------------

/// 128-bit kernels: one pcmpeqb+pmovmskb replaces the 16-iteration tag loop
/// and the Node16 scan, two replace the Node32 scan. MatchKey4 is inherited.
struct Sse2Ops : ScalarOps {
  static constexpr const char* Name() { return "sse2"; }

  static uint32_t MatchByteTag(const uint8_t* group, uint8_t tag) {
    const __m128i g =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(group));
    const __m128i eq = _mm_cmpeq_epi8(g, _mm_set1_epi8(static_cast<char>(tag)));
    return static_cast<uint32_t>(_mm_movemask_epi8(eq));
  }

  static uint32_t MatchEmpty(const uint8_t* group) {
    // kCtrlEmpty is the only control byte with the sign bit set, so the
    // empties of a group are exactly its byte-sign mask.
    const __m128i g =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(group));
    return static_cast<uint32_t>(_mm_movemask_epi8(g));
  }

  static int FindByte16(const uint8_t* keys, int count, uint8_t byte) {
    const __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys));
    const __m128i eq =
        _mm_cmpeq_epi8(k, _mm_set1_epi8(static_cast<char>(byte)));
    const uint32_t mask = static_cast<uint32_t>(_mm_movemask_epi8(eq)) &
                          ((count >= 16 ? 0u : 1u << count) - 1u);
    return mask == 0 ? -1 : __builtin_ctz(mask);
  }

  static int FindByte32(const uint8_t* keys, int count, uint8_t byte) {
    const __m128i needle = _mm_set1_epi8(static_cast<char>(byte));
    const __m128i lo =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys));
    const __m128i hi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys + 16));
    const uint32_t mask =
        (static_cast<uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi8(hi, needle)))
         << 16) |
        static_cast<uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi8(lo, needle)));
    const uint32_t bounded =
        mask & (count >= 32 ? ~0u : (1u << count) - 1u);
    return bounded == 0 ? -1 : __builtin_ctz(bounded);
  }
};

/// The lane the compiler targets: the default `Ops` of every container.
using DefaultOps = Sse2Ops;

#else  // !__SSE2__

using DefaultOps = ScalarOps;

#endif  // __SSE2__

static_assert(SimdOps<ScalarOps>);
static_assert(SimdOps<DefaultOps>);

}  // namespace simd
}  // namespace memagg

#endif  // MEMAGG_UTIL_SIMD_H_
