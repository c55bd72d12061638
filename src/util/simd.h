// SIMD hot-path kernels with runtime lane dispatch.
//
// The paper's compare-bound inner loops — hash-table tag probing, ART child
// key scans, cuckoo bucket scans — are all "find a byte/word among N"
// problems that vectorize directly, as does hashing a run of keys. This
// header names those kernels once, behind the `SimdOps` concept, and
// provides three interchangeable lanes:
//
//   ScalarOps   portable reference loops (also the ablation baseline),
//   Sse42Ops    128-bit kernels (SSE4.2-and-below instructions),
//   Avx2Ops     256-bit kernels where width pays (Node32 scan, 4-wide
//               bucket compare, 4-wide batch hash); 128-bit otherwise.
//
// `DispatchOps` models the same concept but resolves to the widest lane the
// CPU supports, selected once via CPUID on first use (override with the
// MEMAGG_SIMD=scalar|sse42|avx2 environment variable — see docs/simd.md).
// Data structures take a `SimdOps Ops` template parameter defaulting to
// DispatchOps, so benchmarks and the lane-equivalence suite can pin any
// lane explicitly while production code tracks the hardware.
//
// The non-scalar lanes carry GCC/Clang `target` attributes, so every lane
// compiles regardless of -m flags (the -mno-avx2 CI job proves it); only
// dispatch decides what runs. All raw intrinsics in the repo live in this
// header — tools/lint_invariants.py (rule raw-simd-intrinsic) rejects them
// anywhere outside src/util/simd*.

#ifndef MEMAGG_UTIL_SIMD_H_
#define MEMAGG_UTIL_SIMD_H_

#include <concepts>
#include <cstddef>
#include <cstdint>

#include "util/macros.h"

#if defined(__x86_64__) || defined(__i386__)
#define MEMAGG_SIMD_X86 1
#include <immintrin.h>
#else
#define MEMAGG_SIMD_X86 0
#endif

namespace memagg {
namespace simd {

/// Implementation lane of a SimdOps model.
enum class SimdLane : uint8_t { kScalar = 0, kSse42 = 1, kAvx2 = 2 };

/// Width of one control-byte probe group (Swiss-table style): all lanes
/// match 16 tag bytes per step, so scalar and vector probes visit slots in
/// the same group order and tables stay lane-portable on disk and in tests.
inline constexpr size_t kGroupWidth = 16;

/// Control byte marking an empty slot. Full slots store a 7-bit tag (high
/// bit clear), so "any empty in group" is exactly the sign-bit mask of the
/// group — one movemask in the vector lanes.
inline constexpr uint8_t kCtrlEmpty = 0x80;

/// 7-bit tag of a hash for the control-byte array. Uses the top bits; the
/// table index uses the low bits, so tag and position stay independent.
inline constexpr uint8_t TagOfHash(uint64_t hash) {
  return static_cast<uint8_t>(hash >> 57);
}

/// The 64-bit finalizer mix behind HashKey (hash/hash_fn.h delegates here).
/// The vector lanes re-express these exact constants 2- and 4-wide; the
/// lane-equivalence suite (tests/simd_test.cc) pins them bit-identical.
inline constexpr uint64_t kHashMulA = 0xff51afd7ed558ccdULL;
inline constexpr uint64_t kHashMulB = 0xc4ceb9fe1a85ec53ULL;

inline uint64_t HashMix64(uint64_t key) {
  uint64_t h = key;
  h ^= h >> 33;
  h *= kHashMulA;
  h ^= h >> 33;
  h *= kHashMulB;
  h ^= h >> 33;
  return h;
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
///   HashBatch(keys, n, out)   out[i] = HashMix64(keys[i]) for i < n
template <typename T>
concept SimdOps =
    requires(const uint8_t* group, uint8_t byte, int count,
             const uint64_t* keys, uint64_t key, size_t n, uint64_t* out) {
      { T::Lane() } -> std::convertible_to<SimdLane>;
      { T::Name() } -> std::convertible_to<const char*>;
      { T::MatchByteTag(group, byte) } -> std::same_as<uint32_t>;
      { T::MatchEmpty(group) } -> std::same_as<uint32_t>;
      { T::FindByte16(group, count, byte) } -> std::same_as<int>;
      { T::FindByte32(group, count, byte) } -> std::same_as<int>;
      { T::MatchKey4(keys, key) } -> std::same_as<int>;
      T::HashBatch(keys, n, out);
    };

// --- Scalar lane -------------------------------------------------------------

/// Portable reference lane: the byte/word loops the vector lanes replace.
/// Also the correctness oracle for the lane-equivalence suite.
struct ScalarOps {
  static constexpr SimdLane Lane() { return SimdLane::kScalar; }
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

  static int MatchKey4(const uint64_t* keys, uint64_t key) {
    for (int s = 0; s < 4; ++s) {
      if (keys[s] == key) return s;
    }
    return -1;
  }

  static void HashBatch(const uint64_t* keys, size_t n, uint64_t* out) {
    for (size_t i = 0; i < n; ++i) out[i] = HashMix64(keys[i]);
  }
};

#if MEMAGG_SIMD_X86

#define MEMAGG_TARGET_SSE42 __attribute__((target("sse4.2")))
#define MEMAGG_TARGET_AVX2 __attribute__((target("avx2")))

// --- SSE4.2 lane -------------------------------------------------------------

/// 128-bit kernels. One pcmpeqb+pmovmskb replaces the 16-iteration tag
/// loop; pcmpeqq pairs replace the 4-slot bucket walk; the batch hash runs
/// two mixes per step (64-bit low-multiply decomposed into pmuludq).
struct Sse42Ops {
  static constexpr SimdLane Lane() { return SimdLane::kSse42; }
  static constexpr const char* Name() { return "sse42"; }

  MEMAGG_TARGET_SSE42
  static uint32_t MatchByteTag(const uint8_t* group, uint8_t tag) {
    const __m128i g =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(group));
    const __m128i eq = _mm_cmpeq_epi8(g, _mm_set1_epi8(static_cast<char>(tag)));
    return static_cast<uint32_t>(_mm_movemask_epi8(eq));
  }

  MEMAGG_TARGET_SSE42
  static uint32_t MatchEmpty(const uint8_t* group) {
    // kCtrlEmpty is the only control byte with the sign bit set, so the
    // empties of a group are exactly its byte-sign mask.
    const __m128i g =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(group));
    return static_cast<uint32_t>(_mm_movemask_epi8(g));
  }

  MEMAGG_TARGET_SSE42
  static int FindByte16(const uint8_t* keys, int count, uint8_t byte) {
    const __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys));
    const __m128i eq =
        _mm_cmpeq_epi8(k, _mm_set1_epi8(static_cast<char>(byte)));
    const uint32_t mask = static_cast<uint32_t>(_mm_movemask_epi8(eq)) &
                          ((count >= 16 ? 0u : 1u << count) - 1u);
    return mask == 0 ? -1 : __builtin_ctz(mask);
  }

  MEMAGG_TARGET_SSE42
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

  MEMAGG_TARGET_SSE42
  static int MatchKey4(const uint64_t* keys, uint64_t key) {
    const __m128i needle = _mm_set1_epi64x(static_cast<long long>(key));
    const __m128i lo =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys));
    const __m128i hi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys + 2));
    const uint32_t mask =
        (static_cast<uint32_t>(
             _mm_movemask_pd(_mm_castsi128_pd(_mm_cmpeq_epi64(hi, needle))))
         << 2) |
        static_cast<uint32_t>(
            _mm_movemask_pd(_mm_castsi128_pd(_mm_cmpeq_epi64(lo, needle))));
    return mask == 0 ? -1 : __builtin_ctz(mask);
  }

  MEMAGG_TARGET_SSE42
  static void HashBatch(const uint64_t* keys, size_t n, uint64_t* out) {
    size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      __m128i h = _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys + i));
      h = _mm_xor_si128(h, _mm_srli_epi64(h, 33));
      h = MulLo64(h, _mm_set1_epi64x(static_cast<long long>(kHashMulA)));
      h = _mm_xor_si128(h, _mm_srli_epi64(h, 33));
      h = MulLo64(h, _mm_set1_epi64x(static_cast<long long>(kHashMulB)));
      h = _mm_xor_si128(h, _mm_srli_epi64(h, 33));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), h);
    }
    for (; i < n; ++i) out[i] = HashMix64(keys[i]);
  }

 private:
  /// 64-bit low-half multiply from 32-bit multiplies (no pmullq below
  /// AVX-512): a*b = lo(a)lo(b) + ((lo(a)hi(b) + hi(a)lo(b)) << 32).
  MEMAGG_TARGET_SSE42
  static __m128i MulLo64(__m128i a, __m128i b) {
    const __m128i lolo = _mm_mul_epu32(a, b);
    const __m128i lohi = _mm_mul_epu32(a, _mm_srli_epi64(b, 32));
    const __m128i hilo = _mm_mul_epu32(_mm_srli_epi64(a, 32), b);
    return _mm_add_epi64(
        lolo, _mm_slli_epi64(_mm_add_epi64(lohi, hilo), 32));
  }
};

// --- AVX2 lane ---------------------------------------------------------------

/// 256-bit kernels where the extra width pays: one-shot Node32 scans, the
/// whole 4-slot cuckoo bucket in one vpcmpeqq, and a 4-wide batch hash.
/// Group-tag probing stays 128-bit (the group is 16 bytes by design), but
/// compiles VEX-encoded under this lane's target.
struct Avx2Ops {
  static constexpr SimdLane Lane() { return SimdLane::kAvx2; }
  static constexpr const char* Name() { return "avx2"; }

  MEMAGG_TARGET_AVX2
  static uint32_t MatchByteTag(const uint8_t* group, uint8_t tag) {
    const __m128i g =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(group));
    const __m128i eq = _mm_cmpeq_epi8(g, _mm_set1_epi8(static_cast<char>(tag)));
    return static_cast<uint32_t>(_mm_movemask_epi8(eq));
  }

  MEMAGG_TARGET_AVX2
  static uint32_t MatchEmpty(const uint8_t* group) {
    const __m128i g =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(group));
    return static_cast<uint32_t>(_mm_movemask_epi8(g));
  }

  MEMAGG_TARGET_AVX2
  static int FindByte16(const uint8_t* keys, int count, uint8_t byte) {
    const __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys));
    const __m128i eq =
        _mm_cmpeq_epi8(k, _mm_set1_epi8(static_cast<char>(byte)));
    const uint32_t mask = static_cast<uint32_t>(_mm_movemask_epi8(eq)) &
                          ((count >= 16 ? 0u : 1u << count) - 1u);
    return mask == 0 ? -1 : __builtin_ctz(mask);
  }

  MEMAGG_TARGET_AVX2
  static int FindByte32(const uint8_t* keys, int count, uint8_t byte) {
    const __m256i k =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys));
    const __m256i eq =
        _mm256_cmpeq_epi8(k, _mm256_set1_epi8(static_cast<char>(byte)));
    const uint32_t mask = static_cast<uint32_t>(_mm256_movemask_epi8(eq)) &
                          (count >= 32 ? ~0u : (1u << count) - 1u);
    return mask == 0 ? -1 : __builtin_ctz(mask);
  }

  MEMAGG_TARGET_AVX2
  static int MatchKey4(const uint64_t* keys, uint64_t key) {
    const __m256i bucket =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys));
    const __m256i eq = _mm256_cmpeq_epi64(
        bucket, _mm256_set1_epi64x(static_cast<long long>(key)));
    const uint32_t mask = static_cast<uint32_t>(
        _mm256_movemask_pd(_mm256_castsi256_pd(eq)));
    return mask == 0 ? -1 : __builtin_ctz(mask);
  }

  MEMAGG_TARGET_AVX2
  static void HashBatch(const uint64_t* keys, size_t n, uint64_t* out) {
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      __m256i h =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
      h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 33));
      h = MulLo64(h, _mm256_set1_epi64x(static_cast<long long>(kHashMulA)));
      h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 33));
      h = MulLo64(h, _mm256_set1_epi64x(static_cast<long long>(kHashMulB)));
      h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 33));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), h);
    }
    for (; i < n; ++i) out[i] = HashMix64(keys[i]);
  }

 private:
  MEMAGG_TARGET_AVX2
  static __m256i MulLo64(__m256i a, __m256i b) {
    const __m256i lolo = _mm256_mul_epu32(a, b);
    const __m256i lohi = _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32));
    const __m256i hilo = _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b);
    return _mm256_add_epi64(
        lolo, _mm256_slli_epi64(_mm256_add_epi64(lohi, hilo), 32));
  }
};

#undef MEMAGG_TARGET_SSE42
#undef MEMAGG_TARGET_AVX2

#else  // !MEMAGG_SIMD_X86

/// Non-x86 builds: the vector lanes exist (so lane-parameterized code and
/// the concept checks compile everywhere) but run the scalar loops;
/// SimdLaneSupported() reports them unavailable so dispatch never picks one.
struct Sse42Ops : ScalarOps {
  static constexpr SimdLane Lane() { return SimdLane::kSse42; }
  static constexpr const char* Name() { return "sse42"; }
};

struct Avx2Ops : ScalarOps {
  static constexpr SimdLane Lane() { return SimdLane::kAvx2; }
  static constexpr const char* Name() { return "avx2"; }
};

#endif  // MEMAGG_SIMD_X86

// --- Runtime dispatch --------------------------------------------------------

/// Function-pointer table behind DispatchOps. One table per lane; selection
/// happens once (CPUID + the MEMAGG_SIMD override) in util/simd.cc.
struct SimdDispatchTable {
  SimdLane lane;
  const char* name;
  uint32_t (*match_byte_tag)(const uint8_t*, uint8_t);
  uint32_t (*match_empty)(const uint8_t*);
  int (*find_byte16)(const uint8_t*, int, uint8_t);
  int (*find_byte32)(const uint8_t*, int, uint8_t);
  int (*match_key4)(const uint64_t*, uint64_t);
  void (*hash_batch)(const uint64_t*, size_t, uint64_t*);
};

/// The active lane's table, selected once on first use: the widest lane
/// CPUID reports, unless MEMAGG_SIMD=scalar|sse42|avx2 forces one (forcing
/// an unsupported lane falls back to the widest supported, with a warning).
const SimdDispatchTable& ActiveSimd();

/// True if this machine can run `lane` (kScalar is always true).
bool SimdLaneSupported(SimdLane lane);

/// Human-readable lane name ("scalar", "sse42", "avx2").
const char* SimdLaneName(SimdLane lane);

/// The default SimdOps model: forwards every kernel through the
/// once-selected dispatch table. Hot loops pay one predicted indirect call
/// per 16-wide group — amortized across the lanes' 16x wider compares.
struct DispatchOps {
  static SimdLane Lane() { return ActiveSimd().lane; }
  static const char* Name() { return ActiveSimd().name; }

  static uint32_t MatchByteTag(const uint8_t* group, uint8_t tag) {
    return ActiveSimd().match_byte_tag(group, tag);
  }
  static uint32_t MatchEmpty(const uint8_t* group) {
    return ActiveSimd().match_empty(group);
  }
  static int FindByte16(const uint8_t* keys, int count, uint8_t byte) {
    return ActiveSimd().find_byte16(keys, count, byte);
  }
  static int FindByte32(const uint8_t* keys, int count, uint8_t byte) {
    return ActiveSimd().find_byte32(keys, count, byte);
  }
  static int MatchKey4(const uint64_t* keys, uint64_t key) {
    return ActiveSimd().match_key4(keys, key);
  }
  static void HashBatch(const uint64_t* keys, size_t n, uint64_t* out) {
    ActiveSimd().hash_batch(keys, n, out);
  }
};

static_assert(SimdOps<ScalarOps>);
static_assert(SimdOps<Sse42Ops>);
static_assert(SimdOps<Avx2Ops>);
static_assert(SimdOps<DispatchOps>);

}  // namespace simd
}  // namespace memagg

#endif  // MEMAGG_UTIL_SIMD_H_
