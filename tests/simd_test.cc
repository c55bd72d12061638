// Lane-equivalence suite for util/simd.h: every SimdOps kernel of the
// compiled lane (simd::DefaultOps) must be bit-identical to the scalar
// oracle on random and adversarial inputs — the vector kernels replace
// scalar loops, so any divergence is a bug in the lane, not a tolerance.
// Runs under ASan/UBSan in CI; a build without SSE2 compiles the scalar
// lane as DefaultOps and skips the comparison.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "hash/hash_fn.h"
#include "util/rng.h"
#include "util/simd.h"

namespace memagg {
namespace {

using simd::kCtrlEmpty;
using simd::kGroupWidth;

// TagOfHash must produce a 7-bit tag: the control-byte scheme reserves the
// sign bit for kCtrlEmpty, and MatchEmpty's vector form reads sign bits.
static_assert(simd::TagOfHash(~0ULL) < 0x80);
static_assert(simd::TagOfHash(0x55aa55aa55aa55aaULL) < 0x80);
static_assert(kCtrlEmpty == 0x80);

/// A control-byte group is valid iff every byte is a 7-bit tag or
/// kCtrlEmpty — the only inputs the maps ever present to the kernels.
std::vector<std::vector<uint8_t>> CtrlGroupCorpus() {
  std::vector<std::vector<uint8_t>> corpus;
  Rng rng(Rng::kDefaultSeed);
  // Random valid groups: tags with scattered empties.
  for (int g = 0; g < 64; ++g) {
    std::vector<uint8_t> group(kGroupWidth);
    for (auto& b : group) {
      b = rng.NextBounded(5) == 0
              ? kCtrlEmpty
              : static_cast<uint8_t>(rng.NextBounded(128));
    }
    corpus.push_back(group);
  }
  // Adversarial shapes.
  corpus.push_back(std::vector<uint8_t>(kGroupWidth, 0x2a));  // All equal.
  corpus.push_back(std::vector<uint8_t>(kGroupWidth, kCtrlEmpty));  // Empty.
  std::vector<uint8_t> fifteen(kGroupWidth, 0x2a);  // 15/16 match.
  fifteen[7] = 0x2b;
  corpus.push_back(fifteen);
  std::vector<uint8_t> last_only(kGroupWidth, 0x01);  // Match in last lane.
  last_only[kGroupWidth - 1] = 0x2a;
  corpus.push_back(last_only);
  std::vector<uint8_t> first_only(kGroupWidth, 0x01);
  first_only[0] = 0x2a;
  corpus.push_back(first_only);
  corpus.push_back(std::vector<uint8_t>(kGroupWidth, 0x00));  // Tag zero.
  return corpus;
}

template <simd::SimdOps Ops>
void CheckGroupKernels() {
  const uint8_t probes[] = {0x00, 0x01, 0x2a, 0x2b, 0x7f};
  for (const auto& group : CtrlGroupCorpus()) {
    for (uint8_t tag : probes) {
      EXPECT_EQ(Ops::MatchByteTag(group.data(), tag),
                simd::ScalarOps::MatchByteTag(group.data(), tag))
          << "tag=" << int(tag);
    }
    EXPECT_EQ(Ops::MatchEmpty(group.data()),
              simd::ScalarOps::MatchEmpty(group.data()));
  }
}

template <simd::SimdOps Ops, size_t N>
void CheckFindByte() {
  Rng rng(Rng::kDefaultSeed ^ N);
  auto run = [](const uint8_t* keys, int count, uint8_t byte) {
    if constexpr (N == 16) return Ops::FindByte16(keys, count, byte);
    else return Ops::FindByte32(keys, count, byte);
  };
  auto oracle = [](const uint8_t* keys, int count, uint8_t byte) {
    if constexpr (N == 16)
      return simd::ScalarOps::FindByte16(keys, count, byte);
    else
      return simd::ScalarOps::FindByte32(keys, count, byte);
  };
  for (int trial = 0; trial < 256; ++trial) {
    uint8_t keys[N];
    for (auto& k : keys) k = static_cast<uint8_t>(rng.NextBounded(256));
    for (int count = 0; count <= static_cast<int>(N); ++count) {
      // Probe a present byte, an absent-ish byte, and the byte just past
      // the count boundary (must not be found).
      const uint8_t probes[] = {
          keys[0], keys[count == 0 ? 0 : count - 1],
          count < static_cast<int>(N) ? keys[count] : uint8_t{0xee},
          uint8_t{0xcd}};
      for (uint8_t byte : probes) {
        EXPECT_EQ(run(keys, count, byte), oracle(keys, count, byte))
            << "N=" << N << " count=" << count << " byte=" << int(byte);
      }
    }
  }
  // All-equal array: first index wins at every count.
  uint8_t same[N];
  std::memset(same, 0x5a, N);
  for (int count = 0; count <= static_cast<int>(N); ++count) {
    EXPECT_EQ(run(same, count, 0x5a), count == 0 ? -1 : 0);
    EXPECT_EQ(run(same, count, 0x5b), -1);
  }
  // Match exactly in the last valid lane.
  uint8_t last[N];
  std::memset(last, 0x11, N);
  last[N - 1] = 0x77;
  EXPECT_EQ(run(last, N, 0x77), static_cast<int>(N) - 1);
  EXPECT_EQ(run(last, N - 1, 0x77), -1);
}

template <simd::SimdOps Ops>
void CheckMatchKey4() {
  Rng rng(Rng::kDefaultSeed + 4);
  for (int trial = 0; trial < 512; ++trial) {
    uint64_t keys[4];
    for (auto& k : keys) {
      switch (rng.NextBounded(4)) {
        case 0: k = kEmptyKey; break;
        case 1: k = rng.NextBounded(4); break;  // Force duplicates.
        default: k = rng.Next(); break;
      }
    }
    const uint64_t probes[] = {keys[0], keys[1], keys[2], keys[3], kEmptyKey,
                               kDeletedKey, rng.Next(), 0};
    for (uint64_t probe : probes) {
      EXPECT_EQ(Ops::MatchKey4(keys, probe),
                simd::ScalarOps::MatchKey4(keys, probe));
    }
  }
  // Match in each individual slot, including the last.
  for (int slot = 0; slot < 4; ++slot) {
    uint64_t keys[4] = {1, 2, 3, 4};
    keys[slot] = 0xdeadbeef;
    EXPECT_EQ(Ops::MatchKey4(keys, 0xdeadbeef), slot);
  }
}

template <simd::SimdOps Ops>
void CheckAllKernels() {
  CheckGroupKernels<Ops>();
  CheckFindByte<Ops, 16>();
  CheckFindByte<Ops, 32>();
  CheckMatchKey4<Ops>();
}

TEST(SimdKernelEquivalence, ScalarSelfConsistent) {
  CheckAllKernels<simd::ScalarOps>();
}

TEST(SimdKernelEquivalence, DefaultLaneMatchesScalar) {
  if constexpr (std::is_same_v<simd::DefaultOps, simd::ScalarOps>) {
    GTEST_SKIP() << "no SSE2: the compiled lane is the scalar oracle";
  }
  CheckAllKernels<simd::DefaultOps>();
}

}  // namespace
}  // namespace memagg
