// Tests for hash/hash_fn.h: HashKey's values are pinned, and HashKeyAlt must
// remain statistically independent of HashKey — cuckoo hashing places every
// key by the pair (HashKey, HashKeyAlt), so a refactor that quietly routes
// both through one mixer would collapse its two tables into one and turn
// the eviction BFS into a livelock. These tests pin the independence with
// numbers, not code inspection.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "hash/hash_fn.h"
#include "util/rng.h"

namespace memagg {
namespace {

constexpr size_t kSamples = 1 << 16;

std::vector<uint64_t> SampleKeys() {
  std::vector<uint64_t> keys(kSamples);
  Rng rng(Rng::kDefaultSeed);
  for (auto& k : keys) k = rng.Next();
  // Structured keys too: small sequential values dominate real group-by
  // columns and are exactly where weak mixers fail.
  for (size_t i = 0; i < kSamples / 4; ++i) keys[i] = i;
  return keys;
}

TEST(HashFnTest, HashKeyValuesArePinned) {
  // Slot placement, probe statistics and every traced hash.* figure follow
  // from these values; a mixer edit must change this table on purpose.
  struct Pin {
    uint64_t key;
    uint64_t hash;
  };
  const Pin pins[] = {
      {0x0000000000000000ULL, 0x0000000000000000ULL},
      {0x0000000000000001ULL, 0xb456bcfc34c2cb2cULL},
      {0x0000000000000002ULL, 0x3abf2a20650683e7ULL},
      {0x000000000000002aULL, 0x810879608e4259ccULL},
      {0x0123456789abcdefULL, 0x87cbfbfe89022ceaULL},
      {0x8000000000000000ULL, 0x8f780810af31a493ULL},
      {kDeletedKey, 0x3a8593886c55a02bULL},
      {kEmptyKey, 0x64b5720b4b825f21ULL},
  };
  for (const Pin& pin : pins) {
    EXPECT_EQ(HashKey(pin.key), pin.hash) << std::hex << "key=" << pin.key;
  }
}

/// Mean avalanche probability: fraction of output bits flipped when one
/// input bit flips, averaged over keys and input bits. Ideal: 0.5.
template <typename HashFn>
double AvalancheRate(HashFn hash, uint64_t seed) {
  Rng rng(seed);
  uint64_t flipped_bits = 0;
  constexpr int kKeys = 2048;
  for (int i = 0; i < kKeys; ++i) {
    const uint64_t key = rng.Next();
    const uint64_t base = hash(key);
    for (int bit = 0; bit < 64; ++bit) {
      flipped_bits += std::popcount(base ^ hash(key ^ (1ULL << bit)));
    }
  }
  return static_cast<double>(flipped_bits) / (64.0 * 64.0 * kKeys);
}

TEST(HashFnTest, HashKeyAvalanches) {
  const double rate = AvalancheRate([](uint64_t k) { return HashKey(k); },
                                    Rng::kDefaultSeed + 3);
  EXPECT_GT(rate, 0.47);
  EXPECT_LT(rate, 0.53);
}

TEST(HashFnTest, HashKeyAltAvalanches) {
  const double rate = AvalancheRate([](uint64_t k) { return HashKeyAlt(k); },
                                    Rng::kDefaultSeed + 4);
  EXPECT_GT(rate, 0.47);
  EXPECT_LT(rate, 0.53);
}

TEST(HashFnTest, AltIsIndependentOfPrimaryPerBit) {
  // If HashKeyAlt were a relabeling of HashKey, some output bit pair would
  // agree (or disagree) nearly always. Independent hashes agree on each bit
  // for ~half the keys.
  const auto keys = SampleKeys();
  int agreements[64] = {};
  for (const uint64_t k : keys) {
    const uint64_t same = ~(HashKey(k) ^ HashKeyAlt(k));
    for (int bit = 0; bit < 64; ++bit) {
      agreements[bit] += static_cast<int>((same >> bit) & 1);
    }
  }
  for (int bit = 0; bit < 64; ++bit) {
    const double rate = static_cast<double>(agreements[bit]) / kSamples;
    EXPECT_GT(rate, 0.45) << "bit " << bit;
    EXPECT_LT(rate, 0.55) << "bit " << bit;
  }
}

TEST(HashFnTest, AltGivesDistinctCuckooBuckets) {
  // The property cuckoo hashing actually needs: the two bucket choices
  // rarely coincide. For a table of 1024 buckets, independent hashes
  // collide with probability 1/1024; assert well under 1%.
  const auto keys = SampleKeys();
  constexpr uint64_t kMask = 1023;
  size_t same_bucket = 0;
  for (const uint64_t k : keys) {
    same_bucket +=
        static_cast<size_t>((HashKey(k) & kMask) == (HashKeyAlt(k) & kMask));
  }
  const double rate = static_cast<double>(same_bucket) / kSamples;
  EXPECT_LT(rate, 0.01);
}

TEST(HashFnTest, SentinelsAreDistinct) {
  // The maps reject both sentinels as keys; HashKeyValuesArePinned pins
  // their hashes like any other value's.
  EXPECT_NE(kEmptyKey, kDeletedKey);
}

}  // namespace
}  // namespace memagg
