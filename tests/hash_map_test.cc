// Unit and property tests for the serial hash tables (paper Section 3.2):
// Hash_LP, Hash_SC, Hash_Sparse, Hash_Dense, Hash_LC (single-threaded use).
// All tables are verified against std::unordered_map across workloads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "hash/chaining_map.h"
#include "hash/cuckoo_map.h"
#include "hash/dense_map.h"
#include "hash/linear_probing_map.h"
#include "hash/sparse_map.h"
#include "util/prime.h"
#include "util/rng.h"
#include "util/simd.h"

namespace memagg {
namespace {

using MapTypes =
    ::testing::Types<LinearProbingMap<uint64_t>, ChainingMap<uint64_t>,
                     SparseMap<uint64_t>, DenseMap<uint64_t>,
                     CuckooMap<uint64_t>>;

template <typename T>
class HashMapTest : public ::testing::Test {};

TYPED_TEST_SUITE(HashMapTest, MapTypes);

TYPED_TEST(HashMapTest, EmptyMap) {
  TypeParam map(16);
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.Find(1), nullptr);
  size_t visited = 0;
  map.ForEach([&visited](uint64_t, const uint64_t&) { ++visited; });
  EXPECT_EQ(visited, 0u);
}

TYPED_TEST(HashMapTest, InsertAndFind) {
  TypeParam map(16);
  map.GetOrInsert(5) = 50;
  map.GetOrInsert(7) = 70;
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.Find(5), nullptr);
  EXPECT_EQ(*map.Find(5), 50u);
  ASSERT_NE(map.Find(7), nullptr);
  EXPECT_EQ(*map.Find(7), 70u);
  EXPECT_EQ(map.Find(6), nullptr);
}

TYPED_TEST(HashMapTest, GetOrInsertIsIdempotent) {
  TypeParam map(16);
  map.GetOrInsert(9) = 1;
  map.GetOrInsert(9) += 1;
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.Find(9), 2u);
}

TYPED_TEST(HashMapTest, ZeroKeySupported) {
  TypeParam map(16);
  map.GetOrInsert(0) = 123;
  ASSERT_NE(map.Find(0), nullptr);
  EXPECT_EQ(*map.Find(0), 123u);
}

TYPED_TEST(HashMapTest, GrowsFarBeyondExpectedSize) {
  // Deliberately undersized: exercises rehash/displacement paths.
  TypeParam map(4);
  constexpr uint64_t kCount = 50000;
  for (uint64_t k = 0; k < kCount; ++k) {
    map.GetOrInsert(k) = k * 3;
  }
  EXPECT_EQ(map.size(), kCount);
  for (uint64_t k = 0; k < kCount; ++k) {
    ASSERT_NE(map.Find(k), nullptr) << k;
    EXPECT_EQ(*map.Find(k), k * 3) << k;
  }
  EXPECT_EQ(map.Find(kCount), nullptr);
}

TYPED_TEST(HashMapTest, MatchesReferenceOnRandomWorkload) {
  TypeParam map(1024);
  std::unordered_map<uint64_t, uint64_t> reference;
  Rng rng(10);
  for (int i = 0; i < 200000; ++i) {
    const uint64_t key = rng.NextBounded(5000);
    ++map.GetOrInsert(key);
    ++reference[key];
  }
  EXPECT_EQ(map.size(), reference.size());
  size_t visited = 0;
  map.ForEach([&](uint64_t key, const uint64_t& value) {
    ++visited;
    auto it = reference.find(key);
    ASSERT_NE(it, reference.end()) << key;
    EXPECT_EQ(value, it->second) << key;
  });
  EXPECT_EQ(visited, reference.size());
}

TYPED_TEST(HashMapTest, AdversarialKeysSameLowBits) {
  // Keys sharing low bits before hashing; the mixer must spread them.
  TypeParam map(64);
  constexpr uint64_t kCount = 20000;
  for (uint64_t i = 0; i < kCount; ++i) {
    map.GetOrInsert(i << 20) = i;
  }
  EXPECT_EQ(map.size(), kCount);
  for (uint64_t i = 0; i < kCount; ++i) {
    ASSERT_NE(map.Find(i << 20), nullptr);
    EXPECT_EQ(*map.Find(i << 20), i);
  }
}

TYPED_TEST(HashMapTest, VectorValuesSupported) {
  // Holistic aggregation stores per-group buffers: values must support
  // non-trivial types.
  using ValueMap = typename std::conditional<
      std::is_same<TypeParam, LinearProbingMap<uint64_t>>::value,
      LinearProbingMap<std::vector<uint64_t>>,
      typename std::conditional<
          std::is_same<TypeParam, ChainingMap<uint64_t>>::value,
          ChainingMap<std::vector<uint64_t>>,
          typename std::conditional<
              std::is_same<TypeParam, SparseMap<uint64_t>>::value,
              SparseMap<std::vector<uint64_t>>,
              typename std::conditional<
                  std::is_same<TypeParam, DenseMap<uint64_t>>::value,
                  DenseMap<std::vector<uint64_t>>,
                  CuckooMap<std::vector<uint64_t>>>::type>::type>::type>::type;
  ValueMap map(8);
  Rng rng(11);
  std::map<uint64_t, std::vector<uint64_t>> reference;
  for (int i = 0; i < 30000; ++i) {
    const uint64_t key = rng.NextBounded(50);
    const uint64_t value = rng.Next();
    map.GetOrInsert(key).push_back(value);
    reference[key].push_back(value);
  }
  EXPECT_EQ(map.size(), reference.size());
  map.ForEach([&](uint64_t key, const std::vector<uint64_t>& values) {
    // Order within a group may differ across tables after rehash; compare
    // sorted.
    auto got = values;
    auto want = reference.at(key);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << key;
  });
}

TYPED_TEST(HashMapTest, MemoryBytesGrowsWithContent) {
  TypeParam map(16);
  const size_t before = map.MemoryBytes();
  for (uint64_t k = 0; k < 10000; ++k) map.GetOrInsert(k) = k;
  EXPECT_GT(map.MemoryBytes(), before);
}

// --- Table-specific behaviour ----------------------------------------------

TEST(LinearProbingTest, PowerOfTwoCapacity) {
  LinearProbingMap<uint64_t> map(1000);
  EXPECT_TRUE((map.capacity() & (map.capacity() - 1)) == 0);
  EXPECT_GE(map.capacity(), 1001u);
}

TEST(LinearProbingTest, PrimeSizingPolicy) {
  LinearProbingMap<uint64_t> map(1000, SizingPolicy::kPrime);
  EXPECT_TRUE(IsPrime(map.capacity()));
  for (uint64_t k = 0; k < 5000; ++k) map.GetOrInsert(k) = k;
  EXPECT_EQ(map.size(), 5000u);
  for (uint64_t k = 0; k < 5000; ++k) {
    ASSERT_NE(map.Find(k), nullptr);
    EXPECT_EQ(*map.Find(k), k);
  }
}

TEST(LinearProbingTest, ExactSizingPolicy) {
  LinearProbingMap<uint64_t> map(1000, SizingPolicy::kExact);
  for (uint64_t k = 0; k < 500; ++k) map.GetOrInsert(k) = k;
  EXPECT_EQ(map.size(), 500u);
  for (uint64_t k = 0; k < 500; ++k) {
    ASSERT_NE(map.Find(k), nullptr);
  }
}

TEST(DenseMapTest, CapacityStaysPowerOfTwo) {
  DenseMap<uint64_t> map(10);
  for (uint64_t k = 0; k < 10000; ++k) map.GetOrInsert(k) = k;
  EXPECT_TRUE((map.capacity() & (map.capacity() - 1)) == 0);
}

TEST(SparseMapTest, MemoryFootprintSmallerThanDense) {
  // The defining sparsehash property: at equal content, sparse tables carry
  // far less slack than dense tables.
  constexpr size_t kExpected = 1 << 16;
  SparseMap<uint64_t> sparse(kExpected);
  DenseMap<uint64_t> dense(kExpected);
  for (uint64_t k = 0; k < 1000; ++k) {
    sparse.GetOrInsert(k) = k;
    dense.GetOrInsert(k) = k;
  }
  EXPECT_LT(sparse.MemoryBytes(), dense.MemoryBytes() / 4);
}

TEST(CuckooMapTest, UpsertInsertsAndUpdates) {
  CuckooMap<uint64_t> map(64);
  map.Upsert(3, [](uint64_t& v) { v += 5; });
  map.Upsert(3, [](uint64_t& v) { v += 5; });
  ASSERT_NE(map.Find(3), nullptr);
  EXPECT_EQ(*map.Find(3), 10u);
  EXPECT_EQ(map.size(), 1u);
}

TEST(CuckooMapTest, ContainsAndWithValue) {
  CuckooMap<uint64_t> map(64);
  map.GetOrInsert(11) = 42;
  EXPECT_TRUE(map.Contains(11));
  EXPECT_FALSE(map.Contains(12));
  uint64_t seen = 0;
  EXPECT_TRUE(map.WithValue(11, [&seen](uint64_t& v) { seen = v; }));
  EXPECT_EQ(seen, 42u);
  EXPECT_FALSE(map.WithValue(12, [](uint64_t&) {}));
}

TEST(ChainingMapTest, BucketCountIsPrime) {
  ChainingMap<uint64_t> map(1000);
  EXPECT_TRUE(IsPrime(map.bucket_count()));
}

// --- Sentinel-key regression tests (ISSUE 7 satellite) ----------------------
// The open-addressing tables reserve kEmptyKey to mark free slots. Inserting
// it used to be a debug-only DCHECK — in release builds the key silently
// aliased every empty slot (a lookup "finds" it anywhere, an insert corrupts
// occupancy). It now fails loudly in all build modes.

TEST(SentinelKeyDeathTest, DenseMapInsertRejectsEmptyKey) {
  DenseMap<uint64_t> map(16);
  EXPECT_DEATH(map.GetOrInsert(kEmptyKey), "kEmptyKey");
}

TEST(SentinelKeyDeathTest, DenseMapFindRejectsEmptyKey) {
  DenseMap<uint64_t> map(16);
  map.GetOrInsert(1) = 10;
  EXPECT_DEATH(map.Find(kEmptyKey), "kEmptyKey");
}

TEST(SentinelKeyDeathTest, LinearProbingInsertRejectsEmptyKey) {
  LinearProbingMap<uint64_t> map(16);
  EXPECT_DEATH(map.GetOrInsert(kEmptyKey), "kEmptyKey");
}

TEST(SentinelKeyDeathTest, LinearProbingFindRejectsEmptyKey) {
  LinearProbingMap<uint64_t> map(16);
  map.GetOrInsert(1) = 10;
  EXPECT_DEATH(map.Find(kEmptyKey), "kEmptyKey");
}

TEST(SentinelKeyDeathTest, CuckooUpsertRejectsEmptyKey) {
  CuckooMap<uint64_t> map(16);
  EXPECT_DEATH(map.Upsert(kEmptyKey, [](uint64_t& v) { v = 1; }),
               "kEmptyKey");
}

TYPED_TEST(HashMapTest, DeletedSentinelIsAnOrdinaryKey) {
  // None of the serial maps support erase, so kDeletedKey is just a large
  // key value — it must round-trip like any other and not collide with the
  // empty sentinel's handling.
  TypeParam map(16);
  map.GetOrInsert(kDeletedKey) = 42;
  map.GetOrInsert(kDeletedKey - 1) = 43;
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.Find(kDeletedKey), nullptr);
  EXPECT_EQ(*map.Find(kDeletedKey), 42u);
  ASSERT_NE(map.Find(kDeletedKey - 1), nullptr);
  EXPECT_EQ(*map.Find(kDeletedKey - 1), 43u);
}

// --- Probe-lane ablation: explicit SimdOps pins must agree -------------------
// The maps' Ops parameter exists so benchmarks can pin a lane; the pinned
// variants must be drop-in equivalent on real workloads (the kernel-level
// equivalence lives in simd_test.cc; this covers the map-level wiring:
// group loops, wrap-around, control-byte updates through rebuilds).

template <typename Map>
void FillAndCheck(Map& map) {
  Rng rng(Rng::kDefaultSeed + 7);
  std::unordered_map<uint64_t, uint64_t> reference;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t key = rng.NextBounded(8192);
    map.GetOrInsert(key) += 1;
    reference[key] += 1;
  }
  ASSERT_EQ(map.size(), reference.size());
  for (const auto& [key, count] : reference) {
    const uint64_t* found = map.Find(key);
    ASSERT_NE(found, nullptr);
    ASSERT_EQ(*found, count);
  }
}

TEST(ProbeLaneTest, LinearProbingScalarLane) {
  LinearProbingMap<uint64_t, NullTracer, ArenaAllocator, simd::ScalarOps> map(
      4);
  FillAndCheck(map);
}

TEST(ProbeLaneTest, LinearProbingDefaultLanePrimeSizing) {
  // Prime capacities exercise the modular mirror tail and non-pow2 wrap.
  LinearProbingMap<uint64_t> map(3, SizingPolicy::kPrime);
  FillAndCheck(map);
  EXPECT_TRUE(IsPrime(map.capacity()));
}

TEST(ProbeLaneTest, LinearProbingScalarLaneExactSizing) {
  LinearProbingMap<uint64_t, NullTracer, ArenaAllocator, simd::ScalarOps> map(
      5, SizingPolicy::kExact);
  FillAndCheck(map);
}

TEST(ProbeLaneTest, DenseMapScalarLane) {
  DenseMap<uint64_t, NullTracer, simd::ScalarOps> map(4);
  FillAndCheck(map);
}

TEST(ProbeLaneTest, CuckooScalarLane) {
  CuckooMap<uint64_t, NullTracer, simd::ScalarOps> map(4);
  Rng rng(Rng::kDefaultSeed + 9);
  std::unordered_map<uint64_t, uint64_t> reference;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t key = rng.NextBounded(8192);
    map.Upsert(key, [](uint64_t& v) { v += 1; });
    reference[key] += 1;
  }
  ASSERT_EQ(map.size(), reference.size());
  for (const auto& [key, count] : reference) {
    const uint64_t* found = map.Find(key);
    ASSERT_NE(found, nullptr);
    ASSERT_EQ(*found, count);
  }
}

TEST(ProbeLaneTest, ProbeStatsMatchScalarPlacement) {
  // Group probing must preserve the exact slot placement of the scalar
  // linear probe (the displacement histogram is observable via
  // ComputeProbeStats and asserted on by the stats layer).
  LinearProbingMap<uint64_t, NullTracer, ArenaAllocator, simd::ScalarOps>
      scalar(64);
  LinearProbingMap<uint64_t> dispatch(64);
  Rng rng(Rng::kDefaultSeed + 11);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t key = rng.NextBounded(4096);
    scalar.GetOrInsert(key) = key;
    dispatch.GetOrInsert(key) = key;
  }
  const auto s = scalar.ComputeProbeStats();
  const auto d = dispatch.ComputeProbeStats();
  EXPECT_EQ(s.entries, d.entries);
  EXPECT_EQ(s.max_probe, d.max_probe);
  EXPECT_EQ(s.total_probes, d.total_probes);
}

}  // namespace
}  // namespace memagg
