// Unit and property tests for the tree indexes (paper Section 3.3): ART,
// Judy, Btree, Ttree. Verified against std::map (sorted-order oracle)
// including sorted iteration and range scans.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "mem/allocator.h"
#include "tree/art.h"
#include "tree/btree.h"
#include "tree/judy.h"
#include "tree/ttree.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/tracer.h"

namespace memagg {
namespace {

// The scalar-pinned ART runs the same cases through the reference
// Node16/Node32 scans that the default ART runs through the compiled lane.
using ArtScalar =
    ArtTree<uint64_t, NullTracer, ArenaAllocator, simd::ScalarOps>;
using TreeTypes =
    ::testing::Types<ArtTree<uint64_t>, ArtScalar, JudyArray<uint64_t>,
                     BTree<uint64_t>, TTree<uint64_t>>;

template <typename T>
class TreeTest : public ::testing::Test {};

/// `Tree` with std::vector<uint64_t> values and its other parameters kept.
template <typename Tree>
struct WithVectorValues;
template <template <typename...> class Tree, typename Value,
          typename... Rest>
struct WithVectorValues<Tree<Value, Rest...>> {
  using type = Tree<std::vector<uint64_t>, Rest...>;
};

TYPED_TEST_SUITE(TreeTest, TreeTypes);

TYPED_TEST(TreeTest, EmptyTree) {
  TypeParam tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.Find(1), nullptr);
  size_t visited = 0;
  tree.ForEach([&visited](uint64_t, const uint64_t&) { ++visited; });
  EXPECT_EQ(visited, 0u);
}

TYPED_TEST(TreeTest, InsertAndFind) {
  TypeParam tree;
  tree.GetOrInsert(10) = 100;
  tree.GetOrInsert(20) = 200;
  tree.GetOrInsert(0) = 7;
  EXPECT_EQ(tree.size(), 3u);
  ASSERT_NE(tree.Find(10), nullptr);
  EXPECT_EQ(*tree.Find(10), 100u);
  ASSERT_NE(tree.Find(0), nullptr);
  EXPECT_EQ(*tree.Find(0), 7u);
  EXPECT_EQ(tree.Find(15), nullptr);
  EXPECT_EQ(tree.Find(~0ULL), nullptr);
}

TYPED_TEST(TreeTest, GetOrInsertIsIdempotent) {
  TypeParam tree;
  tree.GetOrInsert(9) = 1;
  tree.GetOrInsert(9) += 1;
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(*tree.Find(9), 2u);
}

TYPED_TEST(TreeTest, IterationIsSorted) {
  TypeParam tree;
  Rng rng(12);
  std::map<uint64_t, uint64_t> reference;
  for (int i = 0; i < 50000; ++i) {
    const uint64_t key = rng.Next();
    tree.GetOrInsert(key) = key * 2;
    reference[key] = key * 2;
  }
  EXPECT_EQ(tree.size(), reference.size());
  std::vector<std::pair<uint64_t, uint64_t>> visited;
  tree.ForEach([&visited](uint64_t key, const uint64_t& value) {
    visited.push_back({key, value});
  });
  ASSERT_EQ(visited.size(), reference.size());
  auto it = reference.begin();
  for (size_t i = 0; i < visited.size(); ++i, ++it) {
    EXPECT_EQ(visited[i].first, it->first) << "position " << i;
    EXPECT_EQ(visited[i].second, it->second) << "position " << i;
  }
}

TYPED_TEST(TreeTest, DenseSequentialKeys) {
  TypeParam tree;
  constexpr uint64_t kCount = 100000;
  for (uint64_t k = 0; k < kCount; ++k) tree.GetOrInsert(k) = k + 1;
  EXPECT_EQ(tree.size(), kCount);
  for (uint64_t k = 0; k < kCount; ++k) {
    ASSERT_NE(tree.Find(k), nullptr) << k;
    EXPECT_EQ(*tree.Find(k), k + 1) << k;
  }
  EXPECT_EQ(tree.Find(kCount), nullptr);
}

TYPED_TEST(TreeTest, SparseHighBitKeys) {
  // Exercises deep prefixes / skip compression in the radix trees.
  TypeParam tree;
  std::vector<uint64_t> keys;
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) keys.push_back(rng.Next());
  keys.push_back(0);
  keys.push_back(~0ULL - 2);  // Stay clear of sentinels used by hash maps.
  for (uint64_t k : keys) tree.GetOrInsert(k) = ~k;
  for (uint64_t k : keys) {
    ASSERT_NE(tree.Find(k), nullptr) << k;
    EXPECT_EQ(*tree.Find(k), ~k) << k;
  }
}

TYPED_TEST(TreeTest, KeysDifferingOnlyInOneByte) {
  TypeParam tree;
  for (int byte = 0; byte < 8; ++byte) {
    for (uint64_t v = 0; v < 256; ++v) {
      tree.GetOrInsert(v << (8 * byte)) = v + 1;
    }
  }
  // 0 is shared across all byte positions: 8 * 256 - 7 duplicates of 0.
  EXPECT_EQ(tree.size(), 8u * 256u - 7u);
  for (int byte = 0; byte < 8; ++byte) {
    for (uint64_t v = 1; v < 256; ++v) {
      ASSERT_NE(tree.Find(v << (8 * byte)), nullptr);
    }
  }
}

TYPED_TEST(TreeTest, RangeScanMatchesReference) {
  TypeParam tree;
  std::map<uint64_t, uint64_t> reference;
  Rng rng(14);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t key = rng.NextBounded(100000);
    tree.GetOrInsert(key) = key;
    reference[key] = key;
  }
  const struct {
    uint64_t lo, hi;
  } ranges[] = {{0, 100000},   {500, 1000},  {0, 0},
                {99999, 99999}, {70000, 30000} /* empty: lo > hi */,
                {50000, 50000}};
  for (const auto& range : ranges) {
    std::vector<uint64_t> got;
    tree.ForEachInRange(range.lo, range.hi,
                        [&got](uint64_t key, const uint64_t&) {
                          got.push_back(key);
                        });
    std::vector<uint64_t> want;
    if (range.lo <= range.hi) {
      for (auto it = reference.lower_bound(range.lo);
           it != reference.end() && it->first <= range.hi; ++it) {
        want.push_back(it->first);
      }
    }
    EXPECT_EQ(got, want) << "range [" << range.lo << ", " << range.hi << "]";
  }
}

TYPED_TEST(TreeTest, RangeScanFullKeySpace) {
  TypeParam tree;
  tree.GetOrInsert(0) = 1;
  tree.GetOrInsert(~0ULL) = 2;
  tree.GetOrInsert(1ULL << 63) = 3;
  std::vector<uint64_t> got;
  tree.ForEachInRange(0, ~0ULL, [&got](uint64_t key, const uint64_t&) {
    got.push_back(key);
  });
  EXPECT_EQ(got, (std::vector<uint64_t>{0, 1ULL << 63, ~0ULL}));
}

TYPED_TEST(TreeTest, VectorValuesSupported) {
  // Holistic aggregation buffers values per group.
  typename WithVectorValues<TypeParam>::type tree;
  Rng rng(15);
  std::map<uint64_t, std::vector<uint64_t>> reference;
  for (int i = 0; i < 30000; ++i) {
    const uint64_t key = rng.NextBounded(100);
    const uint64_t value = rng.Next();
    tree.GetOrInsert(key).push_back(value);
    reference[key].push_back(value);
  }
  EXPECT_EQ(tree.size(), reference.size());
  tree.ForEach([&](uint64_t key, const std::vector<uint64_t>& values) {
    EXPECT_EQ(values, reference.at(key)) << key;
  });
}

TYPED_TEST(TreeTest, MemoryBytesGrowsWithContent) {
  TypeParam tree;
  const size_t before = tree.MemoryBytes();
  for (uint64_t k = 0; k < 10000; ++k) tree.GetOrInsert(k * 37) = k;
  EXPECT_GT(tree.MemoryBytes(), before);
}

// --- Structure-specific tests -----------------------------------------------

TEST(ArtTest, NodeGrowthChain) {
  // Forces Node4 -> Node16 -> Node32 -> Node48 -> Node256 growth at one
  // level.
  ArtTree<uint64_t> tree;
  for (uint64_t b = 0; b < 256; ++b) {
    tree.GetOrInsert(b) = b;
    // Every key so far must stay reachable after each growth step.
    for (uint64_t probe = 0; probe <= b; ++probe) {
      ASSERT_NE(tree.Find(probe), nullptr) << "after inserting " << b;
    }
  }
}

TEST(ArtTest, Node32AppearsInGrowthChain) {
  // 20 children at one level sit in the new Node32 tier (17..32).
  ArtTree<uint64_t> tree;
  for (uint64_t b = 0; b < 20; ++b) tree.GetOrInsert(b) = b;
  const auto stats = tree.ComputeNodeStats();
  EXPECT_EQ(stats.node32, 1u);
  EXPECT_EQ(stats.node48, 0u);
  EXPECT_EQ(stats.inner_nodes(), stats.node32 + stats.node4 + stats.node16 +
                                     stats.node48 + stats.node256);
}

TEST(ArtTest, UnsortedInsertsPreserveOrderAcrossGrowth) {
  // ISSUE 7 satellite: growing 4 -> 16 -> 32 -> 48 with inserts arriving in
  // a hostile order must keep in-order traversal sorted and every child
  // reachable. Node16/Node32 keep sorted key arrays (so straight copies
  // grow correctly); Node48 indexes by byte value. A shuffled byte order
  // exercises the insertion-shift path at every size.
  Rng rng(Rng::kDefaultSeed);
  std::vector<uint64_t> bytes;
  for (uint64_t b = 0; b < 60; ++b) bytes.push_back(b * 4 + 1);
  for (size_t i = bytes.size(); i > 1; --i) {
    std::swap(bytes[i - 1], bytes[rng.NextBounded(i)]);
  }
  ArtTree<uint64_t> tree;
  std::map<uint64_t, uint64_t> reference;
  for (const uint64_t b : bytes) {
    tree.GetOrInsert(b) = b * 10;
    reference[b] = b * 10;
    // Sorted iteration must match the oracle after every growth step.
    std::vector<std::pair<uint64_t, uint64_t>> got;
    tree.ForEach([&got](uint64_t k, const uint64_t& v) {
      got.emplace_back(k, v);
    });
    ASSERT_EQ(got.size(), reference.size());
    auto it = reference.begin();
    for (const auto& [k, v] : got) {
      ASSERT_EQ(k, it->first);
      ASSERT_EQ(v, it->second);
      ++it;
    }
  }
}

TEST(ArtTest, FuzzInsertLookupRoundTrip) {
  // Fuzz-style round-trip (ISSUE 7 satellite): random keys drawn from byte
  // distributions that exercise dense fan-out, deep shared prefixes (up to
  // 7 bytes — the kMaxPrefix ceiling for 8-byte keys), and prefix splits.
  Rng rng(Rng::kDefaultSeed ^ 0xa57);
  for (int round = 0; round < 8; ++round) {
    ArtTree<uint64_t> tree;
    std::map<uint64_t, uint64_t> reference;
    for (int i = 0; i < 4000; ++i) {
      uint64_t key;
      switch (rng.NextBounded(4)) {
        case 0:  // Dense small keys: grows wide low-level nodes.
          key = rng.NextBounded(512);
          break;
        case 1:  // Shared 6..7-byte prefix: max-length compressed paths.
          key = 0xabcdef0123450000ULL | rng.NextBounded(300);
          break;
        case 2:  // Two clusters differing high up: prefix splits.
          key = (rng.NextBounded(2) ? 0x1100000000000000ULL
                                    : 0x2200000000000000ULL) |
                rng.NextBounded(1 << 20);
          break;
        default:  // Uniform random.
          key = rng.Next();
          break;
      }
      if (key == ~0ULL) key = 0;  // Stay clear of map sentinels elsewhere.
      tree.GetOrInsert(key) += 1;
      reference[key] += 1;
    }
    ASSERT_EQ(tree.size(), reference.size());
    // Positive lookups: every reference key, with its aggregated count.
    for (const auto& [key, count] : reference) {
      const uint64_t* found = tree.Find(key);
      ASSERT_NE(found, nullptr) << "key " << key;
      ASSERT_EQ(*found, count);
    }
    // Negative lookups: perturbed keys absent from the reference.
    for (int i = 0; i < 2000; ++i) {
      const uint64_t probe = rng.Next();
      if (reference.count(probe) == 0) {
        ASSERT_EQ(tree.Find(probe), nullptr) << "probe " << probe;
      }
    }
    // Sorted traversal equals the oracle's.
    std::vector<uint64_t> got;
    tree.ForEach([&got](uint64_t k, const uint64_t&) { got.push_back(k); });
    ASSERT_EQ(got.size(), reference.size());
    auto it = reference.begin();
    for (const uint64_t k : got) {
      ASSERT_EQ(k, it->first);
      ++it;
    }
  }
}

TEST(ArtTest, PrefixSplit) {
  ArtTree<uint64_t> tree;
  // Two keys sharing a long prefix force a compressed path...
  tree.GetOrInsert(0x1111111111111100ULL) = 1;
  tree.GetOrInsert(0x1111111111111101ULL) = 2;
  // ...and this key splits that path at byte 3.
  tree.GetOrInsert(0x1111112211111100ULL) = 3;
  EXPECT_EQ(*tree.Find(0x1111111111111100ULL), 1u);
  EXPECT_EQ(*tree.Find(0x1111111111111101ULL), 2u);
  EXPECT_EQ(*tree.Find(0x1111112211111100ULL), 3u);
  EXPECT_EQ(tree.Find(0x1111111111111102ULL), nullptr);
}

TEST(JudyTest, LinearToBitmapBranchGrowth) {
  JudyArray<uint64_t> tree;
  // More than 7 children at the top-level branch byte forces the linear ->
  // bitmap promotion.
  for (uint64_t b = 0; b < 64; ++b) {
    tree.GetOrInsert(b << 56) = b;
    for (uint64_t probe = 0; probe <= b; ++probe) {
      ASSERT_NE(tree.Find(probe << 56), nullptr) << "after " << b;
    }
  }
}

TEST(BtreeTest, LeafChainCoversAllKeysInOrder) {
  BTree<uint64_t> tree;
  Rng rng(16);
  std::map<uint64_t, uint64_t> reference;
  for (int i = 0; i < 100000; ++i) {
    const uint64_t key = rng.NextBounded(1 << 20);
    tree.GetOrInsert(key) = key;
    reference[key] = key;
  }
  uint64_t previous = 0;
  bool first = true;
  size_t count = 0;
  tree.ForEach([&](uint64_t key, const uint64_t&) {
    if (!first) {
      EXPECT_GT(key, previous);
    }
    previous = key;
    first = false;
    ++count;
  });
  EXPECT_EQ(count, reference.size());
}

TEST(TtreeTest, StaysBalancedUnderSequentialInsert) {
  // Sequential inserts are the worst case for unbalanced BSTs; the AVL
  // rotations must keep lookups fast. Completion of this loop in test time
  // is itself the check; correctness is verified by lookups.
  TTree<uint64_t> tree;
  constexpr uint64_t kCount = 200000;
  for (uint64_t k = 0; k < kCount; ++k) tree.GetOrInsert(k) = k;
  for (uint64_t k = 0; k < kCount; k += 997) {
    ASSERT_NE(tree.Find(k), nullptr);
  }
}

TEST(TtreeTest, OverflowDisplacementPreservesEntries) {
  // Insert into the middle of full nodes to force displacement.
  TTree<uint64_t> tree;
  for (uint64_t k = 0; k < 10000; k += 2) tree.GetOrInsert(k) = k;
  for (uint64_t k = 1; k < 10000; k += 2) tree.GetOrInsert(k) = k;
  EXPECT_EQ(tree.size(), 10000u);
  for (uint64_t k = 0; k < 10000; ++k) {
    ASSERT_NE(tree.Find(k), nullptr) << k;
    EXPECT_EQ(*tree.Find(k), k);
  }
}

}  // namespace
}  // namespace memagg
