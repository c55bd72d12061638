// Tests for the trace-driven cache/TLB simulator (src/sim/) and the traced
// operator instrumentation behind bench_cache_tlb --mode=sim.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/cache_model.h"
#include "sim/sim_tracer.h"
#include "sim/traced_engine.h"
#include "data/dataset.h"
#include "test_util.h"
#include "util/rng.h"

namespace memagg {
namespace {

TEST(SetAssociativeCacheTest, HitsAfterInsert) {
  SetAssociativeCache cache(4, 2);
  EXPECT_FALSE(cache.Access(1));  // Cold miss.
  EXPECT_TRUE(cache.Access(1));   // Now cached.
}

TEST(SetAssociativeCacheTest, LruEvictionWithinSet) {
  SetAssociativeCache cache(1, 2);  // One set, two ways.
  cache.Access(1);
  cache.Access(2);
  EXPECT_TRUE(cache.Access(1));   // 1 is MRU now, 2 is LRU.
  EXPECT_FALSE(cache.Access(3));  // Evicts 2.
  EXPECT_TRUE(cache.Access(1));
  EXPECT_FALSE(cache.Access(2));  // 2 was evicted.
}

TEST(SetAssociativeCacheTest, SetsAreIndependent) {
  SetAssociativeCache cache(2, 1);
  EXPECT_FALSE(cache.Access(0));  // Set 0.
  EXPECT_FALSE(cache.Access(1));  // Set 1.
  EXPECT_TRUE(cache.Access(0));   // Still resident: different sets.
  EXPECT_TRUE(cache.Access(1));
}

TEST(CacheModelTest, SequentialScanHasOneMissPerLine) {
  CacheModel model;
  std::vector<uint64_t> data(1 << 16);  // 512 KB: larger than L2.
  for (const uint64_t& v : data) model.Access(&v, sizeof(v));
  const CacheSimStats& stats = model.stats();
  // 8 accesses per 64-byte line -> 1/8 of accesses miss L1, none hit twice.
  EXPECT_EQ(stats.accesses, data.size());
  EXPECT_NEAR(static_cast<double>(stats.l1_misses),
              static_cast<double>(data.size()) / 8, data.size() / 64.0);
}

TEST(CacheModelTest, RepeatedSmallWorkingSetStaysCached) {
  CacheModel model;
  std::vector<uint64_t> data(1024);  // 8 KB: fits L1.
  for (int pass = 0; pass < 10; ++pass) {
    for (const uint64_t& v : data) model.Access(&v, sizeof(v));
  }
  // Only the first (cold) pass misses — at every level, since cold misses
  // propagate to the LLC. Nine further passes add nothing.
  EXPECT_LE(model.stats().l1_misses, data.size() / 8 + 16);
  EXPECT_LE(model.stats().llc_misses, data.size() / 8 + 16);
}

TEST(CacheModelTest, HugeRandomWorkingSetMissesLlc) {
  CacheModel model;
  // 64 MB working set, far beyond the 6 MB L3.
  const size_t n = (64u << 20) / sizeof(uint64_t);
  std::vector<uint64_t> data(n);
  Rng rng(71);
  uint64_t llc_baseline = model.stats().llc_misses;
  for (int i = 0; i < 100000; ++i) {
    model.Access(&data[rng.NextBounded(n)], sizeof(uint64_t));
  }
  // Random accesses over 64 MB should miss the LLC most of the time.
  EXPECT_GT(model.stats().llc_misses - llc_baseline, 80000u);
}

TEST(CacheModelTest, TlbMissesOnWidePageSpread) {
  CacheModel model;
  // Touch 4096 distinct pages repeatedly in a pattern wider than both TLBs
  // (64 + 1536 entries).
  const size_t pages = 4096;
  std::vector<char> data(pages * 4096);
  Rng rng(72);
  for (int i = 0; i < 100000; ++i) {
    model.Access(&data[rng.NextBounded(pages) * 4096], 1);
  }
  EXPECT_GT(model.stats().tlb_misses, 30000u);
}

TEST(CacheModelTest, NoTlbMissesWithinOnePage) {
  CacheModel model;
  std::vector<char> data(4096);
  for (int i = 0; i < 10000; ++i) model.Access(&data[i % 4096], 1);
  EXPECT_LE(model.stats().tlb_misses, 2u);  // At most the cold walk(s).
}

TEST(CacheModelTest, StraddlingAccessTouchesTwoLines) {
  CacheModel model;
  alignas(64) char data[128] = {};
  model.Access(&data[60], 8);  // Crosses the line boundary at 64.
  EXPECT_EQ(model.stats().accesses, 2u);
}

TEST(CacheModelTest, ResetStatsClearsCounters) {
  CacheModel model;
  int x = 0;
  model.Access(&x, sizeof(x));
  EXPECT_GT(model.stats().accesses, 0u);
  model.ResetStats();
  EXPECT_EQ(model.stats().accesses, 0u);
}

// --- Traced operators --------------------------------------------------------

TEST(TracedEngineTest, TracedOperatorsProduceCorrectResults) {
  DatasetSpec spec{Distribution::kRseqShuffled, 20000, 128, 73};
  const auto keys = GenerateKeys(spec);
  const auto values = GenerateValues(keys.size(), 1000, 74);
  const auto expected_count =
      ReferenceVectorAggregate(keys, {}, AggregateFunction::kCount);
  const auto expected_median =
      ReferenceVectorAggregate(keys, values, AggregateFunction::kMedian);
  CacheModel model;
  ScopedCacheSim bind(&model);
  for (const std::string& label :
       {std::string("Hash_LP"), std::string("Hash_SC"),
        std::string("Hash_Sparse"), std::string("Hash_Dense"),
        std::string("Hash_LC"), std::string("ART"), std::string("Judy"),
        std::string("Btree"), std::string("Ttree"), std::string("Introsort"),
        std::string("Spreadsort")}) {
    {
      auto aggregator = MakeTracedVectorAggregator(
          label, AggregateFunction::kCount, keys.size());
      aggregator->Build(keys.data(), nullptr, keys.size());
      auto result = aggregator->Iterate();
      SortByKey(result);
      EXPECT_EQ(result, expected_count) << label;
    }
    {
      auto aggregator = MakeTracedVectorAggregator(
          label, AggregateFunction::kMedian, keys.size());
      aggregator->Build(keys.data(), values.data(), keys.size());
      auto result = aggregator->Iterate();
      SortByKey(result);
      EXPECT_EQ(result, expected_median) << label;
    }
  }
  // The traced run must actually have produced traffic.
  EXPECT_GT(model.stats().accesses, keys.size());
}

TEST(TracedEngineDeathTest, OnlyTracedRowsCountingOrMedianConstruct) {
  EXPECT_DEATH(MakeTracedVectorAggregator("Hash_PLocal",
                                          AggregateFunction::kCount, 64),
               "No traced operator");
  EXPECT_DEATH(
      MakeTracedVectorAggregator("Hash_LP", AggregateFunction::kSum, 64),
      "No traced operator");
  EXPECT_DEATH(
      MakeTracedVectorAggregator("Hash_Nope", AggregateFunction::kCount, 64),
      "Unknown algorithm label");
}

TEST(TracedEngineTest, UnboundTracerIsSafe) {
  // With no model bound, traced operators still run (hooks are no-ops).
  auto aggregator =
      MakeTracedVectorAggregator("Hash_LP", AggregateFunction::kCount, 64);
  const std::vector<uint64_t> keys = {1, 2, 1};
  aggregator->Build(keys.data(), nullptr, keys.size());
  EXPECT_EQ(aggregator->Iterate().size(), 2u);
}

TEST(TracedEngineTest, ChainingMissesMoreThanLinearProbingAtHighCardinality) {
  // The paper's locality argument (Section 5.2-5.3): pointer-chasing
  // separate chaining touches more distinct lines than the contiguous
  // linear-probing table. The model must reproduce that ordering.
  DatasetSpec spec{Distribution::kRseqShuffled, 200000, 100000, 75};
  const auto keys = GenerateKeys(spec);
  auto measure = [&](const std::string& label) {
    CacheModel model;
    ScopedCacheSim bind(&model);
    auto aggregator = MakeTracedVectorAggregator(
        label, AggregateFunction::kCount, keys.size());
    aggregator->Build(keys.data(), nullptr, keys.size());
    aggregator->Iterate();
    return model.stats();
  };
  const CacheSimStats lp = measure("Hash_LP");
  const CacheSimStats sc = measure("Hash_SC");
  EXPECT_GT(sc.l1_misses, lp.l1_misses);
}

TEST(TracedEngineTest, LowCardinalityMissesFewerThanHighCardinality) {
  // More groups -> bigger working set -> more misses (Figure 6's low vs
  // high cardinality bars).
  auto measure = [](uint64_t cardinality) {
    DatasetSpec spec{Distribution::kRseqShuffled, 200000, cardinality, 76};
    const auto keys = GenerateKeys(spec);
    CacheModel model;
    ScopedCacheSim bind(&model);
    auto aggregator = MakeTracedVectorAggregator(
        "Hash_LP", AggregateFunction::kCount, keys.size());
    aggregator->Build(keys.data(), nullptr, keys.size());
    aggregator->Iterate();
    return model.stats();
  };
  const CacheSimStats low = measure(1000);
  const CacheSimStats high = measure(100000);
  EXPECT_GT(high.l1_misses, low.l1_misses);
}

}  // namespace
}  // namespace memagg
