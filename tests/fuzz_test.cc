// Randomized differential testing: many small random workloads (random
// sizes, key ranges, value ranges, duplicates, extreme keys) run through
// every registry row (AllLabels()) and every aggregate function, checked
// against the naive reference. Catches interactions the structured suites
// miss.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/aggregate.h"
#include "core/engine.h"
#include "test_util.h"
#include "util/rng.h"

namespace memagg {
namespace {

struct RandomWorkload {
  std::vector<uint64_t> keys;
  std::vector<uint64_t> values;
};

RandomWorkload MakeWorkload(Rng& rng) {
  RandomWorkload w;
  const size_t n = 1 + rng.NextBounded(3000);
  // Key ranges from "all duplicates" to "mostly distinct", occasionally with
  // extreme magnitudes.
  const uint64_t key_range = 1 + rng.NextBounded(2 * n);
  const uint64_t key_scale = 1ULL << rng.NextBounded(50);
  w.keys.reserve(n);
  w.values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t key = rng.NextBounded(key_range) * key_scale;
    if (rng.NextBounded(100) == 0) key = 0;
    if (rng.NextBounded(100) == 0) key = ~0ULL - 2;  // Near-max, non-sentinel.
    w.keys.push_back(key);
    w.values.push_back(rng.NextBounded(1 + rng.NextBounded(100000)));
  }
  return w;
}

// Every row at one thread.
TEST(FuzzTest, AllLabelsAllFunctionsAgreeWithReference) {
  Rng rng(20260706);
  constexpr int kRounds = 12;
  for (int round = 0; round < kRounds; ++round) {
    const RandomWorkload w = MakeWorkload(rng);
    for (AggregateFunction fn :
         {AggregateFunction::kCount, AggregateFunction::kSum,
          AggregateFunction::kMin, AggregateFunction::kMax,
          AggregateFunction::kAverage, AggregateFunction::kMedian,
          AggregateFunction::kMode}) {
      const auto expected = ReferenceVectorAggregate(w.keys, w.values, fn);
      for (const LabelInfo& info : AllLabels()) {
        const std::string label = info.name;
        auto aggregator = MakeVectorAggregator(label, fn, w.keys.size());
        aggregator->Build(w.keys.data(), w.values.data(), w.keys.size());
        auto result = aggregator->Iterate();
        SortByKey(result);
        ASSERT_EQ(result.size(), expected.size())
            << "round " << round << " " << label << " "
            << AggregateFunctionName(fn);
        for (size_t i = 0; i < result.size(); ++i) {
          ASSERT_EQ(result[i].key, expected[i].key)
              << "round " << round << " " << label;
          ASSERT_DOUBLE_EQ(result[i].value, expected[i].value)
              << "round " << round << " " << label << " "
              << AggregateFunctionName(fn) << " key " << result[i].key;
        }
      }
    }
  }
}

// Every parallel row at a random thread count.
TEST(FuzzTest, ConcurrentLabelsAgreeWithReference) {
  Rng rng(777);
  std::vector<std::string> labels;
  for (const LabelInfo& info : AllLabels()) {
    if (info.parallel) labels.push_back(info.name);
  }
  for (int round = 0; round < 6; ++round) {
    const RandomWorkload w = MakeWorkload(rng);
    const int threads = 1 + static_cast<int>(rng.NextBounded(8));
    for (AggregateFunction fn :
         {AggregateFunction::kCount, AggregateFunction::kAverage,
          AggregateFunction::kMedian}) {
      const auto expected = ReferenceVectorAggregate(w.keys, w.values, fn);
      for (const std::string& label : labels) {
        auto aggregator =
            MakeVectorAggregator(label, fn, w.keys.size(), threads);
        aggregator->Build(w.keys.data(), w.values.data(), w.keys.size());
        auto result = aggregator->Iterate();
        SortByKey(result);
        ASSERT_EQ(result.size(), expected.size())
            << label << " t=" << threads;
        for (size_t i = 0; i < result.size(); ++i) {
          ASSERT_EQ(result[i].key, expected[i].key) << label;
          ASSERT_DOUBLE_EQ(result[i].value, expected[i].value)
              << label << " " << AggregateFunctionName(fn);
        }
      }
    }
  }
}

TEST(FuzzTest, RangeScansAgreeWithFilteredReference) {
  Rng rng(888);
  for (int round = 0; round < 10; ++round) {
    const RandomWorkload w = MakeWorkload(rng);
    uint64_t lo = rng.Next();
    uint64_t hi = rng.Next();
    if (lo > hi) std::swap(lo, hi);
    const auto expected = ReferenceVectorAggregate(
        w.keys, {}, AggregateFunction::kCount, lo, hi);
    for (const std::string& label : TreeLabels()) {
      auto aggregator =
          MakeVectorAggregator(label, AggregateFunction::kCount,
                               w.keys.size());
      aggregator->Build(w.keys.data(), nullptr, w.keys.size());
      auto result = aggregator->IterateRange(lo, hi);
      SortByKey(result);
      ASSERT_EQ(result, expected) << label << " round " << round;
    }
  }
}

}  // namespace
}  // namespace memagg
