// Tests for range-filtered aggregation (Q7, paper Section 5.6).

#include <gtest/gtest.h>

#include <string>

#include "core/engine.h"
#include "core/query.h"
#include "data/dataset.h"
#include "test_util.h"

namespace memagg {
namespace {

class RangeAggregation : public ::testing::TestWithParam<std::string> {};

TEST_P(RangeAggregation, PaperQ7Between500And1000) {
  DatasetSpec spec{Distribution::kRseqShuffled, 50000, 2000, 41};
  const auto keys = GenerateKeys(spec);
  auto aggregator =
      MakeVectorAggregator(GetParam(), AggregateFunction::kCount, keys.size());
  ASSERT_TRUE(aggregator->SupportsRange());
  aggregator->Build(keys.data(), nullptr, keys.size());
  const Query q7 = MakeQ7();
  auto result = aggregator->IterateRange(q7.range_lo, q7.range_hi);
  SortByKey(result);
  EXPECT_EQ(result, ReferenceVectorAggregate(keys, {},
                                             AggregateFunction::kCount,
                                             q7.range_lo, q7.range_hi));
}

TEST_P(RangeAggregation, VariousRangeWidths) {
  DatasetSpec spec{Distribution::kZipf, 30000, 1000, 42};
  const auto keys = GenerateKeys(spec);
  auto aggregator =
      MakeVectorAggregator(GetParam(), AggregateFunction::kCount, keys.size());
  aggregator->Build(keys.data(), nullptr, keys.size());
  const struct {
    uint64_t lo, hi;
  } ranges[] = {{0, ~0ULL}, {0, 0}, {250, 750}, {999, 999}, {2000, 3000}};
  for (const auto& range : ranges) {
    auto result = aggregator->IterateRange(range.lo, range.hi);
    SortByKey(result);
    EXPECT_EQ(result,
              ReferenceVectorAggregate(keys, {}, AggregateFunction::kCount,
                                       range.lo, range.hi))
        << "range [" << range.lo << ", " << range.hi << "]";
  }
}

TEST_P(RangeAggregation, RangeOfHolisticAggregate) {
  // Q7 in the paper is COUNT, but the operators compose: range + MEDIAN.
  DatasetSpec spec{Distribution::kRseqShuffled, 20000, 500, 43};
  const auto keys = GenerateKeys(spec);
  const auto values = GenerateValues(keys.size(), 1000, 44);
  auto aggregator = MakeVectorAggregator(GetParam(),
                                         AggregateFunction::kMedian,
                                         keys.size());
  aggregator->Build(keys.data(), values.data(), keys.size());
  auto result = aggregator->IterateRange(100, 200);
  SortByKey(result);
  EXPECT_EQ(result, ReferenceVectorAggregate(
                        keys, values, AggregateFunction::kMedian, 100, 200));
}

INSTANTIATE_TEST_SUITE_P(Trees, RangeAggregation,
                         ::testing::ValuesIn(TreeLabels()));

// Q7 through the one vector-query path on every registry row: trees and
// sorts answer with their native range scan, every other operator iterates
// all groups and filters. Both must equal the filtered reference.
TEST(RangeQueryTest, EveryLabelAnswersQ7ThroughExecuteVectorQuery) {
  DatasetSpec spec{Distribution::kRseqShuffled, 20000, 2000, 45};
  const auto keys = GenerateKeys(spec);
  const auto values = GenerateValues(keys.size(), 1000, 46);
  const Query q7 = MakeQ7();
  for (AggregateFunction fn :
       {AggregateFunction::kCount, AggregateFunction::kMedian}) {
    const VectorResult expected = ReferenceVectorAggregate(
        keys, values, fn, q7.range_lo, q7.range_hi);
    for (const LabelInfo& info : AllLabels()) {
      for (const int threads : {1, 4}) {
        if (threads > 1 && !info.parallel) continue;
        VectorQueryExecution execution = ExecuteVectorQuery(
            info.name, fn, keys.data(), values.data(), keys.size(),
            keys.size(), threads, KeyRange{q7.range_lo, q7.range_hi});
        SortByKey(execution.result);
        EXPECT_EQ(execution.result, expected)
            << info.name << "@" << threads << " "
            << AggregateFunctionName(fn);
      }
    }
  }
}

TEST(RangeSupportTest, SortOperatorsSupportRangeToo) {
  const std::vector<uint64_t> keys = {5, 1, 7, 5, 9, 1};
  auto aggregator =
      MakeVectorAggregator("Spreadsort", AggregateFunction::kCount,
                           keys.size());
  EXPECT_TRUE(aggregator->SupportsRange());
  aggregator->Build(keys.data(), nullptr, keys.size());
  auto result = aggregator->IterateRange(2, 8);
  SortByKey(result);
  const VectorResult expected = {{5, 2.0}, {7, 1.0}};
  EXPECT_EQ(result, expected);
}

TEST(RangeSupportTest, HashOperatorsDeclineRange) {
  auto aggregator =
      MakeVectorAggregator("Hash_LP", AggregateFunction::kCount, 16);
  EXPECT_FALSE(aggregator->SupportsRange());
}

}  // namespace
}  // namespace memagg
