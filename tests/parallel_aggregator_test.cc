// Tests for the multithreaded aggregation operators (paper Section 5.8 /
// Table 8, and the parallel extensions): every registry row that accepts
// more than one thread, across thread counts, verified against the naive
// reference.

#include <gtest/gtest.h>

#include <string>

#include "core/engine.h"
#include "data/dataset.h"
#include "test_util.h"

namespace memagg {
namespace {

struct Case {
  std::string label;
  int threads;
};

class ParallelAggregation : public ::testing::TestWithParam<Case> {};

constexpr uint64_t kRecords = 200000;
constexpr uint64_t kCardinality = 1000;

TEST_P(ParallelAggregation, Q1VectorCount) {
  const Case& c = GetParam();
  DatasetSpec spec{Distribution::kRseqShuffled, kRecords, kCardinality, 51};
  const auto keys = GenerateKeys(spec);
  auto aggregator = MakeVectorAggregator(c.label, AggregateFunction::kCount,
                                         keys.size(), c.threads);
  aggregator->Build(keys.data(), nullptr, keys.size());
  auto result = aggregator->Iterate();
  SortByKey(result);
  EXPECT_EQ(result,
            ReferenceVectorAggregate(keys, {}, AggregateFunction::kCount));
}

TEST_P(ParallelAggregation, Q3VectorMedian) {
  const Case& c = GetParam();
  DatasetSpec spec{Distribution::kZipf, kRecords, kCardinality, 52};
  const auto keys = GenerateKeys(spec);
  const auto values = GenerateValues(keys.size(), 100000, 53);
  auto aggregator = MakeVectorAggregator(c.label, AggregateFunction::kMedian,
                                         keys.size(), c.threads);
  aggregator->Build(keys.data(), values.data(), keys.size());
  auto result = aggregator->Iterate();
  SortByKey(result);
  EXPECT_EQ(result,
            ReferenceVectorAggregate(keys, values, AggregateFunction::kMedian));
}

TEST_P(ParallelAggregation, Q2VectorAverage) {
  const Case& c = GetParam();
  DatasetSpec spec{Distribution::kHhitShuffled, kRecords, 500, 54};
  const auto keys = GenerateKeys(spec);
  const auto values = GenerateValues(keys.size(), 1000, 55);
  auto aggregator = MakeVectorAggregator(c.label, AggregateFunction::kAverage,
                                         keys.size(), c.threads);
  aggregator->Build(keys.data(), values.data(), keys.size());
  auto result = aggregator->Iterate();
  SortByKey(result);
  // Integer sum and count states, divided once at finalize, make every merge
  // order bit-identical to the reference, which divides the same way.
  EXPECT_EQ(result,
            ReferenceVectorAggregate(keys, values, AggregateFunction::kAverage));
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (const LabelInfo& info : AllLabels()) {
    if (!info.parallel) continue;
    for (int threads : {1, 2, 4, 8}) {
      cases.push_back({info.name, threads});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllParallelLabels, ParallelAggregation,
                         ::testing::ValuesIn(AllCases()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return info.param.label + "_t" +
                                  std::to_string(info.param.threads);
                         });

}  // namespace
}  // namespace memagg
