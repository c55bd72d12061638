// Integration tests: every serial algorithm label from Table 3 computes
// Q1 (vector COUNT), Q2 (vector AVG) and Q3 (vector MEDIAN) over every
// Table 4 dataset distribution, verified against the naive reference.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/composite_aggregate.h"
#include "core/engine.h"
#include "data/dataset.h"
#include "exec/executor.h"
#include "test_util.h"
#include "util/rng.h"

namespace memagg {
namespace {

struct Case {
  std::string label;
  Distribution distribution;
};

class SerialAggregation : public ::testing::TestWithParam<Case> {};

constexpr uint64_t kRecords = 20000;
constexpr uint64_t kCardinality = 128;

TEST_P(SerialAggregation, Q1VectorCount) {
  const Case& c = GetParam();
  DatasetSpec spec{c.distribution, kRecords, kCardinality, 21};
  const auto keys = GenerateKeys(spec);
  auto aggregator =
      MakeVectorAggregator(c.label, AggregateFunction::kCount, keys.size());
  aggregator->Build(keys.data(), nullptr, keys.size());
  auto result = aggregator->Iterate();
  SortByKey(result);
  const auto expected =
      ReferenceVectorAggregate(keys, {}, AggregateFunction::kCount);
  EXPECT_EQ(result, expected);
  EXPECT_EQ(aggregator->NumGroups(), expected.size());
}

TEST_P(SerialAggregation, Q2VectorAverage) {
  const Case& c = GetParam();
  DatasetSpec spec{c.distribution, kRecords, kCardinality, 22};
  const auto keys = GenerateKeys(spec);
  const auto values = GenerateValues(keys.size(), 10000, 23);
  auto aggregator =
      MakeVectorAggregator(c.label, AggregateFunction::kAverage, keys.size());
  aggregator->Build(keys.data(), values.data(), keys.size());
  auto result = aggregator->Iterate();
  SortByKey(result);
  const auto expected =
      ReferenceVectorAggregate(keys, values, AggregateFunction::kAverage);
  ASSERT_EQ(result.size(), expected.size());
  for (size_t i = 0; i < result.size(); ++i) {
    EXPECT_EQ(result[i].key, expected[i].key);
    EXPECT_DOUBLE_EQ(result[i].value, expected[i].value);
  }
}

TEST_P(SerialAggregation, Q3VectorMedian) {
  const Case& c = GetParam();
  DatasetSpec spec{c.distribution, kRecords, kCardinality, 24};
  const auto keys = GenerateKeys(spec);
  const auto values = GenerateValues(keys.size(), 10000, 25);
  auto aggregator =
      MakeVectorAggregator(c.label, AggregateFunction::kMedian, keys.size());
  aggregator->Build(keys.data(), values.data(), keys.size());
  auto result = aggregator->Iterate();
  SortByKey(result);
  const auto expected =
      ReferenceVectorAggregate(keys, values, AggregateFunction::kMedian);
  EXPECT_EQ(result, expected);
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (const std::string& label : SerialLabels()) {
    for (Distribution d : kAllDistributions) {
      cases.push_back({label, d});
    }
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  std::string name =
      info.param.label + "_" + DistributionName(info.param.distribution);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllLabelsAllDistributions, SerialAggregation,
                         ::testing::ValuesIn(AllCases()), CaseName);

// --- Additional aggregate functions (extension beyond the paper's queries) --

class ExtraFunctions : public ::testing::TestWithParam<std::string> {};

TEST_P(ExtraFunctions, SumMinMaxMode) {
  const std::string& label = GetParam();
  DatasetSpec spec{Distribution::kZipf, 10000, 64, 26};
  const auto keys = GenerateKeys(spec);
  const auto values = GenerateValues(keys.size(), 1000, 27);
  for (AggregateFunction fn :
       {AggregateFunction::kSum, AggregateFunction::kMin,
        AggregateFunction::kMax, AggregateFunction::kMode}) {
    auto aggregator = MakeVectorAggregator(label, fn, keys.size());
    aggregator->Build(keys.data(), values.data(), keys.size());
    auto result = aggregator->Iterate();
    SortByKey(result);
    EXPECT_EQ(result, ReferenceVectorAggregate(keys, values, fn))
        << AggregateFunctionName(fn);
  }
}

INSTANTIATE_TEST_SUITE_P(AllLabels, ExtraFunctions,
                         ::testing::ValuesIn(SerialLabels()));

// --- Multiple Build calls accumulate ----------------------------------------

// A composite keeps one word per distinct fold: SUM and AVG of one column
// share its sum, and COUNT and AVG share the row count. A holistic member
// makes the groups keep row ids, and every member is then evaluated over
// them.
TEST(CompositeAggregateTest, MembersShareWordsAndHolisticOnesBufferRows) {
  const std::vector<uint64_t> x = {5, 9, 2, 7};
  CompositeOutput output;
  const CompositeAggregate words({{AggregateFunction::kSum, x.data()},
                                  {AggregateFunction::kAverage, x.data()},
                                  {AggregateFunction::kCount, nullptr},
                                  {AggregateFunction::kMin, x.data()}},
                                 &output);
  EXPECT_FALSE(words.buffers_rows());
  EXPECT_EQ(words.num_words(), 3u);  // sum(x), count, complemented min(x).
  CompositeAggregate::State left;
  CompositeAggregate::State right;
  words.Update(left, 0);
  words.Update(left, 1);
  words.Update(right, 2);
  words.Merge(left, right);
  EXPECT_EQ(words.Finalize(left), 0.0);  // The group's row in the output.
  ASSERT_EQ(output.num_groups(), 1u);
  EXPECT_EQ(output.Value(0, 0), 16.0);
  EXPECT_EQ(output.Value(0, 1), 16.0 / 3.0);
  EXPECT_EQ(output.Value(0, 2), 3.0);
  EXPECT_EQ(output.Value(0, 3), 2.0);

  CompositeOutput rows_output;
  const CompositeAggregate rows({{AggregateFunction::kMedian, x.data()},
                                 {AggregateFunction::kMax, x.data()}},
                                &rows_output);
  EXPECT_TRUE(rows.buffers_rows());
  CompositeAggregate::State state;
  for (const uint64_t row : {0, 1, 3}) rows.Update(state, row);
  EXPECT_EQ(rows.Finalize(state), 0.0);
  EXPECT_EQ(rows_output.Value(0, 0), 7.0);
  EXPECT_EQ(rows_output.Value(0, 1), 9.0);

  // Four distinct words, as the repo's TPC-H Q1 folds, fill the inline
  // words exactly; a fifth makes the groups keep row ids.
  const std::vector<uint64_t> y = {1, 4, 6, 3};
  std::vector<CompositeMember> four = {{AggregateFunction::kSum, x.data()},
                                       {AggregateFunction::kSum, y.data()},
                                       {AggregateFunction::kMax, x.data()},
                                       {AggregateFunction::kCount, nullptr}};
  CompositeOutput four_output;
  const CompositeAggregate full(four, &four_output);
  EXPECT_FALSE(full.buffers_rows());
  EXPECT_EQ(full.num_words(), CompositeAggregate::kMaxWords);
  four.push_back({AggregateFunction::kMin, y.data()});
  CompositeOutput five_output;
  EXPECT_TRUE(CompositeAggregate(four, &five_output).buffers_rows());
}

TEST(AggregatorContractTest, IncrementalBuildAccumulates) {
  const std::vector<uint64_t> part1 = {1, 2, 3, 1};
  const std::vector<uint64_t> part2 = {2, 2, 4};
  auto aggregator =
      MakeVectorAggregator("Hash_LP", AggregateFunction::kCount, 16);
  aggregator->Build(part1.data(), nullptr, part1.size());
  aggregator->Build(part2.data(), nullptr, part2.size());
  auto result = aggregator->Iterate();
  SortByKey(result);
  const VectorResult expected = {{1, 2.0}, {2, 3.0}, {3, 1.0}, {4, 1.0}};
  EXPECT_EQ(result, expected);
}

// Every registry row at every thread count it accepts: a second Build adds
// its rows to the first batch's (the contract in core/operator.h).
TEST(AggregatorContractTest, EveryLabelAccumulatesAcrossTwoBuilds) {
  const DatasetSpec spec1{Distribution::kRseqShuffled, 50000, 4000, 32};
  const DatasetSpec spec2{Distribution::kZipf, 70000, 6000, 33};
  const auto keys1 = GenerateKeys(spec1);
  const auto keys2 = GenerateKeys(spec2);
  const auto values1 = GenerateValues(keys1.size(), 1000, 34);
  const auto values2 = GenerateValues(keys2.size(), 1000, 35);
  std::vector<uint64_t> keys = keys1;
  keys.insert(keys.end(), keys2.begin(), keys2.end());
  std::vector<uint64_t> values = values1;
  values.insert(values.end(), values2.begin(), values2.end());

  for (AggregateFunction fn :
       {AggregateFunction::kCount, AggregateFunction::kSum,
        AggregateFunction::kMedian}) {
    const VectorResult expected = ReferenceVectorAggregate(keys, values, fn);
    for (const LabelInfo& info : AllLabels()) {
      for (const int threads : {1, 4}) {
        if (threads > 1 && !info.parallel) continue;
        auto aggregator = MakeVectorAggregator(info.name, fn, keys1.size(),
                                               ExecutionContext{threads});
        aggregator->Build(keys1.data(), values1.data(), keys1.size());
        aggregator->Build(keys2.data(), values2.data(), keys2.size());
        auto result = aggregator->Iterate();
        SortByKey(result);
        EXPECT_EQ(result, expected) << info.name << "@" << threads << " "
                                    << AggregateFunctionName(fn);
      }
    }
  }
}

// Every registry row builds only through the consume protocol's one driver
// (core/operator.h). Sweep it over the morsel grids the driver can lay
// out — one-row and three-row morsels and the default grain, at one worker
// and, for parallel rows, four — and over tiny and empty inputs.
TEST(AggregatorContractTest, EveryLabelMatchesTheReferenceOnEveryMorselGrid) {
  for (const size_t n : {size_t{0}, size_t{1}, size_t{17}, size_t{5000}}) {
    Rng rng(Rng::kDefaultSeed + n);
    std::vector<uint64_t> keys(n);
    std::vector<uint64_t> values(n);
    for (size_t i = 0; i < n; ++i) {
      keys[i] = rng.Next() % (n / 3 + 1);
      values[i] = rng.Next() % 1000;
    }
    for (AggregateFunction fn :
         {AggregateFunction::kCount, AggregateFunction::kSum,
          AggregateFunction::kMedian}) {
      const VectorResult expected = ReferenceVectorAggregate(keys, values, fn);
      for (const LabelInfo& info : AllLabels()) {
        for (const int threads : {1, 4}) {
          if (threads > 1 && !info.parallel) continue;
          for (const size_t morsel_rows : {size_t{1}, size_t{3}, size_t{0}}) {
            ExecutionContext exec{threads};
            exec.morsel_rows = morsel_rows;
            auto aggregator = MakeVectorAggregator(info.name, fn, n, exec);
            aggregator->Build(keys.data(), values.data(), n);
            auto result = aggregator->Iterate();
            SortByKey(result);
            EXPECT_EQ(result, expected)
                << info.name << "@" << threads << " morsel_rows="
                << morsel_rows << " n=" << n << " "
                << AggregateFunctionName(fn);
          }
        }
      }
    }
  }
}

TEST(AggregatorContractDeathTest, BuildOwnedRequiresAnEmptyOperator) {
  const std::vector<uint64_t> keys = {3, 1, 2};
  auto aggregator =
      MakeVectorAggregator("Spreadsort", AggregateFunction::kCount, 16);
  aggregator->Build(keys.data(), nullptr, keys.size());
  EXPECT_DEATH(aggregator->BuildOwned(std::vector<uint64_t>(keys), {}),
               "BuildOwned runs once, on an empty operator");
}

TEST(AggregatorContractTest, BuildOwnedMatchesBuild) {
  DatasetSpec spec{Distribution::kZipf, 20000, 128, 30};
  const auto keys = GenerateKeys(spec);
  const auto values = GenerateValues(keys.size(), 1000, 31);
  for (const std::string& label : SerialLabels()) {
    for (AggregateFunction fn :
         {AggregateFunction::kCount, AggregateFunction::kMedian}) {
      auto by_copy = MakeVectorAggregator(label, fn, keys.size());
      by_copy->Build(keys.data(), values.data(), keys.size());
      auto by_move = MakeVectorAggregator(label, fn, keys.size());
      by_move->BuildOwned(std::vector<uint64_t>(keys),
                          std::vector<uint64_t>(values));
      auto want = by_copy->Iterate();
      auto got = by_move->Iterate();
      SortByKey(want);
      SortByKey(got);
      EXPECT_EQ(got, want) << label << " " << AggregateFunctionName(fn);
    }
  }
}

TEST(AggregatorContractTest, TreeAndSortOutputsAreKeySorted) {
  DatasetSpec spec{Distribution::kRseqShuffled, 5000, 100, 28};
  const auto keys = GenerateKeys(spec);
  for (const std::string& label :
       {std::string("ART"), std::string("Judy"), std::string("Btree"),
        std::string("Introsort"), std::string("Spreadsort")}) {
    auto aggregator =
        MakeVectorAggregator(label, AggregateFunction::kCount, keys.size());
    aggregator->Build(keys.data(), nullptr, keys.size());
    const auto result = aggregator->Iterate();
    for (size_t i = 1; i < result.size(); ++i) {
      EXPECT_LT(result[i - 1].key, result[i].key) << label;
    }
  }
}

TEST(AggregatorContractTest, SingleRecordDataset) {
  const std::vector<uint64_t> keys = {42};
  const std::vector<uint64_t> values = {7};
  for (const std::string& label : SerialLabels()) {
    auto aggregator =
        MakeVectorAggregator(label, AggregateFunction::kMedian, 1);
    aggregator->Build(keys.data(), values.data(), 1);
    const auto result = aggregator->Iterate();
    ASSERT_EQ(result.size(), 1u) << label;
    EXPECT_EQ(result[0].key, 42u) << label;
    EXPECT_DOUBLE_EQ(result[0].value, 7.0) << label;
  }
}

TEST(AggregatorContractTest, AllRecordsOneGroup) {
  DatasetSpec spec{Distribution::kRseq, 10000, 1, 29};
  const auto keys = GenerateKeys(spec);
  for (const std::string& label : SerialLabels()) {
    auto aggregator =
        MakeVectorAggregator(label, AggregateFunction::kCount, keys.size());
    aggregator->Build(keys.data(), nullptr, keys.size());
    const auto result = aggregator->Iterate();
    ASSERT_EQ(result.size(), 1u) << label;
    EXPECT_DOUBLE_EQ(result[0].value, 10000.0) << label;
  }
}

TEST(AggregatorContractTest, AllKeysDistinct) {
  std::vector<uint64_t> keys(5000);
  for (uint64_t i = 0; i < keys.size(); ++i) keys[i] = i * 7919;
  for (const std::string& label : SerialLabels()) {
    auto aggregator =
        MakeVectorAggregator(label, AggregateFunction::kCount, keys.size());
    aggregator->Build(keys.data(), nullptr, keys.size());
    auto result = aggregator->Iterate();
    EXPECT_EQ(result.size(), keys.size()) << label;
    for (const GroupResult& row : result) {
      EXPECT_DOUBLE_EQ(row.value, 1.0) << label;
    }
  }
}

}  // namespace
}  // namespace memagg
