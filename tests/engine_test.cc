// Tests for the engine registry (label -> operator mapping).

#include "core/engine.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/advisor.h"
#include "core/query.h"
#include "data/dataset.h"
#include "obs/query_stats.h"
#include "test_util.h"

namespace memagg {
namespace {

TEST(EngineTest, SerialLabelsMatchTable3) {
  EXPECT_EQ(SerialLabels(),
            (std::vector<std::string>{"ART", "Judy", "Btree", "Hash_SC",
                                      "Hash_LP", "Hash_Sparse", "Hash_Dense",
                                      "Hash_LC", "Introsort", "Spreadsort"}));
}

TEST(EngineTest, ConcurrentLabelsMatchTable8) {
  EXPECT_EQ(ConcurrentLabels(),
            (std::vector<std::string>{"Hash_TBBSC", "Hash_LC", "Sort_BI",
                                      "Sort_QSLB"}));
}

TEST(EngineTest, TreeAndScalarListsAreTable3Selections) {
  EXPECT_EQ(TreeLabels(), (std::vector<std::string>{"ART", "Judy", "Btree"}));
  EXPECT_EQ(ScalarCapableLabels(),
            (std::vector<std::string>{"ART", "Judy", "Btree", "Introsort",
                                      "Spreadsort"}));
}

std::vector<std::string> NamesWhere(bool LabelInfo::*flag) {
  std::vector<std::string> names;
  for (const LabelInfo& info : AllLabels()) {
    if (info.*flag) names.push_back(info.name);
  }
  return names;
}

TEST(EngineTest, RegistryRowsCarryTheirCapabilities) {
  EXPECT_EQ(AllLabels().size(), 22u);
  std::vector<std::string> names;
  for (const LabelInfo& info : AllLabels()) names.push_back(info.name);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());

  EXPECT_EQ(NamesWhere(&LabelInfo::parallel),
            (std::vector<std::string>{
                "Hash_TBBSC", "Hash_LC", "Sort_BI", "Sort_QSLB", "Hash_PLocal",
                "Hash_Striped", "Hash_PRadix", "Adaptive", "Hybrid"}));
  EXPECT_EQ(NamesWhere(&LabelInfo::scalar_median),
            (std::vector<std::string>{"ART", "Judy", "Btree", "Introsort",
                                      "Spreadsort", "Sort_BI", "Sort_QSLB",
                                      "Ttree"}));
  EXPECT_EQ(NamesWhere(&LabelInfo::traced),
            (std::vector<std::string>{"ART", "Judy", "Btree", "Hash_SC",
                                      "Hash_LP", "Hash_Sparse", "Hash_Dense",
                                      "Hash_LC", "Introsort", "Spreadsort",
                                      "Ttree"}));
  EXPECT_STREQ(FindLabel("Hybrid").name, "Hybrid");
  EXPECT_TRUE(FindLabel(kAdaptiveLabel).parallel);
}

TEST(EngineTest, CategoryOfLabel) {
  EXPECT_EQ(CategoryOfLabel("Hash_LP"), AlgorithmCategory::kHash);
  EXPECT_EQ(CategoryOfLabel("Hash_TBBSC"), AlgorithmCategory::kHash);
  EXPECT_EQ(CategoryOfLabel("Hybrid"), AlgorithmCategory::kHash);
  EXPECT_EQ(CategoryOfLabel("Adaptive"), AlgorithmCategory::kHash);
  EXPECT_EQ(CategoryOfLabel("ART"), AlgorithmCategory::kTree);
  EXPECT_EQ(CategoryOfLabel("Judy"), AlgorithmCategory::kTree);
  EXPECT_EQ(CategoryOfLabel("Btree"), AlgorithmCategory::kTree);
  EXPECT_EQ(CategoryOfLabel("Ttree"), AlgorithmCategory::kTree);
  EXPECT_EQ(CategoryOfLabel("Introsort"), AlgorithmCategory::kSort);
  EXPECT_EQ(CategoryOfLabel("Spreadsort"), AlgorithmCategory::kSort);
  EXPECT_EQ(CategoryOfLabel("Sort_BI"), AlgorithmCategory::kSort);
}

constexpr AggregateFunction kAllFunctions[] = {
    AggregateFunction::kCount,   AggregateFunction::kSum,
    AggregateFunction::kMin,     AggregateFunction::kMax,
    AggregateFunction::kAverage, AggregateFunction::kMedian,
    AggregateFunction::kMode};

TEST(EngineTest, EveryLabelConstructsEveryFunction) {
  for (const LabelInfo& info : AllLabels()) {
    for (AggregateFunction fn : kAllFunctions) {
      EXPECT_NE(MakeVectorAggregator(info.name, fn, 64), nullptr)
          << info.name << " " << AggregateFunctionName(fn);
    }
  }
}

TEST(EngineTest, ExtraSortLabelsConstruct) {
  // The sort rows outside Table 3, at one thread and — for the parallel
  // sorts — at four.
  for (const LabelInfo& info : AllLabels()) {
    if (info.table3 || info.category != AlgorithmCategory::kSort) continue;
    for (const int threads : {1, 4}) {
      if (threads > 1 && !info.parallel) continue;
      for (AggregateFunction fn : kAllFunctions) {
        EXPECT_NE(MakeVectorAggregator(info.name, fn, 64, threads), nullptr)
            << info.name << "@" << threads << " "
            << AggregateFunctionName(fn);
      }
    }
  }
}

// ExecuteVectorQuery reads the registry's `parallel` flag: a serial label
// given a larger thread budget runs on one worker.
TEST(EngineTest, SerialLabelRunsOnOneWorkerAtAnyThreadBudget) {
  const auto keys =
      GenerateKeys(DatasetSpec{Distribution::kZipf, 20000, 500, 61});
  VectorQueryExecution execution =
      ExecuteVectorQuery("Hash_LP", AggregateFunction::kCount, keys.data(),
                         nullptr, keys.size(), keys.size(), /*exec=*/4);
  EXPECT_EQ(execution.label, "Hash_LP");
  EXPECT_LE(execution.stats.Get(StatCounter::kWorkersUsed), 1u);
  SortByKey(execution.result);
  EXPECT_EQ(execution.result,
            ReferenceVectorAggregate(keys, {}, AggregateFunction::kCount));
}

// --- ExecuteVectorQuery as the one-call API over key/value columns. ---

TEST(ExecuteVectorQueryTest, AutoCountMatchesReference) {
  DatasetSpec spec{Distribution::kZipf, 30000, 500, 201};
  const auto keys = GenerateKeys(spec);
  auto result = ExecuteVectorQuery("auto", AggregateFunction::kCount,
                                   keys.data(), nullptr, keys.size(),
                                   keys.size())
                    .result;
  SortByKey(result);
  EXPECT_EQ(result,
            ReferenceVectorAggregate(keys, {}, AggregateFunction::kCount));
}

TEST(ExecuteVectorQueryTest, AutoMedianMatchesReference) {
  DatasetSpec spec{Distribution::kRseqShuffled, 30000, 500, 202};
  const auto keys = GenerateKeys(spec);
  const auto values = GenerateValues(keys.size(), 1000, 203);
  auto result = ExecuteVectorQuery("auto", AggregateFunction::kMedian,
                                   keys.data(), values.data(), keys.size(),
                                   keys.size())
                    .result;
  SortByKey(result);
  EXPECT_EQ(result, ReferenceVectorAggregate(keys, values,
                                             AggregateFunction::kMedian));
}

TEST(ExecuteVectorQueryTest, PinnedLabel) {
  const std::vector<uint64_t> keys = {3, 1, 3, 2};
  const auto execution =
      ExecuteVectorQuery("Btree", AggregateFunction::kCount, keys.data(),
                         nullptr, keys.size(), keys.size());
  EXPECT_EQ(execution.label, "Btree");
  const VectorResult expected = {{1, 1.0}, {2, 1.0}, {3, 2.0}};
  EXPECT_EQ(execution.result, expected);  // Btree emits in key order.
}

TEST(ExecuteVectorQueryTest, AutoRangeConditionRoutesToTree) {
  DatasetSpec spec{Distribution::kRseqShuffled, 20000, 1000, 204};
  const auto keys = GenerateKeys(spec);
  auto execution = ExecuteVectorQuery(
      "auto", AggregateFunction::kCount, keys.data(), nullptr, keys.size(),
      keys.size(), /*exec=*/1, KeyRange{100, 300});
  EXPECT_EQ(CategoryOfLabel(execution.label), AlgorithmCategory::kTree);
  SortByKey(execution.result);
  EXPECT_EQ(execution.result,
            ReferenceVectorAggregate(keys, {}, AggregateFunction::kCount,
                                     100, 300));
}

TEST(ExecuteVectorQueryTest, RangeConditionOnHashPostFilters) {
  const std::vector<uint64_t> keys = {1, 5, 9, 5, 1};
  auto result = ExecuteVectorQuery("Hash_LP", AggregateFunction::kCount,
                                   keys.data(), nullptr, keys.size(),
                                   keys.size(), /*exec=*/1, KeyRange{2, 8})
                    .result;
  SortByKey(result);
  const VectorResult expected = {{5, 2.0}};
  EXPECT_EQ(result, expected);
}

TEST(ExecuteVectorQueryTest, MultithreadedAuto) {
  DatasetSpec spec{Distribution::kHhitShuffled, 50000, 200, 205};
  const auto keys = GenerateKeys(spec);
  const auto values = GenerateValues(keys.size(), 100, 206);
  for (AggregateFunction fn :
       {AggregateFunction::kCount, AggregateFunction::kMedian}) {
    // The advisor picks a 4-thread label: Hash_TBBSC or Sort_BI.
    auto result = ExecuteVectorQuery("auto", fn, keys.data(), values.data(),
                                     keys.size(), keys.size(), /*exec=*/4)
                      .result;
    SortByKey(result);
    EXPECT_EQ(result, ReferenceVectorAggregate(keys, values, fn))
        << AggregateFunctionName(fn);
  }
}

TEST(ExecuteVectorQueryTest, EmptyInput) {
  const auto execution = ExecuteVectorQuery(
      "auto", AggregateFunction::kCount, nullptr, nullptr, 0, 0);
  EXPECT_TRUE(execution.result.empty());
}

// --- Q6 through the advisor's scalar pick. ---

double AdvisedScalarMedian(const std::vector<uint64_t>& column) {
  WorkloadProfile profile;
  profile.output = OutputFormat::kScalar;
  auto median = MakeScalarMedianAggregator(RecommendAlgorithm(profile));
  median->Build(column.data(), nullptr, column.size());
  return median->Finalize();
}

TEST(ScalarMedianTest, AdvisedLabelComputesTheMedian) {
  EXPECT_DOUBLE_EQ(AdvisedScalarMedian({5, 1, 9, 1, 4}), 4.0);
}

TEST(ScalarMedianTest, AdvisedLabelMatchesReferenceOnLargeColumn) {
  DatasetSpec spec{Distribution::kZipf, 50001, 1000, 207};
  const auto keys = GenerateKeys(spec);
  EXPECT_DOUBLE_EQ(AdvisedScalarMedian(keys), ReferenceMedian(keys));
}

TEST(EngineTest, QueryDescriptorsMatchTable1) {
  EXPECT_EQ(MakeQ1().category(), FunctionCategory::kDistributive);
  EXPECT_EQ(MakeQ1().output, OutputFormat::kVector);
  EXPECT_EQ(MakeQ2().category(), FunctionCategory::kAlgebraic);
  EXPECT_EQ(MakeQ3().category(), FunctionCategory::kHolistic);
  EXPECT_EQ(MakeQ3().output, OutputFormat::kVector);
  EXPECT_EQ(MakeQ4().output, OutputFormat::kScalar);
  EXPECT_EQ(MakeQ5().output, OutputFormat::kScalar);
  EXPECT_EQ(MakeQ6().output, OutputFormat::kScalar);
  EXPECT_EQ(MakeQ6().category(), FunctionCategory::kHolistic);
  EXPECT_TRUE(MakeQ7().has_range_condition);
  EXPECT_EQ(MakeQ7().range_lo, 500u);
  EXPECT_EQ(MakeQ7().range_hi, 1000u);
}

}  // namespace
}  // namespace memagg
