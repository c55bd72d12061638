// Tests for the engine registry (label -> operator mapping).

#include "core/engine.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/query.h"

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
  EXPECT_EQ(AllLabels().size(), 27u);
  std::vector<std::string> names;
  for (const LabelInfo& info : AllLabels()) names.push_back(info.name);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());

  EXPECT_EQ(NamesWhere(&LabelInfo::parallel),
            (std::vector<std::string>{
                "Hash_TBBSC", "Hash_LC", "Sort_BI", "Sort_QSLB", "Hash_PLocal",
                "Hash_Striped", "Hash_PRadix", "Adaptive", "Hybrid", "Sort_SS",
                "Sort_TBB"}));
  EXPECT_EQ(NamesWhere(&LabelInfo::scalar_median),
            (std::vector<std::string>{"ART", "Judy", "Btree", "Introsort",
                                      "Spreadsort", "Sort_BI", "Sort_QSLB",
                                      "Ttree", "Quicksort"}));
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
