// Contract-violation (death) tests: the library aborts loudly via
// MEMAGG_CHECK instead of silently misbehaving.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "data/dataset.h"
#include "data/lineitem.h"
#include "util/cli.h"

namespace memagg {
namespace {

using ContractDeathTest = ::testing::Test;

TEST(ContractDeathTest, GenerateKeysRejectsInvalidSpec) {
  DatasetSpec spec{Distribution::kRseq, 10, 100, 1};  // cardinality > n.
  EXPECT_DEATH(GenerateKeys(spec), "cannot exceed the record count");
}

TEST(ContractDeathTest, GenerateKeysRejectsZeroCardinality) {
  DatasetSpec spec{Distribution::kRseq, 10, 0, 1};
  EXPECT_DEATH(GenerateKeys(spec), "cardinality must be at least 1");
}

TEST(ContractDeathTest, GenerateKeysRejectsOverconstrainedHhit) {
  DatasetSpec spec{Distribution::kHhit, 100, 99, 1};
  EXPECT_DEATH(GenerateKeys(spec), "cover half the records");
}

TEST(ContractDeathTest, GenerateKeysRejectsNarrowMovingCluster) {
  DatasetSpec spec{Distribution::kMovingCluster, 1000, 8, 1};
  EXPECT_DEATH(GenerateKeys(spec), "cardinality >= 64");
}

TEST(ContractDeathTest, GenerateValuesRejectsEmptyRange) {
  EXPECT_DEATH(GenerateValues(10, 0), "value_range must be at least 1");
}

TEST(ContractDeathTest, GenerateLineitemRejectsEmptyTable) {
  EXPECT_DEATH(GenerateLineitem(0), "at least one row");
}

TEST(ContractDeathTest, GenerateLineitemRejectsOversizedTable) {
  EXPECT_DEATH(GenerateLineitem((16ULL << 20) + 1), "exactness bound");
}

TEST(ContractDeathTest, UnknownAlgorithmLabelAborts) {
  EXPECT_DEATH(
      MakeVectorAggregator("Hash_Nope", AggregateFunction::kCount, 16),
      "Unknown algorithm label");
}

TEST(ContractDeathTest, UnknownLabelCategoryAborts) {
  EXPECT_DEATH(CategoryOfLabel("Hash_Nope"), "Unknown algorithm label");
  EXPECT_DEATH(CategoryOfLabel("Hashish"), "Unknown algorithm label");
  EXPECT_DEATH(CategoryOfLabel("Sort_Nope"), "Unknown algorithm label");
}

TEST(ContractDeathTest, SerialLabelRejectsMultipleThreads) {
  EXPECT_DEATH(
      MakeVectorAggregator("Hash_LP", AggregateFunction::kCount, 16,
                           /*num_threads=*/4),
      "MEMAGG_CHECK");
}

TEST(ContractDeathTest, HashLabelRejectsScalarMedian) {
  EXPECT_DEATH(MakeScalarMedianAggregator("Hash_LP"),
               "unsuitable for scalar median");
}

TEST(ContractDeathTest, HashOperatorRejectsRangeIterate) {
  auto aggregator =
      MakeVectorAggregator("Hash_Dense", AggregateFunction::kCount, 16);
  const std::vector<uint64_t> keys = {1, 2, 3};
  aggregator->Build(keys.data(), nullptr, keys.size());
  EXPECT_DEATH(aggregator->IterateRange(1, 2), "no native range search");
}

TEST(ContractDeathTest, UnknownDistributionNameAborts) {
  EXPECT_DEATH(DistributionFromName("Uniform"), "Unknown distribution");
}

TEST(ContractDeathTest, EmptyHumanIntAborts) {
  EXPECT_DEATH(ParseHumanInt(""), "MEMAGG_CHECK");
}

}  // namespace
}  // namespace memagg
