// Tests for the experiment framework (one-call Table 5 parameter points).

#include "core/experiment.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "test_util.h"

namespace memagg {
namespace {

ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.dataset = {Distribution::kRseqShuffled, 20000, 256, 401};
  config.keep_rows = true;
  return config;
}

TEST(ExperimentTest, Q1AdaptiveMatchesReference) {
  ExperimentConfig config = SmallConfig();
  config.query = MakeQ1();
  config.algorithm = kAdaptiveLabel;
  const ExperimentResult result = RunExperiment(config);
  EXPECT_EQ(result.algorithm, "Adaptive");
  EXPECT_EQ(result.num_groups, 256u);
  auto rows = result.rows;
  SortByKey(rows);
  const auto keys = GenerateKeys(config.dataset);
  EXPECT_EQ(rows, ReferenceVectorAggregate(keys, {},
                                           AggregateFunction::kCount));
  EXPECT_GT(result.build.cycles, 0u);
  EXPECT_GT(result.data_structure_bytes, 0u);
}

TEST(ExperimentTest, Q3AdaptiveMatchesReference) {
  ExperimentConfig config = SmallConfig();
  config.query = MakeQ3();
  config.algorithm = kAdaptiveLabel;
  const ExperimentResult result = RunExperiment(config);
  EXPECT_EQ(result.algorithm, "Adaptive");
  EXPECT_EQ(result.num_groups, 256u);
  auto rows = result.rows;
  SortByKey(rows);
  const auto keys = GenerateKeys(config.dataset);
  const auto values = GenerateValues(config.dataset.num_records,
                                     config.value_range, config.value_seed);
  EXPECT_EQ(rows, ReferenceVectorAggregate(keys, values,
                                           AggregateFunction::kMedian));
}

TEST(ExperimentTest, Q7RangeRestrictsGroups) {
  ExperimentConfig config = SmallConfig();
  config.query = MakeQ7(10, 19);
  const ExperimentResult result = RunExperiment(config);
  EXPECT_EQ(result.algorithm, "ART");  // Range + no prebuilt index.
  EXPECT_EQ(result.num_groups, 10u);
  for (const GroupResult& row : result.rows) {
    EXPECT_GE(row.key, 10u);
    EXPECT_LE(row.key, 19u);
  }
}

TEST(ExperimentTest, ScalarQueries) {
  ExperimentConfig config = SmallConfig();
  config.query = MakeQ4();
  EXPECT_DOUBLE_EQ(RunExperiment(config).scalar_value, 20000.0);

  config.query = MakeQ6();
  const ExperimentResult median = RunExperiment(config);
  EXPECT_EQ(median.algorithm, "Spreadsort");
  const auto keys = GenerateKeys(config.dataset);
  EXPECT_DOUBLE_EQ(median.scalar_value, ReferenceMedian(keys));
}

TEST(ExperimentTest, PinnedAlgorithmAndThreads) {
  ExperimentConfig config = SmallConfig();
  config.query = MakeQ1();
  config.algorithm = "Hash_TBBSC";
  config.num_threads = 4;
  const ExperimentResult result = RunExperiment(config);
  EXPECT_EQ(result.algorithm, "Hash_TBBSC");
  EXPECT_EQ(result.num_groups, 256u);
}

TEST(ExperimentTest, RowsOmittedByDefault) {
  ExperimentConfig config = SmallConfig();
  config.keep_rows = false;
  const ExperimentResult result = RunExperiment(config);
  EXPECT_TRUE(result.rows.empty());
  EXPECT_EQ(result.num_groups, 256u);  // Count still reported.
}

TEST(ExperimentTest, ResultsAgreeAcrossAlgorithmsViaFramework) {
  ExperimentConfig config = SmallConfig();
  config.query = MakeQ2();
  VectorResult baseline;
  for (const std::string& label : SerialLabels()) {
    config.algorithm = label;
    auto rows = RunExperiment(config).rows;
    SortByKey(rows);
    if (baseline.empty()) {
      baseline = rows;
      continue;
    }
    ASSERT_EQ(rows.size(), baseline.size()) << label;
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].key, baseline[i].key) << label;
      EXPECT_DOUBLE_EQ(rows[i].value, baseline[i].value) << label;
    }
  }
}

}  // namespace
}  // namespace memagg
