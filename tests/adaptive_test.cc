// Tests for the adaptive aggregation operator and the MigratableAggregator
// interface it is built on (core/adaptive_aggregator.h, core/migratable.h).
//
//   * Migration correctness: partial state extracted from any strategy and
//     absorbed into any other must yield exactly the fixed-strategy result.
//   * Switching correctness: with the rotation hook forcing a switch at
//     every morsel boundary, the result must stay bit-identical to a
//     single-strategy run across the property-test sweep.
//   * Decision plumbing: QueryStats must record switches, migrated rows, and
//     the final strategy; the trace string must reflect the decision path.

#include "core/adaptive_aggregator.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/experiment.h"
#include "core/migratable.h"
#include "core/tree_aggregator.h"
#include "data/dataset.h"
#include "test_util.h"
#include "tree/art.h"

namespace memagg {
namespace {

// --- MigratableAggregator pair-wise migration (direct interface use). ---

struct MigratableFactory {
  const char* name;
  std::unique_ptr<VectorAggregator> op;
  MigratableAggregator<SumAggregate>* mig;
};

std::vector<MigratableFactory> AllMigratables(size_t expected,
                                              ExecutionContext exec) {
  std::vector<MigratableFactory> out;
  {
    auto op = std::make_unique<
        HashVectorAggregator<LinearProbingMap, SumAggregate>>(expected);
    auto* mig = op.get();
    out.push_back({"hash", std::move(op), mig});
  }
  {
    auto op = std::make_unique<TreeVectorAggregator<ArtTree, SumAggregate>>();
    auto* mig = op.get();
    out.push_back({"tree", std::move(op), mig});
  }
  {
    auto op = std::make_unique<LocalPartitionAggregator<SumAggregate>>(
        expected, exec, LocalMergeMode::kCentral);
    auto* mig = op.get();
    out.push_back({"local-central", std::move(op), mig});
  }
  {
    auto op = std::make_unique<LocalPartitionAggregator<SumAggregate>>(
        expected, exec, LocalMergeMode::kTree);
    auto* mig = op.get();
    out.push_back({"local-tree", std::move(op), mig});
  }
  {
    auto op = std::make_unique<RadixPartitionAggregator<SumAggregate>>(
        expected, exec);
    auto* mig = op.get();
    out.push_back({"radix", std::move(op), mig});
  }
  {
    auto op = std::make_unique<StripedParallelAggregator<SumAggregate>>(
        expected, exec);
    auto* mig = op.get();
    out.push_back({"shared-map", std::move(op), mig});
  }
  {
    auto op = std::make_unique<
        SortVectorAggregator<BlockIndirectSorter, SumAggregate>>();
    auto* mig = op.get();
    out.push_back({"sort", std::move(op), mig});
  }
  return out;
}

void ConsumeRange(MigratableAggregator<SumAggregate>* mig,
                  const std::vector<uint64_t>& keys,
                  const std::vector<uint64_t>& values, size_t grain,
                  size_t first_morsel, size_t last_morsel) {
  for (size_t i = first_morsel; i < last_morsel; ++i) {
    Morsel m;
    m.index = i;
    m.begin = i * grain;
    m.end = std::min(keys.size(), m.begin + grain);
    m.worker = 0;
    mig->ConsumeMorsel(keys.data(), values.data(), m);
  }
}

TEST(MigratableTest, EveryPairMigratesExactly) {
  DatasetSpec spec{Distribution::kRseqShuffled, 20000, 512, 71};
  const auto keys = GenerateKeys(spec);
  const auto values = GenerateValues(keys.size(), 1000, 72);
  auto expected = ReferenceVectorAggregate(keys, values,
                                           AggregateFunction::kSum);
  SortByKey(expected);

  const size_t grain = 1024;
  const size_t num_morsels = NumMorselsFor(keys.size(), grain);
  const size_t half = num_morsels / 2;
  const ExecutionContext exec{1};
  const size_t names = AllMigratables(512, exec).size();

  for (size_t a = 0; a < names; ++a) {
    for (size_t b = 0; b < names; ++b) {
      auto froms = AllMigratables(512, exec);
      auto tos = AllMigratables(512, exec);
      MigratableFactory& from = froms[a];
      MigratableFactory& to = tos[b];

      from.mig->BeginConsume(1, keys.size());
      ConsumeRange(from.mig, keys, values, grain, 0, half);
      const ProgressSnapshot progress = from.mig->Progress();
      EXPECT_EQ(progress.rows, half * grain) << from.name;

      to.mig->BeginConsume(1, keys.size());
      to.mig->AbsorbPartialState(from.mig->ExtractPartialState());
      ConsumeRange(to.mig, keys, values, grain, half, num_morsels);
      auto result = to.mig->Finish();
      SortByKey(result);

      ASSERT_EQ(result.size(), expected.size())
          << from.name << " -> " << to.name;
      for (size_t i = 0; i < result.size(); ++i) {
        EXPECT_EQ(result[i].key, expected[i].key)
            << from.name << " -> " << to.name;
        EXPECT_DOUBLE_EQ(result[i].value, expected[i].value)
            << from.name << " -> " << to.name;
      }
    }
  }
}

TEST(MigratableTest, ProgressReportsRowsAndGroups) {
  DatasetSpec spec{Distribution::kRseqShuffled, 8192, 64, 73};
  const auto keys = GenerateKeys(spec);
  const std::vector<uint64_t> values(keys.size(), 1);
  const ExecutionContext exec{1};
  for (auto& factory : AllMigratables(64, exec)) {
    factory.mig->BeginConsume(1, keys.size());
    ConsumeRange(factory.mig, keys, values, 1024, 0,
                 NumMorselsFor(keys.size(), 1024));
    const ProgressSnapshot progress = factory.mig->Progress();
    EXPECT_EQ(progress.rows, keys.size()) << factory.name;
    // Sort buffers raw rows and reports no group estimate; hash-family
    // structures must have materialized every distinct key.
    if (std::string(factory.name) != "sort") {
      EXPECT_GE(progress.groups, 64u) << factory.name;
      EXPECT_GT(progress.bytes, 0u) << factory.name;
    }
  }
}

// --- Adaptive operator: forced rotation across every morsel boundary. ---

class AdaptiveRotationSweep
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(AdaptiveRotationSweep, RotationStaysBitIdenticalToFixed) {
  const int threads = std::get<0>(GetParam());
  const uint64_t cardinality = std::get<1>(GetParam());
  DatasetSpec spec{Distribution::kRseqShuffled, 60000, cardinality, 81};
  const auto keys = GenerateKeys(spec);
  const auto values = GenerateValues(keys.size(), 1000, 82);

  // Fixed single-strategy baseline.
  auto baseline = ReferenceVectorAggregate(keys, values,
                                           AggregateFunction::kAverage);
  SortByKey(baseline);

  ExecutionContext exec{threads};
  exec.morsel_rows = 1024;  // Many boundaries: 59 morsels, 58 decisions.
  AdaptiveOptions options;
  options.rotate = true;        // Switch at every barrier...
  options.chunk_morsels = 1;    // ...which is every morsel boundary.
  options.sample_morsels = 1;
  AdaptiveAggregator<AverageAggregate> adaptive(keys.size(), exec, options);
  adaptive.Build(keys.data(), values.data(), keys.size());
  auto result = adaptive.Iterate();
  SortByKey(result);

  EXPECT_GE(adaptive.strategy_switches(), 10u);
  ASSERT_EQ(result.size(), baseline.size());
  for (size_t i = 0; i < result.size(); ++i) {
    EXPECT_EQ(result[i].key, baseline[i].key);
    EXPECT_DOUBLE_EQ(result[i].value, baseline[i].value);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndCardinalities, AdaptiveRotationSweep,
    ::testing::Combine(::testing::Values(1, 4),
                       ::testing::Values(64ULL, 4096ULL, 60000ULL)),
    [](const ::testing::TestParamInfo<std::tuple<int, uint64_t>>& info) {
      return "t" + std::to_string(std::get<0>(info.param)) + "_c" +
             std::to_string(std::get<1>(info.param));
    });

TEST(AdaptiveTest, RotationHandlesHolisticAggregates) {
  DatasetSpec spec{Distribution::kRseqShuffled, 30000, 128, 83};
  const auto keys = GenerateKeys(spec);
  const auto values = GenerateValues(keys.size(), 500, 84);
  auto baseline = ReferenceVectorAggregate(keys, values,
                                           AggregateFunction::kMedian);
  SortByKey(baseline);

  ExecutionContext exec{4};
  exec.morsel_rows = 2048;
  AdaptiveOptions options;
  options.rotate = true;
  options.chunk_morsels = 1;
  AdaptiveAggregator<MedianAggregate> adaptive(keys.size(), exec, options);
  adaptive.Build(keys.data(), values.data(), keys.size());
  auto result = adaptive.Iterate();
  SortByKey(result);

  EXPECT_GE(adaptive.strategy_switches(), 5u);
  ASSERT_EQ(result.size(), baseline.size());
  for (size_t i = 0; i < result.size(); ++i) {
    EXPECT_EQ(result[i].key, baseline[i].key);
    EXPECT_DOUBLE_EQ(result[i].value, baseline[i].value);
  }
}

// --- Decision plumbing: stats, trace, and the L3-crossing switch. ---

TEST(AdaptiveTest, CrossingTheCacheThresholdTriggersASwitch) {
  // All-distinct keys: the working set grows with every morsel and blows
  // far past the (artificially small) configured L3, so the cost model must
  // abandon the sampling strategy at least once.
  const size_t n = 1 << 20;
  DatasetSpec spec{Distribution::kRseqShuffled, n, n, 85};
  const auto keys = GenerateKeys(spec);

  ExecutionContext exec{4};
  AdaptiveOptions options;
  options.l3_bytes = 256 * 1024;  // Deterministic regardless of host cache.
  AdaptiveAggregator<CountAggregate> adaptive(n, exec, options);
  adaptive.Build(keys.data(), nullptr, n);
  auto result = adaptive.Iterate();
  EXPECT_EQ(result.size(), CountDistinct(keys));

  EXPECT_GE(adaptive.strategy_switches(), 1u);
  EXPECT_NE(adaptive.switch_trace().find("->"), std::string::npos);

  QueryStats stats;
  adaptive.CollectStats(&stats);
  EXPECT_GE(stats.Get(StatCounter::kStrategySwitches), 1u);
  EXPECT_GT(stats.Get(StatCounter::kRowsMigrated), 0u);
  EXPECT_GT(stats.Get(StatCounter::kAdaptiveStrategy), 0u);
}

TEST(AdaptiveTest, LowCardinalityNeverNeedsToSwitch) {
  // 64 groups fit in any cache: the sampling strategy is already the right
  // one and the margin test must keep it.
  DatasetSpec spec{Distribution::kRseqShuffled, 200000, 64, 86};
  const auto keys = GenerateKeys(spec);
  ExecutionContext exec{4};
  AdaptiveAggregator<CountAggregate> adaptive(keys.size(), exec);
  adaptive.Build(keys.data(), nullptr, keys.size());
  auto result = adaptive.Iterate();
  EXPECT_EQ(result.size(), 64u);
  EXPECT_EQ(adaptive.strategy_switches(), 0u);
  EXPECT_EQ(adaptive.switch_trace(), "local-central@0");
}

TEST(AdaptiveTest, EmptyInputYieldsEmptyResult) {
  AdaptiveAggregator<SumAggregate> adaptive(0, ExecutionContext{1});
  adaptive.Build(nullptr, nullptr, 0);
  EXPECT_TRUE(adaptive.Iterate().empty());
  EXPECT_EQ(adaptive.strategy_switches(), 0u);
}

TEST(AdaptiveTest, OneMemberSetPinsTheChoice) {
  DatasetSpec spec{Distribution::kRseqShuffled, 50000, 1000, 87};
  const auto keys = GenerateKeys(spec);
  ExecutionContext exec{2};
  exec.morsel_rows = 1024;
  AdaptiveOptions options;
  options.strategies = AggStrategySet::Of({AggStrategy::kSharedMap});
  AdaptiveAggregator<CountAggregate> adaptive(keys.size(), exec, options);
  adaptive.Build(keys.data(), nullptr, keys.size());
  EXPECT_EQ(adaptive.Iterate().size(), CountDistinct(keys));
  EXPECT_EQ(adaptive.strategy_switches(), 0u);
  EXPECT_EQ(adaptive.current_strategy(), AggStrategy::kSharedMap);
  EXPECT_EQ(adaptive.switch_trace(), "shared-map@0");
}

TEST(AdaptiveTest, SortFinishReportsGroupsAndBytes) {
  // A run that finishes on its sort strategy holds its rows in the sort
  // operator's buffers; both introspection calls must see them, before and
  // after Iterate().
  DatasetSpec spec{Distribution::kRseqShuffled, 100000, 5000, 92};
  const auto keys = GenerateKeys(spec);
  for (const int threads : {1, 4}) {
    AdaptiveOptions options;
    options.strategies = AggStrategySet::Of({AggStrategy::kSort});
    AdaptiveAggregator<CountAggregate> adaptive(keys.size(),
                                                ExecutionContext{threads},
                                                options);
    adaptive.Build(keys.data(), nullptr, keys.size());
    EXPECT_EQ(adaptive.NumGroups(), 5000u) << threads;
    EXPECT_GT(adaptive.DataStructureBytes(), 0u) << threads;
    EXPECT_EQ(adaptive.Iterate().size(), 5000u) << threads;
    EXPECT_EQ(adaptive.NumGroups(), 5000u) << threads;
    EXPECT_GT(adaptive.DataStructureBytes(), 0u) << threads;
  }
}

// --- The Hybrid set: hash (or local-central) with the sort fallback. ---

/// Options that force one hash→sort switch on a single worker: the
/// rotation hook switches at the first barrier, after the one-morsel
/// sampling chunk, and the doubled chunk then finishes a three-morsel input
/// in sort.
AdaptiveOptions ForcedHybridSwitch() {
  AdaptiveOptions options;
  options.strategies = kHybridStrategies;
  options.rotate = true;
  options.sample_morsels = 1;
  return options;
}

TEST(HybridTest, NumGroupsIsExactAndConstInSortMode) {
  // Keys 0..10 are hashed, then the switch spills them to sort, which also
  // takes 0..20: NumGroups() must count the keys on both sides of the
  // switch once, without reordering the buffers under a const call.
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k <= 10; ++k) keys.push_back(k);
  for (uint64_t k = 0; k <= 20; ++k) keys.push_back(k);
  ExecutionContext exec{1};
  exec.morsel_rows = 11;
  AdaptiveAggregator<CountAggregate> hybrid(keys.size(), exec,
                                            ForcedHybridSwitch());
  hybrid.Build(keys.data(), nullptr, keys.size());
  ASSERT_EQ(hybrid.current_strategy(), AggStrategy::kSort);
  EXPECT_EQ(hybrid.switch_trace(), "hash@0->sort@11");

  EXPECT_EQ(hybrid.NumGroups(), 21u);
  EXPECT_EQ(hybrid.NumGroups(), 21u);
  auto result = hybrid.Iterate();
  EXPECT_EQ(hybrid.NumGroups(), 21u);
  SortByKey(result);
  EXPECT_EQ(result,
            ReferenceVectorAggregate(keys, {}, AggregateFunction::kCount));
}

template <MergeableAggregatePolicy Aggregate>
void ExpectForcedSwitchIsExact(AggregateFunction fn) {
  DatasetSpec spec{Distribution::kZipf, 30000, 1000, 93};
  const auto keys = GenerateKeys(spec);
  const auto values = GenerateValues(keys.size(), 500, 94);
  ExecutionContext exec{1};
  exec.morsel_rows = 10000;
  AdaptiveAggregator<Aggregate> hybrid(keys.size(), exec,
                                       ForcedHybridSwitch());
  hybrid.Build(keys.data(), values.data(), keys.size());
  EXPECT_EQ(hybrid.strategy_switches(), 1u) << AggregateFunctionName(fn);
  auto result = hybrid.Iterate();
  SortByKey(result);
  const auto expected = ReferenceVectorAggregate(keys, values, fn);
  ASSERT_EQ(result.size(), expected.size()) << AggregateFunctionName(fn);
  for (size_t i = 0; i < result.size(); ++i) {
    EXPECT_EQ(result[i].key, expected[i].key);
    EXPECT_DOUBLE_EQ(result[i].value, expected[i].value);
  }
}

TEST(HybridTest, SwitchKeepsDistributiveAlgebraicAndHolisticExact) {
  ExpectForcedSwitchIsExact<CountAggregate>(AggregateFunction::kCount);
  ExpectForcedSwitchIsExact<AverageAggregate>(AggregateFunction::kAverage);
  ExpectForcedSwitchIsExact<MedianAggregate>(AggregateFunction::kMedian);
}

TEST(HybridTest, LowCardinalityStaysOnItsHashStrategy) {
  DatasetSpec spec{Distribution::kRseqShuffled, 200000, 64, 95};
  const auto keys = GenerateKeys(spec);
  for (const int threads : {1, 4}) {
    AdaptiveOptions options;
    options.strategies = kHybridStrategies;
    AdaptiveAggregator<CountAggregate> hybrid(keys.size(),
                                              ExecutionContext{threads},
                                              options);
    hybrid.Build(keys.data(), nullptr, keys.size());
    EXPECT_EQ(hybrid.Iterate().size(), 64u);
    EXPECT_EQ(hybrid.switch_trace(),
              threads == 1 ? "hash@0" : "local-central@0");
  }
}

TEST(HybridTest, ExplodingGroupsFallBackToSort) {
  // All-distinct keys against a small configured L3: the worker-local
  // tables' merge grows with the group count, and the only other member of
  // the set is sort.
  const size_t n = 1 << 20;
  DatasetSpec spec{Distribution::kRseqShuffled, n, n, 96};
  const auto keys = GenerateKeys(spec);
  AdaptiveOptions options;
  options.strategies = kHybridStrategies;
  options.l3_bytes = 256 * 1024;
  AdaptiveAggregator<CountAggregate> hybrid(n, ExecutionContext{4}, options);
  hybrid.Build(keys.data(), nullptr, n);
  EXPECT_EQ(hybrid.Iterate().size(), CountDistinct(keys));
  EXPECT_EQ(hybrid.current_strategy(), AggStrategy::kSort);
  EXPECT_EQ(hybrid.switch_trace().rfind("local-central@0->sort@", 0), 0u)
      << hybrid.switch_trace();
}

TEST(HybridTest, RotationVisitsOnlyTheSetsMembers) {
  DatasetSpec spec{Distribution::kRseqShuffled, 60000, 4096, 97};
  const auto keys = GenerateKeys(spec);
  ExecutionContext exec{4};
  exec.morsel_rows = 1024;
  AdaptiveOptions options;
  options.strategies = kHybridStrategies;
  options.rotate = true;
  options.chunk_morsels = 1;
  AdaptiveAggregator<CountAggregate> hybrid(keys.size(), exec, options);
  hybrid.Build(keys.data(), nullptr, keys.size());
  EXPECT_EQ(hybrid.Iterate().size(), CountDistinct(keys));
  EXPECT_GE(hybrid.strategy_switches(), 10u);
  const std::string& trace = hybrid.switch_trace();
  for (size_t at = 0; at < trace.size();) {
    const size_t name_end = trace.find('@', at);
    const std::string name = trace.substr(at, name_end - at);
    EXPECT_TRUE(name == "local-central" || name == "sort") << trace;
    const size_t arrow = trace.find("->", name_end);
    at = arrow == std::string::npos ? trace.size() : arrow + 2;
  }
}

TEST(HybridTest, EngineLabelMatchesTheReferenceOnEveryDistribution) {
  for (Distribution d : kAllDistributions) {
    for (uint64_t cardinality : {64ULL, 8192ULL}) {
      DatasetSpec spec{d, 60000, cardinality, 109};
      const auto keys = GenerateKeys(spec);
      const auto expected =
          ReferenceVectorAggregate(keys, {}, AggregateFunction::kCount);
      for (const int threads : {1, 4}) {
        auto execution = ExecuteVectorQuery(
            "Hybrid", AggregateFunction::kCount, keys.data(), nullptr,
            keys.size(), keys.size(), ExecutionContext{threads});
        SortByKey(execution.result);
        EXPECT_EQ(execution.result, expected)
            << DistributionName(d) << " c=" << cardinality << " @"
            << threads;
      }
    }
  }
}

TEST(HybridTest, ChoiceStaysInsideTheSet) {
  StrategyCostInputs in;
  in.rows_remaining = in.rows_total = 1e7;
  in.workers = 4;
  in.l3_bytes = 32 << 20;
  for (const double groups : {1e2, 1e5, 1e7}) {
    in.est_groups = groups;
    const AggStrategy pick = ChooseAggStrategy(in, kHybridStrategies);
    EXPECT_TRUE(pick == AggStrategy::kLocalCentral ||
                pick == AggStrategy::kSort)
        << AggStrategyName(pick) << " at " << groups << " groups";
  }
  EXPECT_EQ(FirstApplicableStrategy(kHybridStrategies, 1),
            AggStrategy::kSerialHash);
  EXPECT_EQ(FirstApplicableStrategy(kHybridStrategies, 4),
            AggStrategy::kLocalCentral);
  EXPECT_EQ(FirstApplicableStrategy(AggStrategySet{}, 4),
            AggStrategy::kLocalCentral);
}

// --- Engine and experiment integration. ---

TEST(AdaptiveTest, EngineLabelMatchesReference) {
  DatasetSpec spec{Distribution::kZipf, 100000, 10000, 88};
  const auto keys = GenerateKeys(spec);
  const auto values = GenerateValues(keys.size(), 1000, 89);
  auto expected = ReferenceVectorAggregate(keys, values,
                                           AggregateFunction::kSum);
  SortByKey(expected);
  for (int threads : {1, 4}) {
    auto execution = ExecuteVectorQuery("Adaptive", AggregateFunction::kSum,
                                        keys.data(), values.data(),
                                        keys.size(), keys.size(),
                                        ExecutionContext{threads});
    SortByKey(execution.result);
    ASSERT_EQ(execution.result.size(), expected.size()) << threads;
    for (size_t i = 0; i < execution.result.size(); ++i) {
      EXPECT_EQ(execution.result[i].key, expected[i].key) << threads;
      EXPECT_DOUBLE_EQ(execution.result[i].value, expected[i].value)
          << threads;
    }
    EXPECT_GT(execution.stats.Get(StatCounter::kAdaptiveStrategy), 0u)
        << threads;
  }
}

TEST(AdaptiveTest, AutoResolvesToAdaptiveForVectorQueries) {
  ExperimentConfig config;
  config.query = MakeQ1();
  config.dataset = DatasetSpec{Distribution::kRseqShuffled, 100000, 1000, 90};
  config.algorithm = "auto";
  config.num_threads = 2;
  const ExperimentResult result = RunExperiment(config);
  EXPECT_EQ(result.algorithm, "Adaptive");
  EXPECT_EQ(result.num_groups, 1000u);
}

TEST(AdaptiveTest, AutoKeepsStaticAdviceForRangeQueries) {
  ExperimentConfig config;
  config.query = MakeQ7();  // Range condition: needs ordered iteration.
  config.dataset = DatasetSpec{Distribution::kRseqShuffled, 50000, 1000, 91};
  config.algorithm = "auto";
  const ExperimentResult result = RunExperiment(config);
  EXPECT_EQ(result.algorithm, "ART");
}

}  // namespace
}  // namespace memagg
