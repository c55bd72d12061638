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

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/advisor.h"
#include "core/engine.h"
#include "core/migratable.h"
#include "core/query.h"
#include "core/tree_aggregator.h"
#include "data/dataset.h"
#include "test_util.h"
#include "tree/art.h"

namespace memagg {
namespace {

// --- MigratableAggregator pair-wise migration (direct interface use). ---

template <MergeableAggregatePolicy Aggregate>
struct Migratable {
  const char* name;
  std::unique_ptr<MigratableAggregator<Aggregate>> op;
};

template <MergeableAggregatePolicy Aggregate>
std::vector<Migratable<Aggregate>> AllMigratables(size_t expected,
                                                  ExecutionContext exec) {
  std::vector<Migratable<Aggregate>> out;
  out.push_back({"hash", std::make_unique<HashVectorAggregator<
                             LinearProbingMap, Aggregate>>(expected)});
  out.push_back(
      {"tree", std::make_unique<TreeVectorAggregator<ArtTree, Aggregate>>()});
  out.push_back({"local-central",
                 std::make_unique<LocalPartitionAggregator<Aggregate>>(
                     expected, exec, Aggregate{}, LocalMergeMode::kCentral)});
  out.push_back({"local-tree",
                 std::make_unique<LocalPartitionAggregator<Aggregate>>(
                     expected, exec, Aggregate{}, LocalMergeMode::kTree)});
  out.push_back({"radix", std::make_unique<RadixPartitionAggregator<Aggregate>>(
                              expected, exec)});
  out.push_back({"shared-map",
                 std::make_unique<StripedParallelAggregator<Aggregate>>(
                     expected, exec)});
  out.push_back({"sort", std::make_unique<SortVectorAggregator<
                             BlockIndirectSorter, Aggregate>>()});
  return out;
}

/// Feeds morsels [first_morsel, last_morsel) of the `grain`-row grid over
/// `keys` to `op`, dealt round-robin to `workers` worker slots the way
/// concurrent workers would claim them.
void ConsumeRange(VectorAggregator* op, const std::vector<uint64_t>& keys,
                  const uint64_t* values, size_t grain, size_t first_morsel,
                  size_t last_morsel, int workers = 1) {
  for (size_t i = first_morsel; i < last_morsel; ++i) {
    Morsel m;
    m.index = i;
    m.begin = i * grain;
    m.end = std::min(keys.size(), m.begin + grain);
    m.worker = static_cast<int>(i % static_cast<size_t>(workers));
    op->ConsumeMorsel(keys.data(), values, m);
  }
}

template <MergeableAggregatePolicy Aggregate>
void ExpectEveryPairMigratesExactly(AggregateFunction fn) {
  DatasetSpec spec{Distribution::kRseqShuffled, 20000, 512, 71};
  const auto keys = GenerateKeys(spec);
  const auto values = GenerateValues(keys.size(), 1000, 72);
  auto expected = ReferenceVectorAggregate(keys, values, fn);
  SortByKey(expected);

  const size_t grain = 1024;
  const size_t num_morsels = NumMorselsFor(keys.size(), grain);
  const size_t half = num_morsels / 2;
  const ExecutionContext exec{1};
  const size_t names = AllMigratables<Aggregate>(512, exec).size();

  for (size_t a = 0; a < names; ++a) {
    for (size_t b = 0; b < names; ++b) {
      auto froms = AllMigratables<Aggregate>(512, exec);
      auto tos = AllMigratables<Aggregate>(512, exec);
      Migratable<Aggregate>& from = froms[a];
      Migratable<Aggregate>& to = tos[b];
      const std::string pair = std::string(from.name) + " -> " + to.name +
                               " " + AggregateFunctionName(fn);

      from.op->BeginConsume(1, keys.size());
      ConsumeRange(from.op.get(), keys, values.data(), grain, 0, half);
      const ProgressSnapshot progress = from.op->Progress();
      EXPECT_EQ(progress.rows, half * grain) << pair;

      to.op->BeginConsume(1, keys.size());
      to.op->AbsorbPartialState(from.op->ExtractPartialState());
      ConsumeRange(to.op.get(), keys, values.data(), grain, half,
                   num_morsels);
      to.op->EndBatch();
      auto result = to.op->Iterate();
      SortByKey(result);

      ASSERT_EQ(result.size(), expected.size()) << pair;
      for (size_t i = 0; i < result.size(); ++i) {
        EXPECT_EQ(result[i].key, expected[i].key) << pair;
        EXPECT_DOUBLE_EQ(result[i].value, expected[i].value) << pair;
      }
    }
  }
}

// COUNT moves keys-only sort rows, SUM distributive partials, and MEDIAN
// holistic value buffers.
TEST(MigratableTest, EveryPairMigratesExactly) {
  ExpectEveryPairMigratesExactly<CountAggregate>(AggregateFunction::kCount);
  ExpectEveryPairMigratesExactly<SumAggregate>(AggregateFunction::kSum);
  ExpectEveryPairMigratesExactly<MedianAggregate>(AggregateFunction::kMedian);
}

template <MergeableAggregatePolicy Aggregate>
void ExpectProgressReportsRowsAndGroups() {
  DatasetSpec spec{Distribution::kRseqShuffled, 8192, 64, 73};
  const auto keys = GenerateKeys(spec);
  const std::vector<uint64_t> values(keys.size(), 1);
  const ExecutionContext exec{1};
  for (auto& factory : AllMigratables<Aggregate>(64, exec)) {
    factory.op->BeginConsume(1, keys.size());
    ConsumeRange(factory.op.get(), keys, values.data(), 1024, 0,
                 NumMorselsFor(keys.size(), 1024));
    const ProgressSnapshot progress = factory.op->Progress();
    EXPECT_EQ(progress.rows, keys.size()) << factory.name;
    EXPECT_GT(progress.bytes, 0u) << factory.name;
    // Sort buffers raw rows and reports no group estimate; hash-family
    // structures must have materialized every distinct key.
    if (std::string(factory.name) != "sort") {
      EXPECT_GE(progress.groups, 64u) << factory.name;
    }
  }
}

TEST(MigratableTest, ProgressReportsRowsAndGroups) {
  ExpectProgressReportsRowsAndGroups<CountAggregate>();
  ExpectProgressReportsRowsAndGroups<SumAggregate>();
  ExpectProgressReportsRowsAndGroups<MedianAggregate>();
}

// The radix tables that hold the consumed rows are the ones NumGroups()
// and DataStructureBytes() read, before Iterate() as after it.
TEST(MigratableTest, RadixReportsGroupsAndBytesWhileConsuming) {
  DatasetSpec spec{Distribution::kRseqShuffled, 200000, 50000, 74};
  const auto keys = GenerateKeys(spec);
  const auto values = GenerateValues(keys.size(), 1000, 75);
  const size_t distinct = CountDistinct(keys);
  RadixPartitionAggregator<SumAggregate> radix(64, ExecutionContext{4});
  radix.BeginConsume(4, keys.size());
  ConsumeRange(&radix, keys, values.data(), 4096, 0,
               NumMorselsFor(keys.size(), 4096), /*workers=*/4);
  // An upper bound before the merge: a key counts once per worker.
  EXPECT_GE(radix.NumGroups(), distinct);
  EXPECT_GE(radix.DataStructureBytes(),
            distinct * sizeof(SumAggregate::State));
  radix.EndBatch();
  EXPECT_EQ(radix.Iterate().size(), distinct);
  EXPECT_EQ(radix.NumGroups(), distinct);

  DatasetSpec small{Distribution::kRseqShuffled, 100000, 5000, 76};
  const auto small_keys = GenerateKeys(small);
  AdaptiveOptions options;
  options.strategies = AggStrategySet::Of({AggStrategy::kRadix});
  AdaptiveAggregator<CountAggregate> adaptive(small_keys.size(),
                                              ExecutionContext{4}, options);
  adaptive.Build(small_keys.data(), nullptr, small_keys.size());
  EXPECT_GE(adaptive.NumGroups(), 5000u);
  EXPECT_GE(adaptive.DataStructureBytes(),
            5000 * sizeof(CountAggregate::State));
  EXPECT_EQ(adaptive.Iterate().size(), 5000u);
  EXPECT_EQ(adaptive.NumGroups(), 5000u);
}

// COUNT ignores values, so its sort rows are bare keys on the morsel path
// too: 8 B/row (paper Tables 6-7) plus O(workers), whether one worker
// appends to the sorted buffer or several fill private buffers.
TEST(MigratableTest, SortCountRowsTakeEightBytesOnTheMorselPath) {
  DatasetSpec spec{Distribution::kRseqShuffled, 200000, 5000, 77};
  const auto keys = GenerateKeys(spec);
  for (const int workers : {1, 4}) {
    SortVectorAggregator<SpreadsortSorter, CountAggregate> sort;
    sort.BeginConsume(workers, keys.size());
    ConsumeRange(&sort, keys, nullptr, 5000, 0,
                 NumMorselsFor(keys.size(), 5000), workers);
    const size_t bound =
        keys.size() * sizeof(uint64_t) + 64 * static_cast<size_t>(workers);
    EXPECT_LE(sort.DataStructureBytes(), bound) << workers;
    sort.EndBatch();
    EXPECT_LE(sort.DataStructureBytes(), bound) << workers;
    EXPECT_EQ(sort.Iterate().size(), 5000u) << workers;
    EXPECT_LE(sort.DataStructureBytes(), bound) << workers;
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
      // Appends only: GCC 12 at -O3 reports a false -Wrestrict overlap in
      // `"literal" + std::string&&` (its front insert) in this file.
      std::string name = "t";
      name += std::to_string(std::get<0>(info.param));
      name += "_c";
      name += std::to_string(std::get<1>(info.param));
      return name;
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

// --- Engine integration. ---

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

// "auto" has one meaning across the front-ends: the Figure 12 advisor.
TEST(AdaptiveTest, AutoIsTheAdvisorsPickForVectorQueries) {
  const auto keys =
      GenerateKeys(DatasetSpec{Distribution::kRseqShuffled, 100000, 1000, 90});
  const VectorQueryExecution execution = ExecuteVectorQuery(
      "auto", AggregateFunction::kCount, keys.data(), nullptr, keys.size(),
      keys.size(), ExecutionContext{2});
  EXPECT_EQ(execution.label,
            RecommendAlgorithm(ProfileForQuery(MakeQ1(), /*worm=*/false,
                                               /*prebuilt_index=*/false,
                                               /*num_threads=*/2)));
  EXPECT_NE(execution.label, kAdaptiveLabel);
  EXPECT_EQ(execution.result.size(), 1000u);
}

TEST(AdaptiveTest, AutoKeepsStaticAdviceForRangeQueries) {
  const Query q7 = MakeQ7();  // Range condition: needs ordered iteration.
  const auto keys =
      GenerateKeys(DatasetSpec{Distribution::kRseqShuffled, 50000, 1000, 91});
  const VectorQueryExecution execution = ExecuteVectorQuery(
      "auto", q7.function, keys.data(), nullptr, keys.size(), keys.size(), {},
      KeyRange{q7.range_lo, q7.range_hi});
  EXPECT_EQ(execution.label, "ART");
  EXPECT_EQ(execution.result,
            ReferenceVectorAggregate(keys, {}, q7.function, q7.range_lo,
                                     q7.range_hi));  // ART emits key order.
}

}  // namespace
}  // namespace memagg
