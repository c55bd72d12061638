// Tests for the query-stats observability layer (src/obs/query_stats.h):
// merge semantics, the per-worker registry, the RAII phase timer, JSON
// serialization, and — end to end — that every engine-registered operator
// reports non-zero phase timings plus at least one operator-specific
// counter through ExecuteVectorQuery.

#include "obs/query_stats.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/adaptive_aggregator.h"
#include "core/engine.h"
#include "core/table_exec.h"
#include "data/dataset.h"
#include "data/lineitem.h"
#include "exec/executor.h"
#include "test_util.h"

namespace memagg {
namespace {

TEST(QueryStatsTest, CountersSumByDefault) {
  QueryStats stats;
  stats.Add(StatCounter::kRehashes, 2);
  stats.Add(StatCounter::kRehashes, 3);
  EXPECT_EQ(stats.Get(StatCounter::kRehashes), 5u);
}

TEST(QueryStatsTest, MaxOfRaisesButNeverLowers) {
  QueryStats stats;
  stats.MaxOf(StatCounter::kProbeMax, 7);
  stats.MaxOf(StatCounter::kProbeMax, 3);
  EXPECT_EQ(stats.Get(StatCounter::kProbeMax), 7u);
}

TEST(QueryStatsTest, MergeSumsAndMaxesByCounterKind) {
  QueryStats a;
  a.Add(StatCounter::kHashEntries, 10);
  a.MaxOf(StatCounter::kProbeMax, 4);
  a.MaxOf(StatCounter::kWorkersUsed, 2);
  a.AddPhase(StatPhase::kBuild, 100, 1.0);

  QueryStats b;
  b.Add(StatCounter::kHashEntries, 5);
  b.MaxOf(StatCounter::kProbeMax, 9);
  b.MaxOf(StatCounter::kWorkersUsed, 1);
  b.AddPhase(StatPhase::kBuild, 50, 0.5);

  a.Merge(b);
  EXPECT_EQ(a.Get(StatCounter::kHashEntries), 15u);  // Sum-merged.
  EXPECT_EQ(a.Get(StatCounter::kProbeMax), 9u);      // Max-merged.
  EXPECT_EQ(a.Get(StatCounter::kWorkersUsed), 2u);   // Max-merged.
  EXPECT_EQ(a.PhaseCycles(StatPhase::kBuild), 150u);
  EXPECT_DOUBLE_EQ(a.PhaseMillis(StatPhase::kBuild), 1.5);
}

TEST(QueryStatsTest, TotalCountsOnlyBuildAndIterate) {
  // Subphases (partition/sort/merge) happen *inside* build or iterate;
  // adding them to the total would double-count.
  QueryStats stats;
  stats.AddPhase(StatPhase::kBuild, 100, 1.0);
  stats.AddPhase(StatPhase::kIterate, 50, 0.5);
  stats.AddPhase(StatPhase::kSort, 80, 0.8);
  stats.AddPhase(StatPhase::kPartition, 10, 0.1);
  stats.AddPhase(StatPhase::kMerge, 10, 0.1);
  EXPECT_EQ(stats.TotalCycles(), 150u);
  EXPECT_DOUBLE_EQ(stats.TotalMillis(), 1.5);
}

TEST(QueryStatsTest, PhaseTimerRecordsOnceEvenIfStoppedTwice) {
  QueryStats stats;
  {
    PhaseTimer timer(&stats, StatPhase::kBuild);
    timer.Stop();
    timer.Stop();  // Idempotent; destructor must not record again either.
  }
  if (StatsConfig::kEnabled) {
    EXPECT_GT(stats.PhaseCycles(StatPhase::kBuild), 0u);
  } else {
    EXPECT_EQ(stats.PhaseCycles(StatPhase::kBuild), 0u);
  }
  const uint64_t once = stats.PhaseCycles(StatPhase::kBuild);
  EXPECT_EQ(stats.PhaseCycles(StatPhase::kBuild), once);
}

TEST(QueryStatsTest, PhaseTimerToleratesNullTarget) {
  PhaseTimer timer(nullptr, StatPhase::kIterate);
  timer.Stop();  // Must not crash.
}

TEST(QueryStatsTest, RegistryShardsAreIndependentUntilCollect) {
  StatsRegistry registry(4);
  registry.WorkerShard(0).Add(StatCounter::kMorselsClaimed, 3);
  registry.WorkerShard(2).Add(StatCounter::kMorselsClaimed, 4);
  registry.WorkerShard(2).MaxOf(StatCounter::kWorkersUsed, 3);
  const QueryStats merged = registry.Collect();
  EXPECT_EQ(merged.Get(StatCounter::kMorselsClaimed), 7u);
  EXPECT_EQ(merged.Get(StatCounter::kWorkersUsed), 3u);
  registry.Reset();
  EXPECT_EQ(registry.Collect().Get(StatCounter::kMorselsClaimed), 0u);
}

// Out-of-range worker ids used to wrap modulo num_shards, silently aliasing
// two "workers" onto one shard and breaking the single-writer contract. They
// now fail loudly in all build modes.
TEST(QueryStatsDeathTest, RegistryRejectsOutOfRangeWorkerIds) {
  StatsRegistry registry(2);
  EXPECT_DEATH(registry.WorkerShard(5), "MEMAGG_CHECK");
  EXPECT_DEATH(registry.WorkerShard(-1), "MEMAGG_CHECK");
}

TEST(QueryStatsTest, RecordWallLeavesTheRestUnattributed) {
  // A nested call's stats are merged first: its wall and unattributed time
  // are replaced by the outer clock, which covers them.
  QueryStats nested;
  nested.AddPhase(StatPhase::kBuild, 100, 1.0);
  nested.AddPhase(StatPhase::kSort, 60, 0.6);
  nested.RecordWall(130, 1.3);
  EXPECT_EQ(nested.PhaseCycles(StatPhase::kUnattributed), 30u);
  QueryStats outer;
  outer.AddPhase(StatPhase::kSelect, 20, 0.2);
  outer.Merge(nested);
  outer.RecordWall(200, 2.0);
  EXPECT_EQ(outer.wall_cycles, 200u);
  EXPECT_EQ(outer.PhaseCycles(StatPhase::kUnattributed), 80u);
  EXPECT_NEAR(outer.PhaseMillis(StatPhase::kUnattributed), 0.8, 1e-9);
  // Subphases lie inside build and count towards nothing.
  EXPECT_EQ(outer.TotalCycles(), 100u);
}

TEST(QueryStatsTest, ToJsonEmitsOnlyNonZeroFields) {
  QueryStats stats;
  stats.AddPhase(StatPhase::kBuild, 123, 0.5);
  stats.Add(StatCounter::kHashEntries, 42);
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"build\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"hash_entries\":42"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"sort\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"rehashes\""), std::string::npos) << json;
  EXPECT_EQ(QueryStats{}.ToJson(),
            std::string("{\"phases\":{},\"counters\":{}}"));
}

// --- End-to-end: every engine label reports through ExecuteVectorQuery ----

struct LabelCase {
  std::string label;
  int threads;
};

/// Every registry row at one thread, and the parallel rows at four.
std::vector<LabelCase> AllEngineCases() {
  std::vector<LabelCase> cases;
  for (const LabelInfo& info : AllLabels()) {
    cases.push_back({info.name, 1});
    if (info.parallel) cases.push_back({info.name, 4});
  }
  return cases;
}

TEST(QueryStatsEndToEndTest, EveryOperatorReportsPhasesAndCounters) {
  if (!StatsConfig::kEnabled) GTEST_SKIP() << "stats compiled out";
  // Large enough that 4 threads get a multi-morsel grid (>= 2 * 16K rows).
  DatasetSpec spec{Distribution::kRseqShuffled, 100000, 500, 131};
  const auto keys = GenerateKeys(spec);
  const auto expected =
      ReferenceVectorAggregate(keys, {}, AggregateFunction::kCount);

  for (const LabelCase& c : AllEngineCases()) {
    SCOPED_TRACE(c.label + " threads=" + std::to_string(c.threads));
    VectorQueryExecution execution = ExecuteVectorQuery(
        c.label, AggregateFunction::kCount, keys.data(), nullptr, keys.size(),
        keys.size(), ExecutionContext{c.threads});
    SortByKey(execution.result);
    EXPECT_EQ(execution.result, expected);

    const QueryStats& stats = execution.stats;
    // Engine-recorded phases and universal counters.
    EXPECT_GT(stats.PhaseCycles(StatPhase::kBuild), 0u);
    EXPECT_GT(stats.PhaseCycles(StatPhase::kIterate), 0u);
    EXPECT_EQ(stats.Get(StatCounter::kRowsBuilt), keys.size());
    EXPECT_EQ(stats.Get(StatCounter::kGroupsOut), expected.size());
    EXPECT_EQ(stats.TotalCycles(), stats.PhaseCycles(StatPhase::kBuild) +
                                       stats.PhaseCycles(StatPhase::kIterate));

    // At least one operator-specific counter per algorithm family.
    switch (CategoryOfLabel(c.label)) {
      case AlgorithmCategory::kHash:
        EXPECT_GT(stats.Get(StatCounter::kHashEntries), 0u);
        break;
      case AlgorithmCategory::kTree:
        EXPECT_GT(stats.Get(StatCounter::kTreeNodes), 0u);
        break;
      case AlgorithmCategory::kSort:
        EXPECT_EQ(stats.Get(StatCounter::kRowsSorted), keys.size());
        EXPECT_GT(stats.PhaseCycles(StatPhase::kSort), 0u);
        break;
    }

    // Parallel hash operators drive the executor with the query's context,
    // so their morsel/worker accounting must surface. (Parallel sorts build
    // their executors inside the sort kernels, which take only a thread
    // count.)
    if (c.threads > 1 && c.label.rfind("Hash", 0) == 0) {
      EXPECT_GT(stats.Get(StatCounter::kMorselsClaimed), 0u);
      EXPECT_GE(stats.Get(StatCounter::kWorkersUsed), 1u);
      EXPECT_LE(stats.Get(StatCounter::kWorkersUsed),
                static_cast<uint64_t>(c.threads));
    }
  }
}

/// Checks that an entry call's stats account for its wall time: every
/// phase is non-negative and within the wall, and the top-level phases,
/// kUnattributed included, sum to it. `outer` is the caller's clock around
/// the call, which contains the call's own.
void ExpectWallAccounted(const QueryStats& stats, const CycleTimer& outer) {
  ASSERT_GT(stats.wall_cycles, 0u);
  EXPECT_LE(stats.wall_cycles, outer.ElapsedCycles());
  EXPECT_LE(stats.wall_millis, outer.ElapsedMillis());
  uint64_t cycles = 0;
  double millis = 0.0;
  for (size_t p = 0; p < kNumStatPhases; ++p) {
    const auto phase = static_cast<StatPhase>(p);
    EXPECT_GE(stats.PhaseMillis(phase), 0.0) << StatPhaseName(phase);
    EXPECT_LE(stats.PhaseCycles(phase), stats.wall_cycles)
        << StatPhaseName(phase);
    if (!IsTopLevelPhase(phase)) continue;
    cycles += stats.PhaseCycles(phase);
    millis += stats.PhaseMillis(phase);
  }
  EXPECT_EQ(cycles, stats.wall_cycles);
  EXPECT_NEAR(millis, stats.wall_millis, 1e-6);
}

TEST(QueryStatsEndToEndTest, VectorQueryPhasesSumToItsWall) {
  if (!StatsConfig::kEnabled) GTEST_SKIP() << "stats compiled out";
  DatasetSpec spec{Distribution::kZipf, 50000, 1000, 138};
  const auto keys = GenerateKeys(spec);
  CycleTimer outer;
  outer.Start();
  const auto execution =
      ExecuteVectorQuery("Hash_LP", AggregateFunction::kCount, keys.data(),
                         nullptr, keys.size(), keys.size());
  outer.Stop();
  ExpectWallAccounted(execution.stats, outer);
  EXPECT_GT(execution.stats.PhaseCycles(StatPhase::kSetup), 0u);
  EXPECT_EQ(execution.stats.PhaseCycles(StatPhase::kSelect), 0u);
}

TEST(QueryStatsEndToEndTest, TableQueryPhasesSumToItsWall) {
  if (!StatsConfig::kEnabled) GTEST_SKIP() << "stats compiled out";
  const Table table = GenerateLineitem(50000, 9);
  TableQuery q1;
  q1.group_by = {"l_returnflag", "l_linestatus"};
  q1.aggregates = {{AggregateFunction::kSum, "l_quantity", "sum_qty"},
                   {AggregateFunction::kSum, "l_extendedprice", "sum_price"},
                   {AggregateFunction::kCount, "", "count_order"}};
  q1.has_filter = true;
  q1.filter_column = "l_shipdate";
  q1.filter_max = kLineitemQ1ShipdateCutoff;
  CycleTimer outer;
  outer.Start();
  const TableQueryResult result = ExecuteTableQuery(table, q1, "Hash_LP");
  outer.Stop();
  ExpectWallAccounted(result.stats, outer);
  for (const StatPhase phase :
       {StatPhase::kSelect, StatPhase::kAssemble, StatPhase::kSetup}) {
    EXPECT_GT(result.stats.PhaseCycles(phase), 0u) << StatPhaseName(phase);
  }
}

TEST(QueryStatsEndToEndTest, ProbeStatsReportedForOpenAddressing) {
  if (!StatsConfig::kEnabled) GTEST_SKIP() << "stats compiled out";
  DatasetSpec spec{Distribution::kRseqShuffled, 20000, 1000, 132};
  const auto keys = GenerateKeys(spec);
  const auto execution =
      ExecuteVectorQuery("Hash_LP", AggregateFunction::kCount, keys.data(),
                         nullptr, keys.size(), keys.size());
  // Every resident entry probes at least once, so total >= entries >= max.
  EXPECT_EQ(execution.stats.Get(StatCounter::kHashEntries), 1000u);
  EXPECT_GE(execution.stats.Get(StatCounter::kProbeTotal), 1000u);
  EXPECT_GE(execution.stats.Get(StatCounter::kProbeMax), 1u);
}

TEST(QueryStatsEndToEndTest, RehashCounterFiresWhenTableIsUndersized) {
  if (!StatsConfig::kEnabled) GTEST_SKIP() << "stats compiled out";
  DatasetSpec spec{Distribution::kRseqShuffled, 20000, 10000, 133};
  const auto keys = GenerateKeys(spec);
  // expected_size=2 forces the linear-probing table to grow repeatedly.
  const auto execution = ExecuteVectorQuery(
      "Hash_LP", AggregateFunction::kCount, keys.data(), nullptr, keys.size(),
      /*expected_size=*/2);
  EXPECT_GT(execution.stats.Get(StatCounter::kRehashes), 0u);
}

TEST(QueryStatsEndToEndTest, HybridSwitchReportsTheSortPhase) {
  if (!StatsConfig::kEnabled) GTEST_SKIP() << "stats compiled out";
  // The Hybrid set forced across its hash→sort switch (one worker, three
  // morsels, rotation at the first barrier): the switch and the sort
  // strategy's rows and kernel time must surface.
  DatasetSpec spec{Distribution::kRseqShuffled, 30000, 15000, 134};
  const auto keys = GenerateKeys(spec);
  ExecutionContext exec{1};
  exec.morsel_rows = 10000;
  AdaptiveOptions options;
  options.strategies = kHybridStrategies;
  options.rotate = true;
  options.sample_morsels = 1;
  AdaptiveAggregator<CountAggregate> hybrid(keys.size(), exec, options);
  hybrid.Build(keys.data(), nullptr, keys.size());
  EXPECT_EQ(hybrid.Iterate().size(), CountDistinct(keys));
  QueryStats stats;
  hybrid.CollectStats(&stats);
  EXPECT_EQ(stats.Get(StatCounter::kStrategySwitches), 1u);
  // The sort strategy consumed the two morsels after the switch; the hashed
  // first morsel arrived as partial states.
  EXPECT_EQ(stats.Get(StatCounter::kRowsSorted), 20000u);
  EXPECT_GT(stats.PhaseCycles(StatPhase::kSort), 0u);
  EXPECT_EQ(stats.Get(StatCounter::kAdaptiveStrategy),
            static_cast<uint64_t>(AggStrategy::kSort) + 1);
}

TEST(QueryStatsEndToEndTest, LocalPartitionReportsMergeAccounting) {
  if (!StatsConfig::kEnabled) GTEST_SKIP() << "stats compiled out";
  DatasetSpec spec{Distribution::kRseqShuffled, 100000, 500, 135};
  const auto keys = GenerateKeys(spec);
  const auto execution =
      ExecuteVectorQuery("Hash_PLocal", AggregateFunction::kCount, keys.data(),
                         nullptr, keys.size(), keys.size(),
                         ExecutionContext{4});
  EXPECT_EQ(execution.stats.Get(StatCounter::kPartitions), 4u);
  EXPECT_GT(execution.stats.PhaseCycles(StatPhase::kMerge), 0u);
}

TEST(QueryStatsEndToEndTest, RadixPartitionReportsMergePhase) {
  if (!StatsConfig::kEnabled) GTEST_SKIP() << "stats compiled out";
  DatasetSpec spec{Distribution::kRseqShuffled, 100000, 500, 136};
  const auto keys = GenerateKeys(spec);
  const auto execution =
      ExecuteVectorQuery("Hash_PRadix", AggregateFunction::kCount, keys.data(),
                         nullptr, keys.size(), keys.size(),
                         ExecutionContext{4});
  EXPECT_EQ(execution.stats.Get(StatCounter::kPartitions), 4u);
  EXPECT_EQ(execution.stats.Get(StatCounter::kMergeRounds), 1u);
  EXPECT_GT(execution.stats.PhaseCycles(StatPhase::kMerge), 0u);
  // The worker copies of each partition merge inside the iterate phase.
  EXPECT_LE(execution.stats.PhaseCycles(StatPhase::kMerge),
            execution.stats.PhaseCycles(StatPhase::kIterate));
}

TEST(QueryStatsEndToEndTest, CuckooKicksSurfaceUnderChurn) {
  if (!StatsConfig::kEnabled) GTEST_SKIP() << "stats compiled out";
  DatasetSpec spec{Distribution::kRseqShuffled, 50000, 20000, 137};
  const auto keys = GenerateKeys(spec);
  // An undersized cuckoo table must displace entries while growing.
  const auto execution = ExecuteVectorQuery(
      "Hash_LC", AggregateFunction::kCount, keys.data(), nullptr, keys.size(),
      /*expected_size=*/16);
  EXPECT_EQ(execution.stats.Get(StatCounter::kHashEntries), 20000u);
  EXPECT_GT(execution.stats.Get(StatCounter::kCuckooKicks), 0u);
}

}  // namespace
}  // namespace memagg
