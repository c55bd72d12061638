// TSan-facing stress test for the three annotated hot structures:
// TaskScheduler/TaskGroup, StatsRegistry shards, and StripedMap. The Clang
// thread-safety annotations assert the locking protocol statically; this
// test drives the same invariants dynamically so the TSan CI job (and plain
// tier-1 runs) exercise what the annotations promise:
//
//   * TaskGroup queue/in-flight state is consistent under concurrent
//     Submit/Wait from many groups sharing one pool.
//   * StatsRegistry shard `w` is written only by the worker occupying slot
//     `w` of one parallel loop; Collect() between loops sees every claim.
//   * StripedMap stripe locks make Upsert linearizable per key.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/adaptive_aggregator.h"
#include "data/dataset.h"
#include "exec/executor.h"
#include "exec/task_scheduler.h"
#include "hash/linear_probing_map.h"
#include "hash/striped_map.h"
#include "obs/query_stats.h"
#include "util/rng.h"

namespace memagg {
namespace {

// Sized for TSan: large enough to force real interleavings (multiple
// morsels per worker, contended stripes), small enough to finish in seconds
// under 10-20x sanitizer slowdown.
constexpr int kQueryThreads = 4;
constexpr int kWorkersPerQuery = 4;
constexpr size_t kRowsPerQuery = 1 << 16;
constexpr uint64_t kKeyRange = 1024;

// Each "query" thread runs its own morsel loop (own TaskGroup, own
// StatsRegistry) over the shared process-wide scheduler while all of them
// upsert into one shared StripedMap.
TEST(ConcurrencyStressTest, SchedulerRegistryAndStripedMapTogether) {
  StripedMap<LinearProbingMap<uint64_t>> map(kKeyRange);
  std::atomic<uint64_t> morsels_recorded{0};
  std::vector<std::thread> queries;
  for (int q = 0; q < kQueryThreads; ++q) {
    queries.emplace_back([&map, &morsels_recorded, q] {
      StatsRegistry registry(kWorkersPerQuery);
      ExecutionContext ctx(kWorkersPerQuery);
      ctx.stats = &registry;
      ctx.morsel_rows = 1 << 12;  // Several morsels per worker.
      Executor exec(ctx);
      exec.ParallelFor(kRowsPerQuery, [&map, q](const Morsel& m) {
        Rng rng(static_cast<uint64_t>(q) * 7919 + m.index);
        for (size_t i = m.begin; i < m.end; ++i) {
          map.Upsert(rng.NextBounded(kKeyRange),
                     [](uint64_t& count) { ++count; });
        }
      });
      // Collect() between parallel phases must see every claimed morsel.
      const QueryStats stats = registry.Collect();
      EXPECT_EQ(stats.Get(StatCounter::kMorselsClaimed),
                exec.NumMorsels(kRowsPerQuery));
      EXPECT_LE(stats.Get(StatCounter::kWorkersUsed),
                static_cast<uint64_t>(kWorkersPerQuery));
      morsels_recorded.fetch_add(stats.Get(StatCounter::kMorselsClaimed),
                                 std::memory_order_relaxed);
    });
  }
  for (auto& query : queries) query.join();

  // No update was lost across stripes: total count equals total rows.
  uint64_t total = 0;
  map.ForEach([&total](uint64_t, const uint64_t& count) { total += count; });
  EXPECT_EQ(total, static_cast<uint64_t>(kQueryThreads) * kRowsPerQuery);
  EXPECT_LE(map.size(), kKeyRange);
  EXPECT_GT(morsels_recorded.load(), 0u);
}

// Many short-lived TaskGroups with nested submits, all sharing the global
// pool: group completion tracking (queue + in_flight under the group mutex)
// must never wait on another group's tasks or drop its own.
TEST(ConcurrencyStressTest, TaskGroupChurnWithNestedSubmits) {
  constexpr int kGroups = 64;
  constexpr int kTasksPerGroup = 32;
  const TaskScheduler::Stats before = TaskScheduler::Global().stats();
  std::atomic<uint64_t> executed{0};
  std::vector<std::thread> drivers;
  for (int d = 0; d < kQueryThreads; ++d) {
    drivers.emplace_back([&executed] {
      for (int g = 0; g < kGroups / kQueryThreads; ++g) {
        TaskGroup group(/*max_helpers=*/3);
        for (int t = 0; t < kTasksPerGroup; ++t) {
          group.Submit([&executed, &group] {
            // Nested submit from inside a task of the same group (the
            // task-pool quicksort pattern).
            group.Submit(
                [&executed] { executed.fetch_add(1, std::memory_order_relaxed); });
            executed.fetch_add(1, std::memory_order_relaxed);
          });
        }
        group.Wait();
      }
    });
  }
  for (auto& driver : drivers) driver.join();
  EXPECT_EQ(executed.load(), 2ull * kGroups * kTasksPerGroup);
  const TaskScheduler::Stats after = TaskScheduler::Global().stats();
  EXPECT_GE(after.tasks_run, before.tasks_run);
  EXPECT_EQ(after.groups_opened - before.groups_opened,
            static_cast<uint64_t>(kGroups));
}

// Per-worker shards must merge exactly: every worker slot of one loop owns
// its shard, and no write is lost when loops run back-to-back.
TEST(ConcurrencyStressTest, StatsShardsMergeExactly) {
  StatsRegistry registry(kWorkersPerQuery);
  ExecutionContext ctx(kWorkersPerQuery);
  ctx.stats = &registry;
  ctx.morsel_rows = 1 << 10;
  Executor exec(ctx);
  constexpr int kLoops = 16;
  constexpr size_t kRows = 1 << 14;
  std::atomic<uint64_t> touched{0};
  for (int loop = 0; loop < kLoops; ++loop) {
    exec.ParallelFor(kRows, [&touched](const Morsel& m) {
      touched.fetch_add(m.end - m.begin, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(touched.load(), static_cast<uint64_t>(kLoops) * kRows);
  const QueryStats stats = registry.Collect();
  EXPECT_EQ(stats.Get(StatCounter::kMorselsClaimed),
            static_cast<uint64_t>(kLoops) * exec.NumMorsels(kRows));
}

// Mid-switch migration under concurrency: the adaptive operator's
// ExtractPartialState/AbsorbPartialState run at a chunk barrier while the
// surrounding morsel loops use the full worker complement. Forced rotation
// at every boundary maximizes switch frequency, so TSan sees the handoff
// between the workers of the old strategy's last chunk and the new
// strategy's first chunk. Multiple query threads interleave their switches
// over the one shared scheduler pool.
TEST(ConcurrencyStressTest, AdaptiveMigrationAtEveryBoundary) {
  DatasetSpec spec{Distribution::kRseqShuffled, kRowsPerQuery, kKeyRange, 97};
  const auto keys = GenerateKeys(spec);
  const uint64_t distinct = CountDistinct(keys);
  std::vector<std::thread> queries;
  std::atomic<uint64_t> switches_seen{0};
  for (int q = 0; q < kQueryThreads; ++q) {
    queries.emplace_back([&keys, &switches_seen, distinct] {
      ExecutionContext ctx(kWorkersPerQuery);
      ctx.morsel_rows = 1 << 12;  // Several morsels per worker per chunk.
      AdaptiveOptions options;
      options.rotate = true;
      options.chunk_morsels = 1;
      AdaptiveAggregator<CountAggregate> adaptive(keys.size(), ctx, options);
      adaptive.Build(keys.data(), nullptr, keys.size());
      const auto result = adaptive.Iterate();
      EXPECT_EQ(result.size(), distinct);
      double total = 0;
      for (const GroupResult& row : result) total += row.value;
      EXPECT_DOUBLE_EQ(total, static_cast<double>(keys.size()));
      switches_seen.fetch_add(adaptive.strategy_switches(),
                              std::memory_order_relaxed);
    });
  }
  for (auto& query : queries) query.join();
  // 16 morsels per query, a forced switch at every interior boundary.
  EXPECT_GE(switches_seen.load(),
            static_cast<uint64_t>(kQueryThreads) * 10);
}

}  // namespace
}  // namespace memagg
