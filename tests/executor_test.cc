// Tests for the morsel-driven execution layer (src/exec/): morsel coverage,
// skewed-cost balancing, nested submits, serial fallthrough, empty input,
// and the scheduler's thread-creation stats hook.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "exec/executor.h"
#include "exec/morsel.h"
#include "exec/task_scheduler.h"

namespace memagg {
namespace {

TEST(MorselTest, GridCoversInputExactly) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{100}, size_t{65536},
                   size_t{65537}, size_t{1000000}}) {
    const size_t grain = ChooseMorselRows(n, 4);
    ASSERT_GE(grain, kMinMorselRows);
    ASSERT_LE(grain, kMaxMorselRows);
    MorselCursor cursor(n, grain);
    size_t covered = 0;
    size_t expected_begin = 0;
    Morsel m;
    while (cursor.TryClaim(0, &m)) {
      EXPECT_EQ(m.begin, expected_begin);
      EXPECT_GT(m.end, m.begin);
      covered += m.end - m.begin;
      expected_begin = m.end;
    }
    EXPECT_EQ(covered, n);
    EXPECT_FALSE(cursor.TryClaim(0, &m));  // Exhausted cursors stay dry.
  }
}

TEST(ExecutorTest, EveryIndexVisitedExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    const size_t n = 300000;
    std::vector<std::atomic<uint32_t>> visits(n);
    Executor exec{ExecutionContext{threads}};
    exec.ParallelFor(n, [&](const Morsel& m) {
      ASSERT_GE(m.worker, 0);
      ASSERT_LT(m.worker, exec.num_workers());
      for (size_t i = m.begin; i < m.end; ++i) {
        visits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(visits[i].load(), 1u) << "index " << i;
    }
  }
}

TEST(ExecutorTest, SkewedPerMorselCostStillCoversAndBalances) {
  // Morsel cost grows quadratically with position — the regime where static
  // equal-size chunking assigns one chunk all the work. The atomic cursor
  // must still cover everything, and no worker slot may claim more rows than
  // it could under dynamic claiming (trivially true) — we assert coverage
  // and that per-worker accounting sums to n.
  const size_t n = 400000;
  const int threads = 4;
  Executor exec{ExecutionContext{threads}};
  WorkerLocal<uint64_t> rows_per_worker(exec.num_workers());
  std::atomic<uint64_t> checksum{0};
  exec.ParallelFor(n, [&](const Morsel& m) {
    uint64_t local = 0;
    for (size_t i = m.begin; i < m.end; ++i) {
      // Skew: later rows are ~100x more expensive than early rows.
      const uint64_t reps = 1 + (i * 100) / n;
      for (uint64_t r = 0; r < reps; ++r) local += i ^ r;
    }
    checksum.fetch_add(local, std::memory_order_relaxed);
    rows_per_worker[m.worker] += m.end - m.begin;
  });
  uint64_t total_rows = 0;
  rows_per_worker.ForEach([&total_rows](uint64_t rows) { total_rows += rows; });
  EXPECT_EQ(total_rows, n);
  EXPECT_NE(checksum.load(), 0u);
}

TEST(ExecutorTest, SerialContextRunsOnCallingThreadWithoutThePool) {
  Executor exec{ExecutionContext{1}};
  const auto caller = std::this_thread::get_id();
  const uint64_t tasks_before = TaskScheduler::Global().stats().tasks_run;
  size_t rows = 0;
  exec.ParallelFor(100000, [&](const Morsel& m) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    rows += m.end - m.begin;
  });
  EXPECT_EQ(rows, 100000u);
  // Serial fallthrough never touches the scheduler.
  EXPECT_EQ(TaskScheduler::Global().stats().tasks_run, tasks_before);
}

TEST(ExecutorTest, EmptyInputDrainsWithoutWork) {
  Executor exec{ExecutionContext{8}};
  int calls = 0;
  exec.ParallelFor(0, [&](const Morsel&) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ExecutorTest, NestedParallelForIsSafe) {
  // An inner ParallelFor inside a morsel of an outer one must not deadlock
  // (the waiting caller always participates) and must cover its own range.
  Executor outer{ExecutionContext{4}};
  std::atomic<uint64_t> total{0};
  outer.ParallelFor(
      8,
      [&](const Morsel& outer_m) {
        for (size_t o = outer_m.begin; o < outer_m.end; ++o) {
          Executor inner{ExecutionContext{2}};
          inner.ParallelFor(40000, [&](const Morsel& inner_m) {
            total.fetch_add(inner_m.end - inner_m.begin,
                            std::memory_order_relaxed);
          });
        }
      },
      /*grain=*/1);
  EXPECT_EQ(total.load(), 8u * 40000u);
}

TEST(TaskGroupTest, TasksMaySubmitFurtherTasks) {
  TaskGroup group(3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) {
    group.Submit([&group, &ran] {
      ran.fetch_add(1);
      group.Submit([&group, &ran] {
        ran.fetch_add(1);
        group.Submit([&ran] { ran.fetch_add(1); });
      });
    });
  }
  group.Wait();
  EXPECT_EQ(ran.load(), 12);
}

TEST(TaskGroupTest, WaitOnEmptyGroupReturnsImmediately) {
  TaskGroup group(2);
  group.Wait();  // Nothing submitted; must not hang.
  group.Wait();  // Wait must be re-entrant after a drain.
}

TEST(SchedulerStatsTest, NoThreadCreationAfterWarmUp) {
  WarmUpScheduler();
  const uint64_t threads_before = TaskScheduler::Global().stats().threads_created;
  EXPECT_GT(threads_before, 0u);
  // A steady-state parallel operation reuses the warm pool: zero new threads.
  Executor exec{ExecutionContext{8}};
  std::atomic<uint64_t> sink{0};
  for (int round = 0; round < 3; ++round) {
    exec.ParallelFor(200000, [&](const Morsel& m) {
      sink.fetch_add(m.end - m.begin, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(TaskScheduler::Global().stats().threads_created, threads_before);
  EXPECT_EQ(sink.load(), 3u * 200000u);
}

TEST(SchedulerStatsTest, ParallelismIsAtLeastOne) {
  EXPECT_GE(Parallelism(), 1);
}

}  // namespace
}  // namespace memagg
