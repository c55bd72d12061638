// Process-wide task scheduling substrate for all parallel operators.
//
// One lazily-initialized ThreadPool (sized to hardware parallelism) is shared
// by every query, operator, and parallel sort in the process. Operators never
// construct std::thread themselves: they submit work through a TaskGroup,
// which scopes completion tracking to one parallel operation so unrelated
// queries on the same pool never wait on each other.
//
// TaskGroup rules:
//   * Submit() may be called from anywhere, including from inside a task of
//     the same group (nested submits are how the task-pool quicksorts spawn
//     subranges).
//   * Wait() is cooperative: the calling thread drains the group's queue
//     itself while waiting, so a group always completes even when every pool
//     worker is busy with other groups (and on machines with one core).
//     Tasks must not block on other tasks.
//   * Group state is reference-counted; pool-side driver tickets that fire
//     after the group is destroyed are harmless no-ops.
//
// The scheduler exposes a stats hook (threads created, tasks run, groups
// opened) so benchmarks can assert that steady-state queries create zero
// threads.

#ifndef MEMAGG_EXEC_TASK_SCHEDULER_H_
#define MEMAGG_EXEC_TASK_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "exec/thread_pool.h"
#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace memagg {

/// Owner of the process-wide worker pool, plus scheduling counters.
class TaskScheduler {
 public:
  /// Monotonic counters; read deltas around a region of interest.
  struct Stats {
    uint64_t threads_created = 0;  ///< OS threads started by the scheduler.
    uint64_t tasks_run = 0;        ///< Tasks executed (on pool or helpers).
    uint64_t groups_opened = 0;    ///< TaskGroups constructed.
  };

  /// The process-wide scheduler. The pool itself is created on first use.
  static TaskScheduler& Global();

  /// The shared pool, constructing it (once) with Parallelism() threads.
  ThreadPool& pool() EXCLUDES(pool_mutex_);

  Stats stats() const;

 private:
  friend class TaskGroup;
  TaskScheduler() = default;

  Mutex pool_mutex_{LockRank::kSchedulerPool};
  std::unique_ptr<ThreadPool> pool_ GUARDED_BY(pool_mutex_);
  std::atomic<uint64_t> threads_created_{0};
  std::atomic<uint64_t> tasks_run_{0};
  std::atomic<uint64_t> groups_opened_{0};
};

/// A set of tasks tracked as one unit on the global pool.
class TaskGroup {
 public:
  /// `max_helpers` bounds how many pool workers may drive this group
  /// concurrently (the Wait()ing caller always participates on top).
  explicit TaskGroup(int max_helpers);
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues a task. Safe to call from inside a task of this group.
  void Submit(std::function<void()> task);

  /// Runs queued tasks on the calling thread until the group is fully
  /// drained (queue empty and no task in flight), then returns.
  ///
  /// Must be called with no locks held (enforced under MEMAGG_LOCK_RANK):
  /// Wait drains arbitrary tasks of this group on the calling thread, and a
  /// drained task that wants a lock the waiter holds deadlocks the query.
  void Wait();

  /// Shared between the group handle, its pool driver tickets, and the
  /// Wait()ing caller; defined in task_scheduler.cc.
  struct State;

 private:
  std::shared_ptr<State> state_;
};

}  // namespace memagg

#endif  // MEMAGG_EXEC_TASK_SCHEDULER_H_
