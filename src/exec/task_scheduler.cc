#include "exec/task_scheduler.h"

#include <utility>

#include "util/lock_rank.h"
#include "util/macros.h"
#include "util/mutex.h"

namespace memagg {

TaskScheduler& TaskScheduler::Global() {
  static TaskScheduler* scheduler = new TaskScheduler();
  return *scheduler;
}

ThreadPool& TaskScheduler::pool() {
  MutexLock lock(pool_mutex_);
  if (!pool_) {
    pool_ = std::make_unique<ThreadPool>(Parallelism());
    threads_created_.fetch_add(static_cast<uint64_t>(pool_->num_threads()),
                               std::memory_order_relaxed);
  }
  return *pool_;
}

TaskScheduler::Stats TaskScheduler::stats() const {
  Stats stats;
  stats.threads_created = threads_created_.load(std::memory_order_relaxed);
  stats.tasks_run = tasks_run_.load(std::memory_order_relaxed);
  stats.groups_opened = groups_opened_.load(std::memory_order_relaxed);
  return stats;
}

struct TaskGroup::State {
  Mutex mutex{LockRank::kTaskGroup};
  CondVar changed;
  std::deque<std::function<void()>> queue GUARDED_BY(mutex);
  int in_flight GUARDED_BY(mutex) = 0;  // Tasks currently executing.
  int drivers GUARDED_BY(mutex) = 0;    // Pool driver tickets outstanding.
  int max_helpers GUARDED_BY(mutex) = 0;
  // Scheduler counter; the pointer is set once at group construction.
  std::atomic<uint64_t>* tasks_run GUARDED_BY(mutex) = nullptr;

  // Pops and runs queued tasks until the queue is empty. Entered and exited
  // with `mutex` held; drops it around each task body. Returns with the
  // queue empty *at that instant*; other tasks may still be in flight and
  // may refill the queue.
  void DrainLocked() REQUIRES(mutex) {
    while (!queue.empty()) {
      std::function<void()> task = std::move(queue.front());
      queue.pop_front();
      ++in_flight;
      std::atomic<uint64_t>* counter = tasks_run;
      mutex.Unlock();
      task();
      counter->fetch_add(1, std::memory_order_relaxed);
      mutex.Lock();
      --in_flight;
      if (in_flight == 0 && queue.empty()) {
        // Completion edge: wake the Wait()er (and any idle drivers so they
        // can retire).
        changed.NotifyAll();
      }
    }
  }
};

namespace {

/// Body of a pool driver ticket: drain the group's queue, then retire.
void DriveGroup(const std::shared_ptr<TaskGroup::State>& state) {
  MutexLock lock(state->mutex);
  state->DrainLocked();
  --state->drivers;
}

}  // namespace

TaskGroup::TaskGroup(int max_helpers) : state_(std::make_shared<State>()) {
  MEMAGG_CHECK(max_helpers >= 0);
  TaskScheduler& scheduler = TaskScheduler::Global();
  {
    MutexLock lock(state_->mutex);
    state_->max_helpers = max_helpers;
    state_->tasks_run = &scheduler.tasks_run_;
  }
  scheduler.groups_opened_.fetch_add(1, std::memory_order_relaxed);
}

TaskGroup::~TaskGroup() { Wait(); }

void TaskGroup::Submit(std::function<void()> task) {
  bool need_driver = false;
  {
    MutexLock lock(state_->mutex);
    state_->queue.push_back(std::move(task));
    if (state_->drivers < state_->max_helpers) {
      ++state_->drivers;
      need_driver = true;
    }
  }
  // Wake a blocked Wait()er so it can help with the new task.
  state_->changed.NotifyOne();
  if (need_driver) {
    // The ticket holds only a reference to the shared state: if it fires
    // after this group drained (or died), it finds an empty queue and
    // retires immediately.
    std::shared_ptr<State> state = state_;
    TaskScheduler::Global().pool().Submit([state] { DriveGroup(state); });
  }
}

void TaskGroup::Wait() {
  // Wait drains tasks of this group on the calling thread; holding any lock
  // here deadlocks as soon as a drained task wants it.
  lockrank::AssertNoneHeld("TaskGroup::Wait entered");
  MutexLock lock(state_->mutex);
  while (true) {
    state_->DrainLocked();
    if (state_->in_flight == 0 && state_->queue.empty()) return;
    while (state_->queue.empty() && state_->in_flight != 0) {
      state_->changed.Wait(state_->mutex);
    }
  }
}

}  // namespace memagg
