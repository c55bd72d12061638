// Morsel-driven parallel execution API — the one way memagg operators run
// work on multiple threads.
//
// An ExecutionContext carries the caller's thread budget (and an optional
// morsel-grain override) from the engine factories down into operators and
// sorts. An Executor turns that context into parallel loops over the shared
// process-wide pool (exec/task_scheduler.h):
//
//   Executor exec(ctx);
//   exec.ParallelFor(n, [&](const Morsel& m) {
//     for (size_t i = m.begin; i < m.end; ++i) Consume(i);   // m.worker is a
//   });                                                      // stable slot id
//
// Guarantees:
//   * Every row in [0, n) is covered by exactly one Morsel invocation.
//   * Morsel::worker ids are unique per concurrently-live worker and lie in
//     [0, num_workers()), so per-worker state slots (WorkerLocal) need no
//     synchronization.
//   * num_threads == 1 (or a single-morsel input) runs entirely on the
//     calling thread: no pool, no tasks, no atomics.
//   * The calling thread always participates, so nested ParallelFor calls
//     and one-core machines cannot deadlock.
//
// The morsel grid is deterministic (see exec/morsel.h): operators needing
// per-morsel side arrays size them with NumMorsels()/MorselRows() and index
// by Morsel::index.

#ifndef MEMAGG_EXEC_EXECUTOR_H_
#define MEMAGG_EXEC_EXECUTOR_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "exec/morsel.h"
#include "exec/task_scheduler.h"
#include "obs/query_stats.h"
#include "util/macros.h"

namespace memagg {

class WorkerArenas;  // mem/worker_arenas.h

/// How a query (or one operator) is allowed to execute. Implicitly
/// constructible from a thread count so existing `num_threads` call sites
/// read naturally.
struct ExecutionContext {
  int num_threads = 1;     ///< Max workers per parallel operation (>= 1).
  size_t morsel_rows = 0;  ///< Grain override; 0 = ChooseMorselRows policy.
  /// Optional observability sink: when set, every parallel loop records its
  /// morsel/worker accounting into the per-worker shards (obs/query_stats.h).
  /// Not owned; must outlive the operators running under this context.
  StatsRegistry* stats = nullptr;
  /// Optional per-worker arena pool (mem/worker_arenas.h): operators that
  /// build shared structures in parallel allocate nodes from the claiming
  /// worker's arena instead of the global heap. Not owned; must outlive both
  /// the operators running under this context and any structure whose nodes
  /// were allocated from it. The engine injects a query-local pool when this
  /// is null.
  WorkerArenas* arenas = nullptr;

  ExecutionContext() = default;
  ExecutionContext(int threads) : num_threads(threads) {}  // NOLINT(runtime/explicit)
};

/// Fixed-size per-worker slots, one per possible worker id, padded to a
/// cache line so workers never false-share.
template <typename T>
class WorkerLocal {
 public:
  explicit WorkerLocal(int num_workers)
      : slots_(static_cast<size_t>(num_workers)) {}

  int size() const { return static_cast<int>(slots_.size()); }
  T& operator[](int worker) { return slots_[static_cast<size_t>(worker)].value; }
  const T& operator[](int worker) const {
    return slots_[static_cast<size_t>(worker)].value;
  }

  /// Serial visit of every slot (call after the parallel phase).
  template <typename Fn>
  void ForEach(Fn fn) {
    for (auto& slot : slots_) fn(slot.value);
  }

 private:
  struct alignas(64) Padded {
    T value{};
  };
  std::vector<Padded> slots_;
};

/// Stateless façade running parallel loops for one ExecutionContext.
class Executor {
 public:
  explicit Executor(const ExecutionContext& ctx) : ctx_(ctx) {
    MEMAGG_CHECK(ctx_.num_threads >= 1);
  }

  const ExecutionContext& context() const { return ctx_; }

  /// Upper bound on distinct Morsel::worker ids any loop of this executor
  /// can produce; sizes WorkerLocal slots.
  int num_workers() const { return ctx_.num_threads; }

  /// Grain the default policy picks for an n-row loop (honors the context's
  /// morsel_rows override).
  size_t MorselRows(size_t n) const {
    return ctx_.morsel_rows != 0 ? ctx_.morsel_rows
                                 : ChooseMorselRows(n, ctx_.num_threads);
  }

  /// Morsel count of the grid ParallelFor(n) iterates (same policy).
  size_t NumMorsels(size_t n) const { return NumMorselsFor(n, MorselRows(n)); }

  /// Runs fn(const Morsel&) over [0, n), splitting into morsels claimed
  /// dynamically by up to num_workers() workers. `grain` overrides the
  /// default morsel size (pass 1 for item-level loops over partitions,
  /// buckets, merge pairs, ...). Blocks until every morsel completed.
  template <typename Fn>
  void ParallelFor(size_t n, Fn&& fn, size_t grain = 0) {
    if (n == 0) return;
    if (grain == 0) grain = MorselRows(n);
    ParallelForMorsels(n, 0, NumMorselsFor(n, grain), std::forward<Fn>(fn),
                       grain);
  }

  /// Runs fn over the morsel-index sub-range [first_morsel, last_morsel) of
  /// the (n, grain) grid — morsel indices and row spans are those of the full
  /// grid. This is the adaptive operator's re-dispatch primitive: after a
  /// strategy switch at a chunk barrier, the remaining morsels are dispatched
  /// to the new strategy without renumbering the grid. `grain` must be the
  /// grain the grid was laid out with (non-zero).
  template <typename Fn>
  void ParallelForMorsels(size_t n, size_t first_morsel, size_t last_morsel,
                          Fn&& fn, size_t grain) {
    MEMAGG_CHECK(grain != 0);
    last_morsel = std::min(last_morsel, NumMorselsFor(n, grain));
    if (first_morsel >= last_morsel) return;
    const size_t num_morsels = last_morsel - first_morsel;
    const int workers = static_cast<int>(std::min<size_t>(
        static_cast<size_t>(ctx_.num_threads), num_morsels));
    MorselCursor cursor(n, grain, first_morsel, last_morsel);
    if (workers <= 1) {
      // Serial fallthrough: the caller does everything, touching no pool.
      Morsel morsel;
      uint64_t claimed = 0;
      while (cursor.TryClaim(0, &morsel)) {
        fn(morsel);
        ++claimed;
      }
      RecordWorkerClaims(0, claimed);
      return;
    }
    std::atomic<int> next_worker{0};
    auto run_worker = [this, &cursor, &next_worker, &fn] {
      const int worker = next_worker.fetch_add(1, std::memory_order_relaxed);
      Morsel morsel;
      uint64_t claimed = 0;
      while (cursor.TryClaim(worker, &morsel)) {
        fn(morsel);
        ++claimed;
      }
      RecordWorkerClaims(worker, claimed);
    };
    TaskGroup group(workers - 1);
    for (int t = 0; t < workers - 1; ++t) group.Submit(run_worker);
    run_worker();   // The caller is always one of the workers.
    group.Wait();   // Helps drain, then blocks for stragglers.
  }

 private:
  /// Flushes one worker's morsel count into its registry shard. Runs once
  /// per worker per loop (not per morsel).
  void RecordWorkerClaims(int worker, uint64_t claimed) {
    if (ctx_.stats == nullptr || claimed == 0) return;
    QueryStats& shard = ctx_.stats->WorkerShard(worker);
    shard.Add(StatCounter::kMorselsClaimed, claimed);
    shard.MaxOf(StatCounter::kWorkersUsed, static_cast<uint64_t>(worker) + 1);
  }

  ExecutionContext ctx_;
};

/// Context using every hardware thread (ThreadPool::Parallelism()).
ExecutionContext HardwareExecution();

/// Starts the process-wide pool if it is not running yet, so later queries
/// create zero threads. Benchmarks call this before the measured region.
void WarmUpScheduler();

}  // namespace memagg

#endif  // MEMAGG_EXEC_EXECUTOR_H_
