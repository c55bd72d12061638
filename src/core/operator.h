// Abstract aggregation-operator interfaces (paper Section 3).
//
// Every operator runs in two phases: a build phase that consumes the key
// column (and, for value-aggregating functions, the value column), and an
// iterate phase that emits the result rows. The phases are separate virtual
// calls so benchmarks can time them independently, as the paper's Figure 3
// and Figure 8 do.
//
// The build phase has one contract, the consume protocol, and every vector
// family implements only that:
//
//   BeginConsume(workers, rows)   once, before the first morsel
//   ConsumeMorsel(keys, values, m) per morsel; concurrent for distinct
//                                 morsels when more than one worker runs
//   EndBatch()                    single-threaded, after each batch's last
//                                 morsel: the family finishes its
//                                 build-phase work (sorting, building an
//                                 MPHF over its buffer, ...)
//
// Build() is the one driver over that protocol, defined once below: it
// runs BeginConsume on its first call, ParallelFor over ConsumeMorsel on
// the operator's ExecutionContext (one worker for serial families), and
// EndBatch. AdaptiveAggregator is the only other driver: its chunk-barrier
// loop feeds morsels to the strategy it is running and calls the same
// EndBatch at its end. Iterate() is the one finish.

#ifndef MEMAGG_CORE_OPERATOR_H_
#define MEMAGG_CORE_OPERATOR_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/result.h"
#include "exec/executor.h"
#include "exec/morsel.h"
#include "util/macros.h"

namespace memagg {

struct QueryStats;  // obs/query_stats.h

/// Operator for vector (GROUP BY) aggregation queries.
class VectorAggregator {
 public:
  /// `exec` is the context the Build driver runs ConsumeMorsel on; serial
  /// families keep the one-thread default.
  explicit VectorAggregator(ExecutionContext exec = {}) : exec_(exec) {}
  virtual ~VectorAggregator() = default;

  /// Build phase: consumes `n` records. `values` may be nullptr when the
  /// aggregate ignores the value column (COUNT(*)). Builds accumulate: a
  /// later call adds its records to those of earlier calls, so Iterate()
  /// aggregates every batch as if it had arrived in one call. Defined once
  /// (below) over the consume protocol; only AdaptiveAggregator overrides it.
  virtual void Build(const uint64_t* keys, const uint64_t* values, size_t n);

  /// Ownership-transferring build: the operator may consume the columns
  /// in place instead of copying them. Sort-based operators override this to
  /// sort the caller's key array directly — the paper's in-place sorting,
  /// which is what makes sorting the most memory-efficient approach in its
  /// Tables 6-7. The default implementation builds from the columns and then
  /// discards them. `values` may be empty for COUNT(*). May be called only
  /// once, on an empty operator (the sort operators check it).
  virtual void BuildOwned(std::vector<uint64_t>&& keys,
                          std::vector<uint64_t>&& values) {
    Build(keys.data(), values.empty() ? nullptr : values.data(), keys.size());
  }

  /// Hint: the query will produce roughly `expected_groups` distinct groups.
  /// Operators backed by growable tables pre-size themselves to avoid rehash
  /// churn; others ignore it. Call before Build(), at most once.
  virtual void ReserveGroups(size_t expected_groups) { (void)expected_groups; }

  /// Called once per instance, from a single thread, before the first
  /// ConsumeMorsel (or a migratable family's AbsorbPartialState).
  /// `num_workers` bounds the Morsel::worker ids later ConsumeMorsel calls
  /// carry; `expected_rows` is the number of rows the operator expects to
  /// consume (pre-sizes buffers). Default: no-op.
  virtual void BeginConsume(int num_workers, size_t expected_rows) {
    (void)num_workers;
    (void)expected_rows;
  }

  /// Consumes the rows [m.begin, m.end) of the columns. `values` may be
  /// nullptr when the aggregate ignores the value column. Safe to call
  /// concurrently for distinct morsels; `m.worker` is a stable slot id
  /// (exec/executor.h).
  virtual void ConsumeMorsel(const uint64_t* keys, const uint64_t* values,
                             const Morsel& m) = 0;

  /// End-of-batch hook: single-threaded, after the last morsel of a batch
  /// (no ConsumeMorsel in flight). Default: no-op.
  virtual void EndBatch() {}

  /// Iterate phase: emits one row per group. Row order is
  /// implementation-defined (sorted for trees/sorts, arbitrary for hashes).
  virtual VectorResult Iterate() = 0;

  /// True if the operator supports a native range-filtered iterate (Q7).
  /// Hash tables do not (paper Section 5.6).
  virtual bool SupportsRange() const { return false; }

  /// Iterate restricted to group keys in [lo, hi]. Only valid when
  /// SupportsRange().
  virtual VectorResult IterateRange(uint64_t lo, uint64_t hi) {
    (void)lo;
    (void)hi;
    MEMAGG_CHECK(false && "operator has no native range search");
    return {};
  }

  /// Number of groups currently held.
  virtual size_t NumGroups() const = 0;

  /// Approximate bytes held by the operator's data structure.
  virtual size_t DataStructureBytes() const = 0;

  /// Folds the operator's execution statistics (internal phase timings and
  /// structure-specific counters — see obs/query_stats.h) into `stats`.
  /// Called after the phases being reported have completed; walking the
  /// finished structure here is allowed (the cost is paid on demand, never
  /// on the build/iterate hot path).
  virtual void CollectStats(QueryStats* stats) const { (void)stats; }

 protected:
  const ExecutionContext& exec() const { return exec_; }

 private:
  ExecutionContext exec_;
  bool consuming_ = false;  ///< BeginConsume has run (first Build call).
};

inline void VectorAggregator::Build(const uint64_t* keys,
                                    const uint64_t* values, size_t n) {
  Executor executor(exec_);
  if (!consuming_) {
    BeginConsume(executor.num_workers(), n);
    consuming_ = true;
  }
  executor.ParallelFor(
      n, [&](const Morsel& m) { ConsumeMorsel(keys, values, m); });
  EndBatch();
}

/// Operator for scalar aggregation queries.
class ScalarAggregator {
 public:
  virtual ~ScalarAggregator() = default;

  /// Build phase (e.g. sorting the column or building an index).
  virtual void Build(const uint64_t* keys, const uint64_t* values,
                     size_t n) = 0;

  /// Iterate phase: produces the single scalar result.
  virtual double Finalize() = 0;
};

}  // namespace memagg

#endif  // MEMAGG_CORE_OPERATOR_H_
