// Migratable-state aggregation interface (the substrate for the adaptive
// operator, core/adaptive_aggregator.h).
//
// The Figure 12 advisor commits to one strategy before any data flows, but
// the inputs that decide the winner — group cardinality, skew, working-set
// size vs. cache — are only observable once rows start moving (the hash-vs-
// sort study arXiv 2411.13245; Graefe's in-stream vs. sort-based merge,
// arXiv 2010.00152). MigratableAggregator is the contract that makes
// mid-query strategy changes possible: an operator consumes individual
// morsels (instead of the whole input at once), reports cheap progress
// snapshots, and can hand its partially built group state to a different
// strategy without reprocessing the consumed rows.
//
// Migration protocol (the hash→sort spill of the "Hybrid" label is one
// instance of it):
//
//   * Distributive/algebraic aggregates travel as (key, State) partials and
//     recombine with Aggregate::Merge — order-independent, so results are
//     bit-identical to a single-strategy run.
//   * Holistic aggregates' States are value buffers; they travel as partials
//     too (Merge concatenates buffers) and sort-based absorbers may instead
//     keep them aside and merge-join at Finish.
//   * Raw (key, value) records are the fallback representation: sort-based
//     strategies that have not aggregated yet extract them verbatim, and
//     every hash/tree strategy absorbs them through ordinary Updates.
//
// Lifecycle: BeginConsume → ConsumeMorsel (concurrently, one worker per
// morsel) → [barrier: Progress / ExtractPartialState] → Finish. After
// ExtractPartialState the operator is *drained*: its state has been moved
// out and only destruction is valid (extraction exists to feed a successor
// strategy, not to checkpoint a live one).

#ifndef MEMAGG_CORE_MIGRATABLE_H_
#define MEMAGG_CORE_MIGRATABLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/concepts.h"
#include "core/operator.h"
#include "core/result.h"
#include "exec/morsel.h"

namespace memagg {

/// Partially built aggregation state in transit between strategies.
/// `partials` carries already-aggregated groups; `records` carries rows that
/// were consumed but not yet aggregated (sort-strategy buffers). Either side
/// may be empty; `rows` counts the input rows both sides represent together.
template <AggregatePolicy Aggregate>
struct PartialAggState {
  using State = typename Aggregate::State;

  std::vector<std::pair<uint64_t, State>> partials;
  std::vector<std::pair<uint64_t, uint64_t>> records;
  uint64_t rows = 0;

  bool empty() const { return partials.empty() && records.empty(); }
};

/// Interface every migratable strategy implements, templated on the
/// aggregate policy so partial states are typed end-to-end. The five
/// operator families in src/core/ implement it alongside VectorAggregator;
/// the structural twin is the MigratableOperator concept (core/concepts.h).
template <AggregatePolicy Aggregate>
class MigratableAggregator {
 public:
  using Partial = PartialAggState<Aggregate>;

  virtual ~MigratableAggregator() = default;

  /// Called once per instance, from a single thread, before the first
  /// ConsumeMorsel or AbsorbPartialState. `num_workers` bounds the
  /// Morsel::worker ids later ConsumeMorsel calls will carry (sizes
  /// per-worker slots); `expected_rows` is the number of rows the strategy
  /// is expected to consume in total (pre-sizes buffers). Default: no-op.
  virtual void BeginConsume(int num_workers, size_t expected_rows) {
    (void)num_workers;
    (void)expected_rows;
  }

  /// Consumes the rows of one claimed morsel. `values` may be nullptr when
  /// the aggregate ignores the value column. Safe to call concurrently for
  /// distinct morsels; `m.worker` is a stable slot id (exec/executor.h).
  virtual void ConsumeMorsel(const uint64_t* keys, const uint64_t* values,
                             const Morsel& m) = 0;

  /// Cheap progress report; called from a single thread at a barrier (no
  /// concurrent ConsumeMorsel calls in flight).
  virtual ProgressSnapshot Progress() const = 0;

  /// Moves the accumulated state out. Single-threaded, at a barrier. The
  /// operator is drained afterwards — see the header comment.
  virtual Partial ExtractPartialState() = 0;

  /// Folds a predecessor strategy's extracted state in. Single-threaded, at
  /// a barrier, before the next ConsumeMorsel wave.
  virtual void AbsorbPartialState(Partial&& partial) = 0;

  /// Finalizes and emits the result rows (the iterate phase of the strategy
  /// the query ended on).
  virtual VectorResult Finish() = 0;
};

}  // namespace memagg

#endif  // MEMAGG_CORE_MIGRATABLE_H_
