// Migratable-state aggregation interface (the substrate for the adaptive
// operator, core/adaptive_aggregator.h).
//
// The Figure 12 advisor commits to one strategy before any data flows, but
// the inputs that decide the winner — group cardinality, skew, working-set
// size vs. cache — are only observable once rows start moving (the hash-vs-
// sort study arXiv 2411.13245; Graefe's in-stream vs. sort-based merge,
// arXiv 2010.00152). Every vector operator already consumes its input one
// morsel at a time (the consume protocol, core/operator.h); a migratable
// family adds what a mid-query strategy change needs on top: cheap progress
// snapshots, and handing its partially built group state to a different
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
//     keep them aside and merge-join them in their run scan.
//   * Raw (key, value) records are the fallback representation: sort-based
//     strategies that have not aggregated yet extract them verbatim, and
//     every hash/tree strategy absorbs them through ordinary Updates.
//
// Lifecycle: BeginConsume → ConsumeMorsel (concurrently, one worker per
// morsel) → [barrier: Progress / ExtractPartialState] → EndBatch →
// Iterate. After ExtractPartialState the operator is *drained*: its state
// has been moved out and only destruction is valid (extraction exists to
// feed a successor strategy, not to checkpoint a live one).

#ifndef MEMAGG_CORE_MIGRATABLE_H_
#define MEMAGG_CORE_MIGRATABLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/concepts.h"
#include "core/operator.h"

namespace memagg {

/// Cheap point-in-time progress report from a migratable operator, used by
/// the adaptive operator's cost models (core/adaptive_aggregator.h). All
/// three fields must be O(workers) to compute — never O(rows) or O(groups):
/// the adaptive operator polls this at every morsel-chunk barrier.
struct ProgressSnapshot {
  uint64_t rows = 0;    ///< Input rows consumed so far.
  uint64_t groups = 0;  ///< Distinct groups materialized so far (upper bound
                        ///< for per-worker structures before their merge).
  uint64_t bytes = 0;   ///< Bytes held by the operator's data structures
                        ///< (arena-backed containers report reserved bytes).
};

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

/// A vector operator whose partial state can move to another strategy
/// mid-query, templated on the aggregate policy so partial states are typed
/// end to end. Absorbing partials needs Aggregate::Merge, hence the
/// constraint. The group-store (hash and tree), sort, partitioned and
/// locked-table operators derive from it; the adaptive operator holds its
/// strategy through it.
template <MergeableAggregatePolicy Aggregate>
class MigratableAggregator : public VectorAggregator {
 public:
  using Partial = PartialAggState<Aggregate>;
  using VectorAggregator::VectorAggregator;

  /// Cheap progress report; called from a single thread at a barrier (no
  /// concurrent ConsumeMorsel calls in flight).
  virtual ProgressSnapshot Progress() const = 0;

  /// Moves the accumulated state out. Single-threaded, at a barrier. The
  /// operator is drained afterwards — see the header comment.
  virtual Partial ExtractPartialState() = 0;

  /// Folds a predecessor strategy's extracted state in. Single-threaded, at
  /// a barrier, after BeginConsume and before the next ConsumeMorsel wave.
  virtual void AbsorbPartialState(Partial&& partial) = 0;
};

}  // namespace memagg

#endif  // MEMAGG_CORE_MIGRATABLE_H_
