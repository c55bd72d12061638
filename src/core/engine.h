// The memagg engine: the label registry (core/label_registry.h) maps the
// paper's algorithm labels — Table 3 (serial), Table 8 (concurrent), and
// the extensions beyond the paper — to aggregation operators. It is the one
// place the label set is spelled; the factories, CategoryOfLabel, and the
// list functions below, the cache-traced twins (sim/traced_engine.h), and
// the benches all read it.

#ifndef MEMAGG_CORE_ENGINE_H_
#define MEMAGG_CORE_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/aggregate.h"
#include "core/operator.h"
#include "exec/executor.h"
#include "obs/query_stats.h"

namespace memagg {

class CompositeAggregate;  // core/composite_aggregate.h

/// Which family a label belongs to (paper Dimension 1).
enum class AlgorithmCategory { kHash, kTree, kSort };

/// One label's registry row, without its factories.
struct LabelInfo {
  const char* name;
  AlgorithmCategory category;
  bool parallel;       ///< Accepts num_threads > 1; the rest abort on it.
  bool table3;         ///< In the paper's Table 3 (serial).
  bool table8;         ///< In the paper's Table 8 (concurrent).
  bool scalar_median;  ///< Has a Q6 scalar-median operator.
  bool traced;         ///< Has a cache-traced twin (sim/traced_engine.h).
};

/// The adaptive operator's label (docs/adaptive.md). "auto" never resolves
/// to it: every front-end maps "auto" to the Figure 12 advisor's pick.
inline constexpr char kAdaptiveLabel[] = "Adaptive";

/// Every registered label, in registry order.
const std::vector<LabelInfo>& AllLabels();

/// The row of `label`; aborts with "Unknown algorithm label" if none.
const LabelInfo& FindLabel(const std::string& label);

/// Category of a known label; aborts on unknown labels.
AlgorithmCategory CategoryOfLabel(const std::string& label);

/// The ten Table 3 labels, in paper order.
const std::vector<std::string>& SerialLabels();

/// The four Table 8 labels, in paper order.
const std::vector<std::string>& ConcurrentLabels();

/// The Table 3 tree labels (Q7 / range-search capable). The range-capable
/// Ttree is not in Table 3, so it is not listed.
const std::vector<std::string>& TreeLabels();

/// The Table 3 labels with a Q6 scalar-median operator (trees and sorts).
/// Ttree, Sort_BI, and Sort_QSLB have one too but are not in Table 3, so
/// they are not listed.
const std::vector<std::string>& ScalarCapableLabels();

/// Creates a vector-aggregation operator for `label` computing `function`.
/// `expected_size` pre-sizes hash tables: the record count, per the paper's
/// assumption, or a smaller bound the caller has proved on the number of
/// groups (the table front-end passes its key codec's); a fixed bucket
/// array keeps the size it gets here. `exec` carries the thread budget (an
/// int converts implicitly): num_threads > 1 selects the concurrent variant
/// of a parallel label (LabelInfo::parallel). A serial label given more
/// than one thread aborts here; ExecuteVectorQuery instead runs it on one. All
/// parallel operators run on the shared morsel-driven scheduler (src/exec/)
/// — no operator spawns threads of its own.
std::unique_ptr<VectorAggregator> MakeVectorAggregator(
    const std::string& label, AggregateFunction function, size_t expected_size,
    const ExecutionContext& exec = {});

/// Creates a scalar-median (Q6) operator for a label with one
/// (LabelInfo::scalar_median: the trees and most sorts); aborts otherwise.
std::unique_ptr<ScalarAggregator> MakeScalarMedianAggregator(
    const std::string& label, const ExecutionContext& exec = {});

/// A Q7 condition (paper Table 1): group keys in [lo, hi], inclusive.
struct KeyRange {
  uint64_t lo = 0;
  uint64_t hi = ~0ULL;
};

/// A query result paired with the execution statistics of the run that
/// produced it (phase timings, operator counters, morsel accounting — see
/// obs/query_stats.h).
struct VectorQueryExecution {
  VectorResult result;
  QueryStats stats;
  /// The label that actually ran ("auto" resolved).
  std::string label;
};

/// Runs one vector aggregation end to end and returns the result rows next
/// to a QueryStats snapshot: the setup/build/iterate phases and the wall
/// time measured here (what they leave out is kUnattributed), the
/// operator's own subphases and structure counters (CollectStats), and —
/// for parallel labels — the morsel/worker accounting recorded by the
/// executor. This is the one vector-query path: the one-call API for
/// column vectors, which ExecuteTableQuery reaches through
/// ExecuteCompositeQuery.
///
/// `expected_size` is the most groups the caller expects, and a ceiling:
/// the operator is built for it, and the sampled cardinality estimate
/// that pre-sizes growable tables (ReserveGroups) is clamped to it. Pass
/// the record count unless a smaller bound is proven; ExecuteTableQuery
/// passes its key codec's group bound.
///
/// `label` is any registry label, or "auto" for the Figure 12 advisor's
/// pick from `function`'s category, `range` and the thread budget. A label
/// whose registry row is not `parallel` runs with one thread whatever
/// `exec.num_threads` says (the advisor's range branch picks a serial tree
/// at any budget). `range` is the query's optional Q7 condition: trees and
/// sorts answer it with a native range scan, every other operator iterates
/// all groups and filters (paper Section 5.6). If `exec.stats` is null a
/// private StatsRegistry sized to the thread count is used. `values` may be
/// nullptr for value-less aggregates (COUNT).
VectorQueryExecution ExecuteVectorQuery(const std::string& label,
                                        AggregateFunction function,
                                        const uint64_t* keys,
                                        const uint64_t* values, size_t n,
                                        size_t expected_size,
                                        ExecutionContext exec = {},
                                        std::optional<KeyRange> range = {});

/// ExecuteVectorQuery over a composite aggregate, through the same body:
/// one build folds every member of the composite, and each result row's
/// value is the group's row in the composite's CompositeOutput. `row_ids`
/// is the value column: for row i, the row the composite's measure columns
/// hold its values at (ExecuteTableQuery passes its selection vector). An
/// "auto" label is resolved from the composite's most demanding category.
VectorQueryExecution ExecuteCompositeQuery(const std::string& label,
                                           const CompositeAggregate& composite,
                                           const uint64_t* keys,
                                           const uint64_t* row_ids, size_t n,
                                           size_t expected_size,
                                           ExecutionContext exec = {});

}  // namespace memagg

#endif  // MEMAGG_CORE_ENGINE_H_
