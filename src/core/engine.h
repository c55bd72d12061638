// The memagg engine: the label registry (core/label_registry.h) maps the
// paper's algorithm labels — Table 3 (serial), Table 8 (concurrent), and
// the extensions beyond the paper — to aggregation operators. It is the one
// place the label set is spelled; the factories, CategoryOfLabel, and the
// list functions below, the cache-traced twins (sim/traced_engine.h), and
// the benches all read it.

#ifndef MEMAGG_CORE_ENGINE_H_
#define MEMAGG_CORE_ENGINE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/aggregate.h"
#include "core/operator.h"
#include "exec/executor.h"
#include "obs/query_stats.h"

namespace memagg {

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

/// The adaptive operator's label, which the experiment driver's "auto"
/// runs for vector group-bys (core/experiment.h).
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
/// Ttree, Quicksort, Sort_BI, and Sort_QSLB have one too but are not in
/// Table 3, so they are not listed.
const std::vector<std::string>& ScalarCapableLabels();

/// Creates a vector-aggregation operator for `label` computing `function`.
/// `expected_size` pre-sizes hash tables (pass the record count, per the
/// paper's assumption). `exec` carries the thread budget (an int converts
/// implicitly): num_threads > 1 selects the concurrent variant of a
/// parallel label (LabelInfo::parallel); serial labels abort on it. All
/// parallel operators run on the shared morsel-driven scheduler (src/exec/)
/// — no operator spawns threads of its own.
std::unique_ptr<VectorAggregator> MakeVectorAggregator(
    const std::string& label, AggregateFunction function, size_t expected_size,
    const ExecutionContext& exec = {});

/// Creates a scalar-median (Q6) operator for a label with one
/// (LabelInfo::scalar_median: the trees and most sorts); aborts otherwise.
std::unique_ptr<ScalarAggregator> MakeScalarMedianAggregator(
    const std::string& label, const ExecutionContext& exec = {});

/// A query result paired with the execution statistics of the run that
/// produced it (phase timings, operator counters, morsel accounting — see
/// obs/query_stats.h).
struct VectorQueryExecution {
  VectorResult result;
  QueryStats stats;
};

/// Runs one vector aggregation end to end through the engine registry and
/// returns the result rows next to a QueryStats snapshot: build/iterate
/// phase timings measured here, the operator's own phase splits and
/// structure counters (CollectStats), and — for parallel labels — the
/// morsel/worker accounting recorded by the executor. If `exec.stats` is
/// null a private StatsRegistry sized to `exec.num_threads` is used.
/// `values` may be nullptr for value-less aggregates (COUNT).
VectorQueryExecution ExecuteVectorQuery(const std::string& label,
                                        AggregateFunction function,
                                        const uint64_t* keys,
                                        const uint64_t* values, size_t n,
                                        size_t expected_size,
                                        ExecutionContext exec = {});

}  // namespace memagg

#endif  // MEMAGG_CORE_ENGINE_H_
