// One-call convenience API: group-by aggregation over columns with the
// algorithm chosen automatically by the Figure 12 advisor (or pinned by
// label). GroupByAggregate forwards to ExecuteVectorQuery (core/engine.h),
// which also returns the query's stats; the two-phase operator API
// underneath remains available for phase-level control.

#ifndef MEMAGG_CORE_GROUPBY_H_
#define MEMAGG_CORE_GROUPBY_H_

#include <cstdint>
#include <span>
#include <string>

#include "core/aggregate.h"
#include "core/result.h"

namespace memagg {

/// Options for the one-call API.
struct GroupByOptions {
  /// Algorithm label, or "auto" to let the Figure 12 advisor decide from the
  /// aggregate category / range condition / thread count.
  std::string algorithm = "auto";
  int num_threads = 1;
  /// Optional inclusive range condition on the group key (Q7-style). When
  /// set with "auto", the advisor routes to a tree operator.
  bool has_range_condition = false;
  uint64_t range_lo = 0;
  uint64_t range_hi = ~0ULL;
};

/// SELECT key, fn(value) ... GROUP BY key. `values` may be empty for
/// COUNT(*); otherwise it must match `keys` in size. Returns one row per
/// group (sorted by key for tree/sort algorithms, hash order otherwise).
VectorResult GroupByAggregate(std::span<const uint64_t> keys,
                              std::span<const uint64_t> values,
                              AggregateFunction function,
                              const GroupByOptions& options = {});

/// SELECT fn(column): scalar aggregation over one column (COUNT / AVG /
/// MEDIAN and the other supported functions).
double ScalarAggregate(std::span<const uint64_t> column,
                       AggregateFunction function,
                       const GroupByOptions& options = {});

}  // namespace memagg

#endif  // MEMAGG_CORE_GROUPBY_H_
