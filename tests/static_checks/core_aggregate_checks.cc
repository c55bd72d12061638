// Pins every aggregate policy — the serial ones from core/aggregate.h, the
// composite, and the Hash_TBBSC concurrent counterparts from
// core/parallel_aggregator.h — to AggregatePolicy /
// MergeableAggregatePolicy (core/concepts.h). Compiling this TU is the
// test; it has no runtime code.

#include <type_traits>

#include "core/aggregate.h"
#include "core/composite_aggregate.h"
#include "core/concepts.h"
#include "core/parallel_aggregator.h"

namespace memagg {

// Serial policies: all mergeable (the partitioned operators need Merge).
static_assert(MergeableAggregatePolicy<CountAggregate>);
static_assert(MergeableAggregatePolicy<SumAggregate>);
static_assert(MergeableAggregatePolicy<MinAggregate>);
static_assert(MergeableAggregatePolicy<MaxAggregate>);
static_assert(MergeableAggregatePolicy<AverageAggregate>);
static_assert(MergeableAggregatePolicy<MedianAggregate>);
static_assert(MergeableAggregatePolicy<ModeAggregate>);
static_assert(MergeableAggregatePolicy<CompositeAggregate>);

// The seven function policies are empty, so the [[no_unique_address]]
// policy member every operator holds costs it nothing.
static_assert(std::is_empty_v<CountAggregate>);
static_assert(std::is_empty_v<SumAggregate>);
static_assert(std::is_empty_v<MinAggregate>);
static_assert(std::is_empty_v<MaxAggregate>);
static_assert(std::is_empty_v<AverageAggregate>);
static_assert(std::is_empty_v<MedianAggregate>);
static_assert(std::is_empty_v<ModeAggregate>);

// Concurrent policies synchronize in place and are never partition-merged,
// so they model the base concept but not the mergeable refinement.
static_assert(AggregatePolicy<ConcurrentCountAggregate>);
static_assert(AggregatePolicy<ConcurrentSumAggregate>);
static_assert(AggregatePolicy<ConcurrentMinAggregate>);
static_assert(AggregatePolicy<ConcurrentMaxAggregate>);
static_assert(AggregatePolicy<ConcurrentAverageAggregate>);
static_assert(AggregatePolicy<ConcurrentMedianAggregate>);
static_assert(AggregatePolicy<ConcurrentModeAggregate>);
static_assert(AggregatePolicy<ConcurrentCompositeAggregate>);
static_assert(!MergeableAggregatePolicy<ConcurrentSumAggregate>);
static_assert(!MergeableAggregatePolicy<ConcurrentMedianAggregate>);

}  // namespace memagg
