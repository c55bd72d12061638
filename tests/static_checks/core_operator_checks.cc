// Pins one instantiation of every aggregation-operator family to
// AggregationOperator / ScalarOperator (core/concepts.h), so the engine
// registry's assumption — any factory product is a concrete
// Vector/ScalarAggregator — is checked where the families are defined.
// Compiling this TU is the test; it has no runtime code.

#include "core/adaptive_aggregator.h"
#include "core/aggregate.h"
#include "core/concepts.h"
#include "core/group_store_aggregator.h"
#include "core/mph_aggregator.h"
#include "core/parallel_aggregator.h"
#include "core/partitioned_aggregator.h"
#include "core/scalar.h"
#include "core/sort_aggregator.h"
#include "core/sorters.h"
#include "hash/cuckoo_map.h"
#include "hash/linear_probing_map.h"
#include "tree/art.h"

namespace memagg {

static_assert(
    AggregationOperator<GroupStoreAggregator<LinearProbingMap, SumAggregate>>);
static_assert(AggregationOperator<GroupStoreAggregator<ArtTree, SumAggregate>>);
static_assert(
    AggregationOperator<SortVectorAggregator<IntrosortSorter, SumAggregate>>);
static_assert(AggregationOperator<MphVectorAggregator<SumAggregate>>);
static_assert(AggregationOperator<PartitionedAggregator<SumAggregate>>);
static_assert(AggregationOperator<PartitionedAggregator<MedianAggregate>>);
static_assert(
    AggregationOperator<TbbStyleParallelAggregator<ConcurrentSumAggregate>>);
static_assert(
    AggregationOperator<LockedTableAggregator<CuckooMap, SumAggregate>>);
static_assert(AggregationOperator<StripedParallelAggregator<SumAggregate>>);

static_assert(ScalarOperator<StreamingCountAggregator>);
static_assert(ScalarOperator<StreamingAverageAggregator>);
static_assert(ScalarOperator<SortScalarMedianAggregator<IntrosortSorter>>);
static_assert(ScalarOperator<TreeScalarMedianAggregator<ArtTree>>);

// The abstract interfaces themselves are not operators.
static_assert(!AggregationOperator<VectorAggregator>);
static_assert(!ScalarOperator<ScalarAggregator>);

// The adaptive operator is itself a first-class engine operator.
static_assert(AggregationOperator<AdaptiveAggregator<SumAggregate>>);
static_assert(AggregationOperator<AdaptiveAggregator<MedianAggregate>>);

}  // namespace memagg
