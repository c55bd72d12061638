// Pins one instantiation of every aggregation-operator family to
// AggregationOperator / ScalarOperator (core/concepts.h), so the engine
// registry's assumption — any factory product is a concrete
// Vector/ScalarAggregator — is checked where the families are defined.
// Compiling this TU is the test; it has no runtime code.

#include "core/adaptive_aggregator.h"
#include "core/aggregate.h"
#include "core/concepts.h"
#include "core/hash_aggregator.h"
#include "core/local_partition_aggregator.h"
#include "core/mph_aggregator.h"
#include "core/parallel_aggregator.h"
#include "core/radix_partition_aggregator.h"
#include "core/scalar.h"
#include "core/sort_aggregator.h"
#include "core/sorters.h"
#include "core/tree_aggregator.h"
#include "hash/linear_probing_map.h"
#include "tree/art.h"

namespace memagg {

static_assert(
    AggregationOperator<HashVectorAggregator<LinearProbingMap, SumAggregate>>);
static_assert(
    AggregationOperator<TreeVectorAggregator<ArtTree, SumAggregate>>);
static_assert(
    AggregationOperator<SortVectorAggregator<IntrosortSorter, SumAggregate>>);
static_assert(AggregationOperator<MphVectorAggregator<SumAggregate>>);
static_assert(AggregationOperator<LocalPartitionAggregator<SumAggregate>>);
static_assert(AggregationOperator<RadixPartitionAggregator<MedianAggregate>>);
static_assert(
    AggregationOperator<TbbStyleParallelAggregator<ConcurrentSumAggregate>>);
static_assert(AggregationOperator<CuckooParallelAggregator<SumAggregate>>);
static_assert(AggregationOperator<StripedParallelAggregator<SumAggregate>>);

static_assert(ScalarOperator<StreamingCountAggregator>);
static_assert(ScalarOperator<StreamingAverageAggregator>);
static_assert(ScalarOperator<SortScalarMedianAggregator<IntrosortSorter>>);
static_assert(ScalarOperator<TreeScalarMedianAggregator<ArtTree>>);

// The abstract interfaces themselves are not operators.
static_assert(!AggregationOperator<VectorAggregator>);
static_assert(!ScalarOperator<ScalarAggregator>);

// Adaptive-switchable strategies: the five named operator families plus the
// striped shared map expose the MigratableAggregator protocol structurally.
static_assert(
    MigratableOperator<HashVectorAggregator<LinearProbingMap, SumAggregate>>);
static_assert(MigratableOperator<TreeVectorAggregator<ArtTree, SumAggregate>>);
static_assert(MigratableOperator<LocalPartitionAggregator<SumAggregate>>);
static_assert(MigratableOperator<RadixPartitionAggregator<SumAggregate>>);
static_assert(
    MigratableOperator<SortVectorAggregator<BlockIndirectSorter, SumAggregate>>);
static_assert(MigratableOperator<StripedParallelAggregator<SumAggregate>>);
// Holistic policies migrate too (their states concatenate on Merge).
static_assert(MigratableOperator<RadixPartitionAggregator<MedianAggregate>>);

// Negative models: the TBB-style operator keeps atomic per-entry state that
// cannot be extracted as plain policy states; the adaptive operator itself
// is a consumer of the protocol, not a strategy; the abstract base alone
// does not satisfy the structural concept's constructability requirements.
static_assert(
    !MigratableOperator<TbbStyleParallelAggregator<ConcurrentSumAggregate>>);
static_assert(!MigratableOperator<AdaptiveAggregator<SumAggregate>>);

// The adaptive operator is itself a first-class engine operator.
static_assert(AggregationOperator<AdaptiveAggregator<SumAggregate>>);
static_assert(AggregationOperator<AdaptiveAggregator<MedianAggregate>>);

}  // namespace memagg
