// The label registry: one row per algorithm label, the single place the
// label set is spelled. Every consumer reads it — MakeVectorAggregator,
// MakeScalarMedianAggregator, CategoryOfLabel and the label lists
// (core/engine.cc), and the cache-traced twins (sim/traced_engine.cc).
//
// A row is a label name, its flags (thread capability, paper Table 3 /
// Table 8 membership, Q6 scalar median, cache-traced twin), and a row
// template — a "family" — whose static Make<Aggregate, Tracer>(aggregate,
// ...) builds the operator around an aggregate policy value; the family
// also fixes the category. kLabelTable<Tracer> instantiates the factories
// of every row for one MemoryTracer: the engine reads
// kLabelTable<NullTracer>, where every row has one factory per aggregate
// function and one for a CompositeAggregate (the table front-end's one
// pass), and the traced engine reads kLabelTable<SimTracer>, in which only
// kTraced rows have factories, and only for COUNT and MEDIAN (paper Figure
// 6). So core/ never names the simulator, and simulator-traced operators
// exist only for those rows.
//
// Internal to the engine: include it only from core/engine.cc and
// sim/traced_engine.cc. Everyone else reads the rows through
// AllLabels()/FindLabel() (core/engine.h).

#ifndef MEMAGG_CORE_LABEL_REGISTRY_H_
#define MEMAGG_CORE_LABEL_REGISTRY_H_

#include <array>
#include <concepts>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <span>
#include <string_view>

#include "core/adaptive_aggregator.h"
#include "core/aggregate.h"
#include "core/composite_aggregate.h"
#include "core/concepts.h"
#include "core/engine.h"
#include "core/hash_aggregator.h"
#include "core/local_partition_aggregator.h"
#include "core/mph_aggregator.h"
#include "core/operator.h"
#include "core/parallel_aggregator.h"
#include "core/radix_partition_aggregator.h"
#include "core/scalar.h"
#include "core/sort_aggregator.h"
#include "core/sorters.h"
#include "core/tree_aggregator.h"
#include "exec/executor.h"
#include "hash/chaining_map.h"
#include "hash/cuckoo_map.h"
#include "hash/dense_map.h"
#include "hash/linear_probing_map.h"
#include "hash/sparse_map.h"
#include "tree/art.h"
#include "tree/btree.h"
#include "tree/judy.h"
#include "tree/ttree.h"
#include "util/macros.h"
#include "util/tracer.h"

namespace memagg {

/// Builds a row's operator for one aggregate function.
using VectorFactory = std::unique_ptr<VectorAggregator> (*)(
    size_t expected_size, const ExecutionContext& exec);
/// Builds a row's operator over a composite aggregate.
using CompositeFactory = std::unique_ptr<VectorAggregator> (*)(
    const CompositeAggregate& composite, size_t expected_size,
    const ExecutionContext& exec);
/// Builds a row's Q6 scalar-median operator.
using ScalarFactory =
    std::unique_ptr<ScalarAggregator> (*)(const ExecutionContext& exec);

/// A registry row with its factories instantiated for one tracer. `make` is
/// indexed by AggregateFunction; a null entry means the row has no operator
/// for that function under this tracer.
struct LabelRow {
  LabelInfo info;
  std::array<VectorFactory, kNumAggregateFunctions> make{};
  CompositeFactory make_composite = nullptr;
  ScalarFactory make_scalar_median = nullptr;
};

/// Row flags.
enum LabelFlag : unsigned {
  kParallel = 1u << 0,      ///< Accepts num_threads > 1.
  kTable3 = 1u << 1,        ///< In the paper's Table 3 (serial).
  kTable8 = 1u << 2,        ///< In the paper's Table 8 (concurrent).
  kScalarMedian = 1u << 3,  ///< Has a Q6 scalar-median operator.
  kTraced = 1u << 4,        ///< Has a cache-traced twin.
};

/// Row-template contract: the category and, per (aggregate, tracer), the
/// operator factory over an aggregate policy value. Families of
/// kScalarMedian rows also provide MakeScalarMedian(exec).
template <typename F>
concept LabelFamily = requires(size_t expected_size,
                               const ExecutionContext& exec) {
  { F::kCategory } -> std::convertible_to<AlgorithmCategory>;
  {
    F::template Make<CountAggregate, NullTracer>(CountAggregate{},
                                                 expected_size, exec)
  } -> std::same_as<std::unique_ptr<VectorAggregator>>;
};

namespace family {

/// A structure template bound to an enabled tracer, leaving the value type
/// open — the one-parameter shape the operator templates take. With the
/// null tracer the families pass the structure template itself, so the
/// engine's operators are the instantiations the rest of the code uses.
template <template <typename, typename...> class Structure,
          MemoryTracer Tracer>
struct Traced {
  template <std::default_initializable Value>
  using type = Structure<Value, Tracer>;
};

/// Serial hash table (paper Section 3.2).
template <template <typename, typename...> class MapT>
struct Hash {
  static constexpr AlgorithmCategory kCategory = AlgorithmCategory::kHash;
  template <MergeableAggregatePolicy Aggregate, MemoryTracer Tracer>
  static std::unique_ptr<VectorAggregator> Make(const Aggregate& aggregate,
                                                size_t expected_size,
                                                const ExecutionContext&) {
    if constexpr (Tracer::kEnabled) {
      return std::make_unique<HashVectorAggregator<
          Traced<MapT, Tracer>::template type, Aggregate>>(expected_size,
                                                           aggregate);
    } else {
      return std::make_unique<HashVectorAggregator<MapT, Aggregate>>(
          expected_size, aggregate);
    }
  }
};

/// Ordered index (paper Section 3.3).
template <template <typename, typename...> class TreeT>
struct Tree {
  static constexpr AlgorithmCategory kCategory = AlgorithmCategory::kTree;
  template <MergeableAggregatePolicy Aggregate, MemoryTracer Tracer>
  static std::unique_ptr<VectorAggregator> Make(const Aggregate& aggregate,
                                                size_t,
                                                const ExecutionContext&) {
    if constexpr (Tracer::kEnabled) {
      return std::make_unique<TreeVectorAggregator<
          Traced<TreeT, Tracer>::template type, Aggregate>>(aggregate);
    } else {
      return std::make_unique<TreeVectorAggregator<TreeT, Aggregate>>(
          aggregate);
    }
  }
  static std::unique_ptr<ScalarAggregator> MakeScalarMedian(
      const ExecutionContext&) {
    return std::make_unique<TreeScalarMedianAggregator<TreeT>>();
  }
};

/// Sort-based aggregation (paper Section 3.1); thread-budgeted sorters take
/// the context's thread count.
template <Sorter SorterT>
struct Sort {
  static constexpr AlgorithmCategory kCategory = AlgorithmCategory::kSort;
  static SorterT MakeSorter(const ExecutionContext& exec) {
    SorterT sorter;
    if constexpr (ParallelSorter<SorterT>) {
      sorter.num_threads = exec.num_threads;
    }
    return sorter;
  }
  template <MergeableAggregatePolicy Aggregate, MemoryTracer Tracer>
  static std::unique_ptr<VectorAggregator> Make(const Aggregate& aggregate,
                                                size_t,
                                                const ExecutionContext& exec) {
    using Traced = TracedSorter<SorterT, Tracer>;
    return std::make_unique<SortVectorAggregator<Traced, Aggregate, Tracer>>(
        Traced{MakeSorter(exec)}, aggregate);
  }
  static std::unique_ptr<ScalarAggregator> MakeScalarMedian(
      const ExecutionContext& exec) {
    return std::make_unique<SortScalarMedianAggregator<SorterT>>(
        MakeSorter(exec));
  }
};

/// Hash_LC: the serial cuckoo table at one thread, the shared concurrent
/// one at more (paper Table 8).
struct Cuckoo {
  static constexpr AlgorithmCategory kCategory = AlgorithmCategory::kHash;
  template <MergeableAggregatePolicy Aggregate, MemoryTracer Tracer>
  static std::unique_ptr<VectorAggregator> Make(const Aggregate& aggregate,
                                                size_t expected_size,
                                                const ExecutionContext& exec) {
    if (exec.num_threads > 1) {
      return std::make_unique<CuckooParallelAggregator<Aggregate>>(
          expected_size, exec, aggregate);
    }
    return Hash<CuckooMap>::Make<Aggregate, Tracer>(aggregate, expected_size,
                                                    exec);
  }
};

/// Hash_TBBSC: one shared chaining table over self-synchronizing states,
/// through the aggregate's concurrent twin (built from the serial policy
/// when it carries runtime state).
struct SharedChaining {
  static constexpr AlgorithmCategory kCategory = AlgorithmCategory::kHash;
  template <MergeableAggregatePolicy Aggregate, MemoryTracer Tracer>
  static std::unique_ptr<VectorAggregator> Make(const Aggregate& aggregate,
                                                size_t expected_size,
                                                const ExecutionContext& exec) {
    using Concurrent = typename ConcurrentAggregateFor<Aggregate>::type;
    if constexpr (std::constructible_from<Concurrent, const Aggregate&>) {
      return std::make_unique<TbbStyleParallelAggregator<Concurrent>>(
          expected_size, exec, Concurrent(aggregate));
    } else {
      return std::make_unique<TbbStyleParallelAggregator<Concurrent>>(
          expected_size, exec);
    }
  }
};

/// An operator template constructed from (expected_size, exec, aggregate)
/// — or from (expected_size, aggregate) when it is serial.
template <template <typename> class Op>
struct Operator {
  static constexpr AlgorithmCategory kCategory = AlgorithmCategory::kHash;
  template <MergeableAggregatePolicy Aggregate, MemoryTracer Tracer>
  static std::unique_ptr<VectorAggregator> Make(const Aggregate& aggregate,
                                                size_t expected_size,
                                                const ExecutionContext& exec) {
    if constexpr (std::constructible_from<Op<Aggregate>, size_t,
                                          ExecutionContext, Aggregate>) {
      return std::make_unique<Op<Aggregate>>(expected_size, exec, aggregate);
    } else {
      return std::make_unique<Op<Aggregate>>(expected_size, aggregate);
    }
  }
};

/// The adaptive operator limited to `Strategies` (core/adaptive_aggregator.h).
/// It starts on a hash strategy, hence the category.
template <AggStrategySet Strategies>
struct Adaptive {
  static constexpr AlgorithmCategory kCategory = AlgorithmCategory::kHash;
  template <MergeableAggregatePolicy Aggregate, MemoryTracer Tracer>
  static std::unique_ptr<VectorAggregator> Make(const Aggregate& aggregate,
                                                size_t expected_size,
                                                const ExecutionContext& exec) {
    AdaptiveOptions options;
    options.strategies = Strategies;
    return std::make_unique<AdaptiveAggregator<Aggregate>>(
        expected_size, exec, options, aggregate);
  }
};

}  // namespace family

/// A row's VectorFactory for one of the stateless aggregate policies.
template <LabelFamily Family, MergeableAggregatePolicy Aggregate,
          MemoryTracer Tracer>
std::unique_ptr<VectorAggregator> MakeFor(size_t expected_size,
                                          const ExecutionContext& exec) {
  return Family::template Make<Aggregate, Tracer>(Aggregate{}, expected_size,
                                                  exec);
}

/// A row's CompositeFactory.
template <LabelFamily Family>
std::unique_ptr<VectorAggregator> MakeComposite(
    const CompositeAggregate& composite, size_t expected_size,
    const ExecutionContext& exec) {
  return Family::template Make<CompositeAggregate, NullTracer>(
      composite, expected_size, exec);
}

/// Instantiates one row for `Tracer`. With the null tracer every aggregate
/// function and the composite get a factory; with an enabled tracer only
/// kTraced rows do, for COUNT and MEDIAN.
template <MemoryTracer Tracer, LabelFamily Family, unsigned kFlags>
constexpr LabelRow Row(const char* name) {
  LabelRow row{{name, Family::kCategory, (kFlags & kParallel) != 0,
                (kFlags & kTable3) != 0, (kFlags & kTable8) != 0,
                (kFlags & kScalarMedian) != 0, (kFlags & kTraced) != 0}};
  if constexpr (!Tracer::kEnabled) {
    row.make = {// In AggregateFunction order.
                &MakeFor<Family, CountAggregate, Tracer>,
                &MakeFor<Family, SumAggregate, Tracer>,
                &MakeFor<Family, MinAggregate, Tracer>,
                &MakeFor<Family, MaxAggregate, Tracer>,
                &MakeFor<Family, AverageAggregate, Tracer>,
                &MakeFor<Family, MedianAggregate, Tracer>,
                &MakeFor<Family, ModeAggregate, Tracer>};
    row.make_composite = &MakeComposite<Family>;
    if constexpr ((kFlags & kScalarMedian) != 0) {
      row.make_scalar_median = &Family::MakeScalarMedian;
    }
  } else if constexpr ((kFlags & kTraced) != 0) {
    row.make[static_cast<size_t>(AggregateFunction::kCount)] =
        &MakeFor<Family, CountAggregate, Tracer>;
    row.make[static_cast<size_t>(AggregateFunction::kMedian)] =
        &MakeFor<Family, MedianAggregate, Tracer>;
  }
  return row;
}

/// The registry. Rows run in paper order — Table 3 and Table 8 interleaved
/// so that each reads in its paper order when filtered — then the
/// extensions.
template <MemoryTracer T>
inline constexpr LabelRow kLabelTable[] = {
    // Paper Table 3 (serial) and Table 8 (concurrent).
    Row<T, family::Tree<ArtTree>, kTable3 | kScalarMedian | kTraced>("ART"),
    Row<T, family::Tree<JudyArray>, kTable3 | kScalarMedian | kTraced>(
        "Judy"),
    Row<T, family::Tree<BTree>, kTable3 | kScalarMedian | kTraced>("Btree"),
    Row<T, family::Hash<ChainingMap>, kTable3 | kTraced>("Hash_SC"),
    Row<T, family::Hash<LinearProbingMap>, kTable3 | kTraced>("Hash_LP"),
    Row<T, family::Hash<SparseMap>, kTable3 | kTraced>("Hash_Sparse"),
    Row<T, family::Hash<DenseMap>, kTable3 | kTraced>("Hash_Dense"),
    Row<T, family::SharedChaining, kParallel | kTable8>("Hash_TBBSC"),
    Row<T, family::Cuckoo, kParallel | kTable3 | kTable8 | kTraced>(
        "Hash_LC"),
    Row<T, family::Sort<IntrosortSorter>, kTable3 | kScalarMedian | kTraced>(
        "Introsort"),
    Row<T, family::Sort<SpreadsortSorter>, kTable3 | kScalarMedian | kTraced>(
        "Spreadsort"),
    Row<T, family::Sort<BlockIndirectSorter>,
        kParallel | kTable8 | kScalarMedian>("Sort_BI"),
    Row<T, family::Sort<ParallelQuicksortSorter>,
        kParallel | kTable8 | kScalarMedian>("Sort_QSLB"),

    // Extensions: the range-capable Ttree, the allocator-ablation twins of
    // ART and Hash_SC (global operator new instead of the arena pool,
    // docs/memory.md), the operators beyond the paper, and the
    // microbenchmark sorts.
    Row<T, family::Tree<TTree>, kScalarMedian | kTraced>("Ttree"),
    Row<T, family::Tree<ArtTreeGlobalNew>, 0>("ART_Global"),
    Row<T, family::Hash<ChainingMapGlobalNew>, 0>("Hash_SC_Global"),
    Row<T, family::Operator<MphVectorAggregator>, 0>("Hash_MPH"),
    Row<T, family::Operator<LocalPartitionAggregator>, kParallel>(
        "Hash_PLocal"),
    Row<T, family::Operator<StripedParallelAggregator>, kParallel>(
        "Hash_Striped"),
    Row<T, family::Operator<RadixPartitionAggregator>, kParallel>(
        "Hash_PRadix"),
    Row<T, family::Adaptive<AggStrategySet{}>, kParallel>(kAdaptiveLabel),
    Row<T, family::Adaptive<kHybridStrategies>, kParallel>("Hybrid"),
    Row<T, family::Sort<QuicksortSorter>, kScalarMedian>("Quicksort"),
    Row<T, family::Sort<MsbRadixSorter>, 0>("Sort_MSBRadix"),
    Row<T, family::Sort<LsbRadixSorter>, 0>("Sort_LSBRadix"),
    Row<T, family::Sort<SamplesortSorter>, kParallel>("Sort_SS"),
    Row<T, family::Sort<TaskQuicksortSorter>, kParallel>("Sort_TBB"),
};

/// The row named `label`; aborts with "Unknown algorithm label" if none.
inline const LabelRow& FindRow(std::span<const LabelRow> table,
                               std::string_view label) {
  for (const LabelRow& row : table) {
    if (label == row.info.name) return row;
  }
  std::fprintf(stderr, "Unknown algorithm label: %.*s\n",
               static_cast<int>(label.size()), label.data());
  MEMAGG_CHECK(false);
  return table.front();
}

}  // namespace memagg

#endif  // MEMAGG_CORE_LABEL_REGISTRY_H_
