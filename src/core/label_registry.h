// The label registry: one row per algorithm label, the single place the
// label set is spelled. Every consumer reads it — MakeVectorAggregator,
// MakeScalarMedianAggregator, CategoryOfLabel and the label lists
// (core/engine.cc), and the cache-traced twins (sim/traced_engine.cc).
//
// A row is a label name, its flags (thread capability, paper Table 3 /
// Table 8 membership, Q6 scalar median, cache-traced twin), and a row
// template — a "family" — whose static Make<Aggregate, Tracer>(aggregate,
// ...) builds the operator around an aggregate policy value; the family
// also fixes the category. A row points at its family's factory table for
// one MemoryTracer, RowFactories<Family, Tracer>::Table(): the engine reads
// kLabelTable<NullTracer>, where every row's table has one factory per
// aggregate function, one for a CompositeAggregate (the table front-end's
// one pass) and, for families that have one, the Q6 scalar median; the
// traced engine reads kLabelTable<SimTracer>, in which only kTraced rows
// have a table, with factories for COUNT and MEDIAN only (paper Figure 6).
// So core/ never names the simulator, and simulator-traced operators exist
// only for those rows.
//
// The tables are declared here and defined in core/row_factories.h. The
// engine's are explicitly instantiated, one line per family, in the
// registry shards core/registry_*.cc, so the operators compile in parallel
// and a family that no shard instantiates fails the link; the traced ones
// are instantiated by sim/traced_engine.cc.
//
// Internal to the engine: include it only from core/engine.cc,
// core/row_factories.h and sim/traced_engine.cc. Everyone else reads the
// rows through AllLabels()/FindLabel() (core/engine.h).

#ifndef MEMAGG_CORE_LABEL_REGISTRY_H_
#define MEMAGG_CORE_LABEL_REGISTRY_H_

#include <algorithm>
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
#include "core/group_store_aggregator.h"
#include "core/mph_aggregator.h"
#include "core/operator.h"
#include "core/parallel_aggregator.h"
#include "core/partitioned_aggregator.h"
#include "core/scalar.h"
#include "core/sort_aggregator.h"
#include "core/sorters.h"
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

/// A family's operator factories for one tracer. `make` is indexed by
/// AggregateFunction; a null entry means the family has no operator for
/// that function under this tracer.
struct FactoryTable {
  std::array<VectorFactory, kNumAggregateFunctions> make{};
  CompositeFactory make_composite = nullptr;
  ScalarFactory make_scalar_median = nullptr;
};

/// A registry row for one tracer: its info and its family's factory table,
/// or null when the row has no operators under this tracer.
struct LabelRow {
  LabelInfo info;
  const FactoryTable& (*factories)() = nullptr;
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

/// A family with a Q6 scalar-median operator.
template <typename F>
concept ScalarMedianFamily = requires(const ExecutionContext& exec) {
  {
    F::MakeScalarMedian(exec)
  } -> std::same_as<std::unique_ptr<ScalarAggregator>>;
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

/// A serial group store (paper Sections 3.2 and 3.3): a hash table, or an
/// ordered index, which makes the row a tree and gives it a Q6 scalar-median
/// operator.
template <template <typename, typename...> class StoreT>
struct GroupStore {
  static constexpr bool kOrdered =
      OrderedGroupStore<StoreT<uint64_t>, uint64_t>;
  static constexpr AlgorithmCategory kCategory =
      kOrdered ? AlgorithmCategory::kTree : AlgorithmCategory::kHash;
  template <MergeableAggregatePolicy Aggregate, MemoryTracer Tracer>
  static std::unique_ptr<VectorAggregator> Make(const Aggregate& aggregate,
                                                size_t expected_size,
                                                const ExecutionContext&) {
    if constexpr (Tracer::kEnabled) {
      return std::make_unique<GroupStoreAggregator<
          Traced<StoreT, Tracer>::template type, Aggregate>>(expected_size,
                                                             aggregate);
    } else {
      return std::make_unique<GroupStoreAggregator<StoreT, Aggregate>>(
          expected_size, aggregate);
    }
  }
  static std::unique_ptr<ScalarAggregator> MakeScalarMedian(
      const ExecutionContext&)
    requires kOrdered
  {
    return std::make_unique<TreeScalarMedianAggregator<StoreT>>();
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

/// Hash_LC: the serial cuckoo table at one thread, the shared locked one at
/// more (paper Table 8).
struct Cuckoo {
  static constexpr AlgorithmCategory kCategory = AlgorithmCategory::kHash;
  template <MergeableAggregatePolicy Aggregate, MemoryTracer Tracer>
  static std::unique_ptr<VectorAggregator> Make(const Aggregate& aggregate,
                                                size_t expected_size,
                                                const ExecutionContext& exec) {
    if (exec.num_threads > 1) {
      return std::make_unique<LockedTableAggregator<CuckooMap, Aggregate>>(
          std::max(expected_size, kMinSharedSize), exec, aggregate);
    }
    return GroupStore<CuckooMap>::Make<Aggregate, Tracer>(
        aggregate, expected_size, exec);
  }

  // Every upsert into the shared table locks the stripes of its key's two
  // buckets, and the stripe locks are bytes of one array. A table sized for
  // a handful of groups has a handful of buckets, so all workers would spin
  // on one cache line of locks; this floor (8192 buckets) spreads a few hot
  // keys' buckets and stripes over separate lines.
  static constexpr size_t kMinSharedSize = size_t{1} << 14;
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

/// Worker-private tables merged at iterate time
/// (core/partitioned_aggregator.h), over one key partition (Hash_PLocal) or
/// RadixPartitions() of them (Hash_PRadix).
template <bool kRadix>
struct Partitioned {
  static constexpr AlgorithmCategory kCategory = AlgorithmCategory::kHash;
  template <MergeableAggregatePolicy Aggregate, MemoryTracer Tracer>
  static std::unique_ptr<VectorAggregator> Make(const Aggregate& aggregate,
                                                size_t expected_size,
                                                const ExecutionContext& exec) {
    return std::make_unique<PartitionedAggregator<Aggregate>>(
        expected_size, exec, kRadix ? RadixPartitions(exec) : 1, aggregate);
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

/// `Family`'s factory table for `Tracer`: with the null tracer, one factory
/// per aggregate function, the composite's, and the scalar median's if the
/// family has one; with an enabled tracer, COUNT and MEDIAN only.
template <LabelFamily Family, MemoryTracer Tracer>
constexpr FactoryTable FactoriesOf() {
  FactoryTable table;
  if constexpr (!Tracer::kEnabled) {
    table.make = {// In AggregateFunction order.
                  &MakeFor<Family, CountAggregate, Tracer>,
                  &MakeFor<Family, SumAggregate, Tracer>,
                  &MakeFor<Family, MinAggregate, Tracer>,
                  &MakeFor<Family, MaxAggregate, Tracer>,
                  &MakeFor<Family, AverageAggregate, Tracer>,
                  &MakeFor<Family, MedianAggregate, Tracer>,
                  &MakeFor<Family, ModeAggregate, Tracer>};
    table.make_composite = &MakeComposite<Family>;
    if constexpr (ScalarMedianFamily<Family>) {
      table.make_scalar_median = &Family::MakeScalarMedian;
    }
  } else {
    table.make[static_cast<size_t>(AggregateFunction::kCount)] =
        &MakeFor<Family, CountAggregate, Tracer>;
    table.make[static_cast<size_t>(AggregateFunction::kMedian)] =
        &MakeFor<Family, MedianAggregate, Tracer>;
  }
  return table;
}

/// The factory table of `Family` under `Tracer`. Table() is only declared
/// here; core/row_factories.h defines it over a constinit FactoriesOf()
/// table, so no operator is instantiated where this header is included.
template <LabelFamily Family, MemoryTracer Tracer>
struct RowFactories {
  static const FactoryTable& Table();
};

/// One row for `Tracer`. With the null tracer every row points at its
/// family's table; with an enabled tracer only kTraced rows do.
template <MemoryTracer Tracer, LabelFamily Family, unsigned kFlags>
constexpr LabelRow Row(const char* name) {
  static_assert((kFlags & kScalarMedian) == 0 || ScalarMedianFamily<Family>,
                "a kScalarMedian row needs a family with MakeScalarMedian");
  LabelRow row{{name, Family::kCategory, (kFlags & kParallel) != 0,
                (kFlags & kTable3) != 0, (kFlags & kTable8) != 0,
                (kFlags & kScalarMedian) != 0, (kFlags & kTraced) != 0}};
  if constexpr (!Tracer::kEnabled || (kFlags & kTraced) != 0) {
    row.factories = &RowFactories<Family, Tracer>::Table;
  }
  return row;
}

/// The registry. Rows run in paper order — Table 3 and Table 8 interleaved
/// so that each reads in its paper order when filtered — then the
/// extensions.
template <MemoryTracer T>
inline constexpr LabelRow kLabelTable[] = {
    // Paper Table 3 (serial) and Table 8 (concurrent).
    Row<T, family::GroupStore<ArtTree>, kTable3 | kScalarMedian | kTraced>(
        "ART"),
    Row<T, family::GroupStore<JudyArray>,
        kTable3 | kScalarMedian | kTraced>("Judy"),
    Row<T, family::GroupStore<BTree>, kTable3 | kScalarMedian | kTraced>(
        "Btree"),
    Row<T, family::GroupStore<ChainingMap>, kTable3 | kTraced>("Hash_SC"),
    Row<T, family::GroupStore<LinearProbingMap>, kTable3 | kTraced>(
        "Hash_LP"),
    Row<T, family::GroupStore<SparseMap>, kTable3 | kTraced>("Hash_Sparse"),
    Row<T, family::GroupStore<DenseMap>, kTable3 | kTraced>("Hash_Dense"),
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
    // docs/memory.md), and the operators beyond the paper. The sorts that
    // the paper runs only as kernels (Figures 2 and 10) have no row.
    Row<T, family::GroupStore<TTree>, kScalarMedian | kTraced>("Ttree"),
    Row<T, family::GroupStore<ArtTreeGlobalNew>, 0>("ART_Global"),
    Row<T, family::GroupStore<ChainingMapGlobalNew>, 0>(
        "Hash_SC_Global"),
    Row<T, family::Operator<MphVectorAggregator>, 0>("Hash_MPH"),
    Row<T, family::Partitioned</*kRadix=*/false>, kParallel>("Hash_PLocal"),
    Row<T, family::Operator<StripedParallelAggregator>, kParallel>(
        "Hash_Striped"),
    Row<T, family::Partitioned</*kRadix=*/true>, kParallel>("Hash_PRadix"),
    Row<T, family::Adaptive<AggStrategySet{}>, kParallel>(kAdaptiveLabel),
    Row<T, family::Adaptive<kHybridStrategies>, kParallel>("Hybrid"),
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
