// Group-store aggregation (paper Sections 3.2 and 3.3), and the steps every
// table-backed family takes on its groups.
//
// Hash-based and tree-based aggregation run the same two phases over
// different structures. Build phase: each key is looked up in the store;
// distributive and algebraic aggregates fold the record into the group's
// state eagerly ("early aggregation"), while holistic aggregates buffer
// every value of the group. Iterate phase: walk the store and finalize each
// group. GroupStoreAggregator runs both over either serial store: a hash
// table (GroupMap), which it pre-sizes, or an ordered index
// (OrderedGroupStore), which grows with the data, emits its groups in key
// order, and answers range-filtered iteration (Q7) natively.
//
// The free functions ahead of the operator are the steps a table-backed
// family takes on a store's groups, each defined once here for this
// operator, for PartitionedAggregator (core/partitioned_aggregator.h), and
// for LockedTableAggregator and TbbStyleParallelAggregator
// (core/parallel_aggregator.h):
//
//   emit   FinalizeInto, EmitGroups  finalize each group into a result row
//   drain  DrainGroups               move each group's State into a partial
//   fold   FoldGroups                Merge partials or another store's
//                                    groups in, Update records in
//   stats  AddStoreStats             the store's counters into QueryStats

#ifndef MEMAGG_CORE_GROUP_STORE_AGGREGATOR_H_
#define MEMAGG_CORE_GROUP_STORE_AGGREGATOR_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/aggregate.h"
#include "core/concepts.h"
#include "core/migratable.h"
#include "core/operator.h"
#include "core/result.h"
#include "obs/query_stats.h"
#include "util/encoded_key.h"

namespace memagg {

// --- The steps on a store's groups ------------------------------------------

/// Emit: the visitor a store walk calls to finalize each group it visits
/// into a row appended to `result`.
template <AggregatePolicy Aggregate>
auto FinalizeInto(VectorResult* result, const Aggregate& aggregate) {
  using State = typename Aggregate::State;
  return [result, &aggregate](EncodedKey key, const State& state) {
    // Holistic finalizers reorder their buffered values in place; the
    // entries are not actually const.
    result->push_back({key, aggregate.Finalize(const_cast<State&>(state))});
  };
}

/// Emit: one row per group of `store`, in the store's walk order.
template <AggregatePolicy Aggregate,
          GroupContainer<typename Aggregate::State> Store>
VectorResult EmitGroups(const Store& store, const Aggregate& aggregate) {
  VectorResult result;
  result.reserve(store.size());
  store.ForEach(FinalizeInto(&result, aggregate));
  return result;
}

/// Drain: moves the State of every group of `store` into `out`'s partials.
/// The store keeps its moved-from entries, so only destruction or
/// reassignment is valid afterwards (core/migratable.h).
template <AggregatePolicy Aggregate,
          GroupContainer<typename Aggregate::State> Store>
void DrainGroups(const Store& store, PartialAggState<Aggregate>* out) {
  using State = typename Aggregate::State;
  store.ForEach([out](EncodedKey key, const State& state) {
    out->partials.emplace_back(key, std::move(const_cast<State&>(state)));
  });
}

/// Fold: merges another strategy's partial groups, and updates its raw
/// records, into the States `slot(key)` returns: the absorbing store's entry
/// for the key, inserted on first sight.
template <MergeableAggregatePolicy Aggregate, std::invocable<EncodedKey> Slot>
void FoldGroups(PartialAggState<Aggregate>& from, Slot slot,
                const Aggregate& aggregate) {
  for (auto& [key, state] : from.partials) aggregate.Merge(slot(key), state);
  for (const auto& [key, value] : from.records) {
    aggregate.Update(slot(key), value);
  }
}

/// Fold: merges every group of `from` into `into` (a worker's table into the
/// one that survives the merge).
template <MergeableAggregatePolicy Aggregate,
          GroupStoreBase<typename Aggregate::State> Store>
void FoldGroups(const Store& from, Store& into, const Aggregate& aggregate) {
  using State = typename Aggregate::State;
  from.ForEach([&into, &aggregate](EncodedKey key, const State& state) {
    aggregate.Merge(into.GetOrInsert(key), const_cast<State&>(state));
  });
}

/// Stats: adds the counters of `store`, a container of `State`s, to
/// `stats`. A tree maps whichever diagnostic struct its family has (ART/Judy
/// node censuses, B-tree/T-tree shape stats) onto the uniform node and
/// height counters; a hash table reports its entries and whichever of
/// rehashes, cuckoo kicks, probe and chain lengths it tracks; either adds its
/// allocator's counters. A lock-striped store (hash/striped_map.h) reports
/// its stripes as key-space partitions and adds each stripe's counters.
template <std::default_initializable State, GroupContainer<State> Store>
void AddStoreStats(const Store& store, QueryStats* stats) {
  if constexpr (requires { store.num_stripes(); }) {
    stats->Add(StatCounter::kPartitions, store.num_stripes());
    store.ForEachStripe([stats](const auto& stripe) {
      AddStoreStats<State>(stripe, stats);
    });
  } else if constexpr (requires { store.ComputeNodeStats(); }) {
    const auto node_stats = store.ComputeNodeStats();
    if constexpr (requires { node_stats.inner_nodes(); }) {  // ART
      stats->Add(StatCounter::kTreeNodes,
                 node_stats.inner_nodes() + node_stats.leaves);
      stats->MaxOf(StatCounter::kTreeHeight, node_stats.max_depth);
    } else {  // Judy
      stats->Add(StatCounter::kTreeNodes, node_stats.linear_branches +
                                              node_stats.bitmap_branches +
                                              node_stats.bitmap_leaves);
    }
  } else if constexpr (requires { store.ComputeTreeStats(); }) {
    const auto tree_stats = store.ComputeTreeStats();
    if constexpr (requires { tree_stats.inner_nodes; }) {  // B-tree
      stats->Add(StatCounter::kTreeNodes,
                 tree_stats.inner_nodes + tree_stats.leaves);
    } else {  // T-tree
      stats->Add(StatCounter::kTreeNodes, tree_stats.nodes);
    }
    stats->MaxOf(StatCounter::kTreeHeight, tree_stats.height);
  } else {
    stats->Add(StatCounter::kHashEntries, store.size());
    if constexpr (requires { store.rehashes(); }) {
      stats->Add(StatCounter::kRehashes, store.rehashes());
    }
    if constexpr (requires { store.kicks(); }) {
      stats->Add(StatCounter::kCuckooKicks, store.kicks());
    }
    if constexpr (requires { store.ComputeProbeStats(); }) {
      const auto probe = store.ComputeProbeStats();
      stats->Add(StatCounter::kProbeTotal, probe.total_probes);
      stats->MaxOf(StatCounter::kProbeMax, probe.max_probe);
    }
    if constexpr (requires { store.ComputeChainStats(); }) {
      stats->MaxOf(StatCounter::kChainMax,
                   store.ComputeChainStats().max_chain);
    }
    if constexpr (requires { store.rehashes_saved(); }) {
      stats->Add(StatCounter::kRehashesSaved, store.rehashes_saved());
    }
  }
  if constexpr (requires { store.AllocatorStats(); }) {
    AddAllocStats(stats, store.AllocatorStats());
  }
}

// --- The operator -----------------------------------------------------------

/// Vector aggregation over any serial group store. `StoreT` is the store
/// template, instantiated at the aggregate's State type: a hash table
/// (LinearProbingMap, ChainingMap, SparseMap, DenseMap, CuckooMap) that
/// models GroupMap, or an ordered index (ArtTree, JudyArray, BTree, TTree)
/// that models OrderedGroupStore (core/concepts.h). `Aggregate` is an
/// aggregate policy from core/aggregate.h, held by value. A serial operator:
/// it consumes on one worker, so ConsumeMorsel never runs concurrently with
/// itself.
template <template <typename> class StoreT, MergeableAggregatePolicy Aggregate>
  requires GroupMap<StoreT<typename Aggregate::State>,
                    typename Aggregate::State> ||
           OrderedGroupStore<StoreT<typename Aggregate::State>,
                             typename Aggregate::State>
class GroupStoreAggregator final : public MigratableAggregator<Aggregate> {
 public:
  using State = typename Aggregate::State;
  using Store = StoreT<State>;
  using Partial = PartialAggState<Aggregate>;

  /// A hash table is sized up front and reservable; an ordered index grows
  /// with the data and iterates in key order.
  static constexpr bool kSized = GroupMap<Store, State>;
  static constexpr bool kOrdered = OrderedGroupStore<Store, State>;

  /// `expected_size` pre-sizes a hash table: the most groups the caller
  /// expects. That is the record count, by the paper's assumption that only
  /// the dataset size is known, unless the caller has proved a smaller bound
  /// (table queries pass their key codec's group bound). An ordered index
  /// cannot pre-size (paper Section 3.3) and ignores it.
  explicit GroupStoreAggregator(size_t expected_size, Aggregate aggregate = {})
    requires kSized
      : store_(expected_size), aggregate_(std::move(aggregate)) {}
  explicit GroupStoreAggregator(size_t /*expected_size*/,
                                Aggregate aggregate = {})
    requires(!kSized)
      : aggregate_(std::move(aggregate)) {}

  void ReserveGroups(size_t expected_groups) override {
    if constexpr (kSized) store_.Reserve(expected_groups);
  }

  void ConsumeMorsel(const uint64_t* keys, const uint64_t* values,
                     const Morsel& m) override {
    if constexpr (Aggregate::kNeedsValues) {
      for (size_t i = m.begin; i < m.end; ++i) {
        aggregate_.Update(store_.GetOrInsert(keys[i]), values[i]);
      }
    } else {
      for (size_t i = m.begin; i < m.end; ++i) {
        aggregate_.Update(store_.GetOrInsert(keys[i]), 0);
      }
    }
    rows_consumed_ += m.end - m.begin;
  }

  VectorResult Iterate() override { return EmitGroups(store_, aggregate_); }

  bool SupportsRange() const override { return kOrdered; }

  VectorResult IterateRange(uint64_t lo, uint64_t hi) override {
    if constexpr (kOrdered) {
      VectorResult result;
      store_.ForEachInRange(lo, hi, FinalizeInto(&result, aggregate_));
      return result;
    } else {
      return MigratableAggregator<Aggregate>::IterateRange(lo, hi);
    }
  }

  // --- MigratableAggregator (core/migratable.h) -----------------------------

  ProgressSnapshot Progress() const override {
    return {rows_consumed_, store_.size(), store_.MemoryBytes()};
  }

  Partial ExtractPartialState() override {
    // Trees are not movable, so extraction moves the States out and leaves
    // the drained store behind.
    Partial out;
    out.partials.reserve(store_.size());
    DrainGroups(store_, &out);
    out.rows = rows_consumed_;
    rows_consumed_ = 0;
    return out;
  }

  void AbsorbPartialState(Partial&& partial) override {
    FoldGroups(
        partial,
        [this](EncodedKey key) -> State& { return store_.GetOrInsert(key); },
        aggregate_);
    rows_consumed_ += partial.rows;
  }

  size_t NumGroups() const override { return store_.size(); }

  size_t DataStructureBytes() const override { return store_.MemoryBytes(); }

  void CollectStats(QueryStats* stats) const override {
    AddStoreStats<State>(store_, stats);
  }

 private:
  Store store_;
  uint64_t rows_consumed_ = 0;  ///< Rows consumed (Progress reporting).
  [[no_unique_address]] Aggregate aggregate_;
};

}  // namespace memagg

#endif  // MEMAGG_CORE_GROUP_STORE_AGGREGATOR_H_
