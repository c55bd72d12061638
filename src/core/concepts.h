// Concept vocabulary for every pluggable role in the engine.
//
// The paper's six-dimensional sweep is only trustworthy because all 7 hash
// tables, 4 trees, 10 sorts, and the operator templates over them are
// interchangeable behind a common interface. Before this header that
// interface was duck-typed: a container missing a member surfaced as a
// cryptic instantiation error three templates deep, or worse, silently
// skipped an `if constexpr (requires ...)` feature probe. These concepts
// make the contract explicit and checkable:
//
//   role                         concept                 modeled by
//   ---------------------------  ----------------------  -------------------
//   serial group hash table      GroupMap                LinearProbingMap,
//                                                        ChainingMap,
//                                                        SparseMap, DenseMap,
//                                                        CuckooMap
//   ordered group index          OrderedGroupStore       ArtTree, JudyArray,
//                                                        BTree, TTree
//   concurrent group table       ConcurrentGroupMap      CuckooMap,
//                                                        StripedMap,
//                                                        ConcurrentChainingMap
//   aggregate function policy    AggregatePolicy         core/aggregate.h,
//                                  (+ Mergeable...)      CompositeAggregate,
//                                                        the Concurrent*
//                                                        policies
//   sort kernel functor          Sorter / ParallelSorter core/sorters.h
//   allocation strategy          AllocatorPolicy         mem/allocator.h
//   memory-access tracing        MemoryTracer            util/tracer.h
//   aggregation operator         AggregationOperator /   all operator
//                                  ScalarOperator        families
//   composite key codec          TableKeyCodec           PackedKeyCodec,
//                                                        DictKeyCodec
//
// One operator serves both serial roles: GroupStoreAggregator
// (core/group_store_aggregator.h) is constrained on GroupMap ||
// OrderedGroupStore, sizes and reserves only a GroupMap, and answers Q7
// natively only over an OrderedGroupStore. The emit, drain, fold and stats
// steps in the same header take any GroupContainer — the part all three
// table roles share — so the partitioned and concurrent families use them
// too.
//
// Placement note: AllocatorPolicy and MemoryTracer are defined in their own
// layers (mem/, util/) because the container headers below core/ constrain
// their template parameters with them; this header re-exports them by
// inclusion. The container/operator concepts live here because only core/
// (and tests) name them — keeping the include DAG acyclic
// (astlint's include-layering rule enforces it).
//
// tests/static_checks/ pins every concrete type to its row in the table
// above with static_asserts; tests/compile_fail/ proves each concept
// rejects ill-formed instantiations with the concept's name in the
// diagnostic.

#ifndef MEMAGG_CORE_CONCEPTS_H_
#define MEMAGG_CORE_CONCEPTS_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "core/operator.h"
#include "data/key_codec.h"
#include "mem/allocator.h"
#include "sort/sort_common.h"
#include "util/encoded_key.h"
#include "util/tracer.h"

namespace memagg {

namespace concept_internal {

/// Probe functors used inside requires-expressions; declarations only —
/// they are never evaluated.
template <typename V>
struct GroupVisitor {
  void operator()(EncodedKey key, const V& value) const;
};

template <typename V>
struct MutatingGroupVisitor {
  void operator()(V& value) const;
};

}  // namespace concept_internal

// --- Group containers -------------------------------------------------------

/// What every group container offers, serial or concurrent: size and
/// footprint introspection and a walk over every (key, state) pair. The
/// emit, drain and stats steps of core/group_store_aggregator.h need no
/// more.
template <typename M, typename V>
concept GroupContainer = requires(const M& cmap) {
  { cmap.size() } -> std::convertible_to<size_t>;
  { cmap.MemoryBytes() } -> std::convertible_to<size_t>;
  cmap.ForEach(concept_internal::GroupVisitor<V>{});
};

/// The surface shared by every serial group container, hash or tree: a
/// GroupContainer with keyed upsert slots and const-correct lookup.
template <typename M, typename V>
concept GroupStoreBase =
    GroupContainer<M, V> && requires(M map, const M& cmap, EncodedKey key) {
      { map.GetOrInsert(key) } -> std::same_as<V&>;
      { cmap.Find(key) } -> std::same_as<const V*>;
      { map.Find(key) } -> std::same_as<V*>;
    };

/// Serial hash-table role (paper Section 3.2): pre-sized from an expected
/// record count, growable, and reservable ahead of the build phase so
/// ReserveGroups() can pre-size every backend uniformly.
template <typename M, typename V>
concept GroupMap =
    GroupStoreBase<M, V> && std::constructible_from<M, size_t> &&
    requires(M map, size_t expected_entries) { map.Reserve(expected_entries); };

/// Ordered index role (paper Section 3.3): grows with the data (no
/// pre-sizing), iterates in key order, and supports native range-filtered
/// iteration (Q7).
template <typename T, typename V>
concept OrderedGroupStore =
    GroupStoreBase<T, V> && std::default_initializable<T> &&
    requires(const T& ctree, uint64_t lo, uint64_t hi) {
      ctree.ForEachInRange(lo, hi, concept_internal::GroupVisitor<V>{});
    };

/// Thread-safe mutation via a callback run under the structure's own locks
/// (libcuckoo-style upsert; paper Section 5.8).
template <typename M, typename V>
concept UpsertGroupMap = requires(M map, EncodedKey key) {
  map.Upsert(key, concept_internal::MutatingGroupVisitor<V>{});
};

/// Thread-safe insertion with caller-supplied (per-worker) allocation: the
/// structure is shared, the memory behind it is thread-local.
template <typename M, typename V>
concept SharedAllocGroupMap =
    requires(M map, EncodedKey key, typename M::Alloc& alloc) {
      { map.GetOrInsert(key, alloc) } -> std::same_as<V&>;
    };

/// Concurrent group-table role (paper Section 5.8): thread-safe insert AND
/// update — via either locked upsert or shared insertion with per-worker
/// allocators — plus quiescent iteration and introspection.
template <typename M, typename V>
concept ConcurrentGroupMap =
    std::constructible_from<M, size_t> && GroupContainer<M, V> &&
    (UpsertGroupMap<M, V> || SharedAllocGroupMap<M, V>);

// --- Aggregate function policies --------------------------------------------

/// Aggregate-function policy role (core/aggregate.h): a copyable policy
/// value that operators hold and call through, a default-initializable
/// per-group State, an Update step folding one record into it, a Finalize
/// step producing the output value, and the kNeedsValues flag that lets
/// COUNT(*) skip the value column entirely. The steps are const: workers
/// share one policy while they update their states concurrently.
///
/// Note: the *runtime* identifier for an aggregate is the AggregateFunction
/// enum (core/aggregate.h); this concept is the compile-time policy those
/// enum values dispatch to.
template <typename A>
concept AggregatePolicy =
    std::copy_constructible<A> &&
    std::default_initializable<typename A::State> &&
    requires(const A& policy, typename A::State& state, uint64_t value) {
      { A::kNeedsValues } -> std::convertible_to<bool>;
      policy.Update(state, value);
      { policy.Finalize(state) } -> std::convertible_to<double>;
    };

/// Aggregates usable by partitioned operators, which must combine partial
/// per-partition/per-thread states (Gray et al.'s distributive/algebraic
/// requirement, plus buffering holistic states).
template <typename A>
concept MergeableAggregatePolicy =
    AggregatePolicy<A> &&
    requires(const A& policy, typename A::State& into,
             typename A::State& from) {
      policy.Merge(into, from);
    };

// --- Sort kernels -----------------------------------------------------------

/// Record types the sort substrate may permute: plain values moved with
/// memcpy-equivalent stores. Spelled as trivially copy-constructible +
/// trivially destructible (not is_trivially_copyable) because std::pair of
/// scalars — the operators' (key, value) record type — has a formally
/// non-trivial assignment operator.
template <typename T>
concept SortableRecord = std::copyable<T> &&
                         std::is_trivially_copy_constructible_v<T> &&
                         std::is_trivially_destructible_v<T>;

/// Key extractor over a record type: IdentityKey for key columns,
/// PairFirstKey for (key, value) records (sort/sort_common.h).
template <typename F, typename T>
concept KeyExtractor = requires(const F& key_of, const T& record) {
  { key_of(record) } -> std::convertible_to<uint64_t>;
};

/// Sort-kernel functor role (core/sorters.h): sorts both plain key arrays
/// and (key, value) record arrays by the extracted key.
template <typename S>
concept Sorter =
    std::move_constructible<S> &&
    requires(const S& sorter, uint64_t* keys,
             std::pair<uint64_t, uint64_t>* records) {
      sorter(keys, keys, IdentityKey{});
      sorter(records, records, PairFirstKey{});
    };

/// Parallel sort-kernel role: a Sorter with a configurable thread budget
/// (set from ExecutionContext::num_threads by the engine factories).
template <typename S>
concept ParallelSorter = Sorter<S> && requires(S sorter, int num_threads) {
  sorter.num_threads = num_threads;
};

// --- Key codecs -------------------------------------------------------------

/// Composite-key codec role (data/key_codec.h): maps multi-column group
/// keys to the engine's fixed-width EncodedKey and back. Operators never
/// see this interface — they keep running over raw EncodedKey columns; the
/// execution front-end uses it to build the key column, decide whether
/// encoded order is natural order (order_preserving), feed the advisor's
/// cost model (width_bits), and decode result keys into column values.
template <typename C>
concept TableKeyCodec = requires(const C& codec, EncodedKey key) {
  { codec.num_fields() } -> std::convertible_to<size_t>;
  { codec.width_bits() } -> std::convertible_to<int>;
  { codec.order_preserving() } -> std::convertible_to<bool>;
  { codec.Decode(key) } -> std::same_as<DecodedKey>;
};

// --- Operators --------------------------------------------------------------

/// Concrete vector (GROUP BY) aggregation operator: instantiable and
/// pluggable wherever the engine registry hands out operators.
template <typename Op>
concept AggregationOperator =
    std::derived_from<Op, VectorAggregator> && !std::is_abstract_v<Op>;

/// Concrete scalar aggregation operator (Q4-Q6).
template <typename Op>
concept ScalarOperator =
    std::derived_from<Op, ScalarAggregator> && !std::is_abstract_v<Op>;

}  // namespace memagg

#endif  // MEMAGG_CORE_CONCEPTS_H_
