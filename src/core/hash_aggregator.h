// Hash-based vector aggregation (paper Section 3.2).
//
// Build phase: each key is looked up in the hash table; distributive and
// algebraic aggregates fold the record into the group's state eagerly
// ("early aggregation"), while holistic aggregates buffer every value of the
// group. Iterate phase: walk the table and finalize each group.

#ifndef MEMAGG_CORE_HASH_AGGREGATOR_H_
#define MEMAGG_CORE_HASH_AGGREGATOR_H_

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

/// Vector aggregation over any memagg hash map. `MapT` is the map template
/// (LinearProbingMap, ChainingMap, SparseMap, DenseMap, CuckooMap,
/// ConcurrentChainingMap); `Aggregate` is an aggregate policy from
/// core/aggregate.h. The map instantiated at the aggregate's State type
/// must model GroupMap (core/concepts.h). A serial operator: it consumes on
/// one worker, so ConsumeMorsel never runs concurrently with itself.
template <template <typename> class MapT, MergeableAggregatePolicy Aggregate>
  requires GroupMap<MapT<typename Aggregate::State>, typename Aggregate::State>
class HashVectorAggregator final : public MigratableAggregator<Aggregate> {
 public:
  using State = typename Aggregate::State;
  using Partial = PartialAggState<Aggregate>;

  /// `expected_size` pre-sizes the table. The paper assumes only the dataset
  /// size is known (cardinality estimation is unreliable), so callers pass
  /// the record count.
  explicit HashVectorAggregator(size_t expected_size) : map_(expected_size) {}

  void ReserveGroups(size_t expected_groups) override {
    // GroupMap guarantees Reserve, so no feature probe is needed.
    map_.Reserve(expected_groups);
  }

  void ConsumeMorsel(const uint64_t* keys, const uint64_t* values,
                     const Morsel& m) override {
    if constexpr (Aggregate::kNeedsValues) {
      for (size_t i = m.begin; i < m.end; ++i) {
        Aggregate::Update(map_.GetOrInsert(keys[i]), values[i]);
      }
    } else {
      for (size_t i = m.begin; i < m.end; ++i) {
        Aggregate::Update(map_.GetOrInsert(keys[i]), 0);
      }
    }
    rows_consumed_ += m.end - m.begin;
  }

  VectorResult Iterate() override {
    VectorResult result;
    result.reserve(map_.size());
    map_.ForEach([&result](EncodedKey key, const State& state) {
      // Holistic finalizers reorder their buffered values in place; the
      // entries are not actually const.
      result.push_back({key, Aggregate::Finalize(const_cast<State&>(state))});
    });
    return result;
  }

  // --- MigratableAggregator (core/migratable.h) -----------------------------

  ProgressSnapshot Progress() const override {
    return {rows_consumed_, map_.size(), map_.MemoryBytes()};
  }

  Partial ExtractPartialState() override {
    Partial out;
    out.partials.reserve(map_.size());
    map_.ForEach([&out](EncodedKey key, const State& state) {
      out.partials.emplace_back(key, std::move(const_cast<State&>(state)));
    });
    out.rows = rows_consumed_;
    rows_consumed_ = 0;
    return out;
  }

  void AbsorbPartialState(Partial&& partial) override {
    for (auto& [key, state] : partial.partials) {
      Aggregate::Merge(map_.GetOrInsert(key), state);
    }
    for (const auto& [key, value] : partial.records) {
      Aggregate::Update(map_.GetOrInsert(key), value);
    }
    rows_consumed_ += partial.rows;
  }

  size_t NumGroups() const override { return map_.size(); }

  size_t DataStructureBytes() const override { return map_.MemoryBytes(); }

  void CollectStats(QueryStats* stats) const override {
    stats->Add(StatCounter::kHashEntries, map_.size());
    if constexpr (requires { map_.rehashes(); }) {
      stats->Add(StatCounter::kRehashes, map_.rehashes());
    }
    if constexpr (requires { map_.kicks(); }) {
      stats->Add(StatCounter::kCuckooKicks, map_.kicks());
    }
    if constexpr (requires { map_.ComputeProbeStats(); }) {
      const auto probe = map_.ComputeProbeStats();
      stats->Add(StatCounter::kProbeTotal, probe.total_probes);
      stats->MaxOf(StatCounter::kProbeMax, probe.max_probe);
    }
    if constexpr (requires { map_.ComputeChainStats(); }) {
      stats->MaxOf(StatCounter::kChainMax, map_.ComputeChainStats().max_chain);
    }
    if constexpr (requires { map_.rehashes_saved(); }) {
      stats->Add(StatCounter::kRehashesSaved, map_.rehashes_saved());
    }
    if constexpr (requires { map_.AllocatorStats(); }) {
      AddAllocStats(stats, map_.AllocatorStats());
    }
  }

  /// Direct access for tests.
  MapT<State>& map() { return map_; }

 private:
  MapT<State> map_;
  uint64_t rows_consumed_ = 0;  ///< Rows consumed (Progress reporting).
};

}  // namespace memagg

#endif  // MEMAGG_CORE_HASH_AGGREGATOR_H_
