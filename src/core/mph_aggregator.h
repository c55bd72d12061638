// MphVectorAggregator (paper Section 3.2): the vector-aggregation operator
// built on hash/ordered_mph.h's order-preserving minimal perfect hash. Split
// from that header so hash/ stays below the operator layer in the include
// DAG (tools/check_layering.py).

#ifndef MEMAGG_CORE_MPH_AGGREGATOR_H_
#define MEMAGG_CORE_MPH_AGGREGATOR_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/aggregate.h"
#include "core/concepts.h"
#include "core/operator.h"
#include "core/result.h"
#include "hash/ordered_mph.h"
#include "obs/query_stats.h"
#include "util/encoded_key.h"
#include "util/macros.h"

namespace memagg {

/// Vector aggregation via an order-preserving MPHF: the §3.2 design the
/// paper dismisses, implemented so bench_ablation can quantify the cost.
template <AggregatePolicy Aggregate>
class MphVectorAggregator final : public VectorAggregator {
 public:
  using State = typename Aggregate::State;

  explicit MphVectorAggregator(size_t /*expected_size*/ = 0,
                               Aggregate aggregate = {})
      : aggregate_(std::move(aggregate)) {}

  void BeginConsume(int num_workers, size_t /*expected_rows*/) override {
    MEMAGG_CHECK(num_workers == 1 && "Hash_MPH consumes on one worker");
  }

  /// The MPHF needs the complete key set, so morsels only buffer their
  /// records; EndBatch builds the function and the states.
  void ConsumeMorsel(const uint64_t* keys, const uint64_t* values,
                     const Morsel& m) override {
    buffered_keys_.insert(buffered_keys_.end(), keys + m.begin,
                          keys + m.end);
    if constexpr (Aggregate::kNeedsValues) {
      MEMAGG_CHECK(values != nullptr);
      buffered_values_.insert(buffered_values_.end(), values + m.begin,
                              values + m.end);
    }
  }

  /// Rebuilds the function and the dense states from scratch over every
  /// record buffered so far (the two-pass cost the paper anticipates).
  void EndBatch() override {
    mph_.Build(buffered_keys_.data(), buffered_keys_.size());
    states_.clear();
    states_.resize(mph_.size());
    for (size_t i = 0; i < buffered_keys_.size(); ++i) {
      const size_t slot = mph_.Slot(buffered_keys_[i]);
      MEMAGG_DCHECK(slot < states_.size());
      aggregate_.Update(states_[slot], Aggregate::kNeedsValues
                                           ? buffered_values_[i]
                                           : 0);
    }
  }

  VectorResult Iterate() override {
    VectorResult result;
    result.reserve(states_.size());
    for (size_t slot = 0; slot < states_.size(); ++slot) {
      result.push_back({mph_.KeyAt(slot), aggregate_.Finalize(states_[slot])});
    }
    return result;
  }

  bool SupportsRange() const override { return true; }

  VectorResult IterateRange(uint64_t lo, uint64_t hi) override {
    VectorResult result;
    for (size_t slot = 0; slot < states_.size(); ++slot) {
      const EncodedKey key = mph_.KeyAt(slot);
      if (key < lo) continue;
      if (key > hi) break;  // Slots are key-ordered.
      result.push_back({key, aggregate_.Finalize(states_[slot])});
    }
    return result;
  }

  size_t NumGroups() const override { return states_.size(); }

  size_t DataStructureBytes() const override {
    return mph_.MemoryBytes() + states_.capacity() * sizeof(State);
  }

  void CollectStats(QueryStats* stats) const override {
    stats->Add(StatCounter::kHashEntries, states_.size());
  }

 private:
  OrderedMinimalPerfectHash mph_;
  std::vector<State> states_;
  std::vector<uint64_t> buffered_keys_;
  std::vector<uint64_t> buffered_values_;
  [[no_unique_address]] Aggregate aggregate_;
};

}  // namespace memagg

#endif  // MEMAGG_CORE_MPH_AGGREGATOR_H_
