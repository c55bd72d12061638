// compile-fail: a partitioned operator must reject an aggregate policy
// without Merge — worker-local partial states have to be combined — with
// MergeableAggregatePolicy in the diagnostic.

#include <cstdint>

#include "core/partitioned_aggregator.h"

namespace memagg {

struct NonMergeableSum {
  using State = uint64_t;
  static constexpr bool kNeedsValues = true;
  static void Update(State& state, uint64_t value);
  static double Finalize(const State& state);
  // Missing: static void Merge(State& into, State& from).
};

using Broken = PartitionedAggregator<NonMergeableSum>;
Broken* unused = nullptr;

}  // namespace memagg
