// compile-fail: an aggregate policy without a static Update step must be
// rejected at the operator's instantiation site with AggregatePolicy in the
// diagnostic.

#include <cstdint>

#include "core/group_store_aggregator.h"
#include "hash/linear_probing_map.h"

namespace memagg {

struct NoUpdateAggregate {
  using State = uint64_t;
  static constexpr bool kNeedsValues = false;
  // Missing: static void Update(State&, uint64_t).
  static double Finalize(const State& state);
};

using Broken = GroupStoreAggregator<LinearProbingMap, NoUpdateAggregate>;
Broken* unused = nullptr;

}  // namespace memagg
