// compile-fail: a tree without range-filtered iteration must be rejected at
// GroupStoreAggregator's instantiation site with OrderedGroupStore in the
// diagnostic (native ForEachInRange is what makes a tree a tree here — Q7).

#include <cstddef>
#include <cstdint>

#include "core/aggregate.h"
#include "core/group_store_aggregator.h"

namespace memagg {

template <typename V>
class NoRangeTree {
 public:
  NoRangeTree() = default;
  V& GetOrInsert(uint64_t key);
  const V* Find(uint64_t key) const;
  V* Find(uint64_t key);
  size_t size() const;
  size_t MemoryBytes() const;
  template <typename Fn>
  void ForEach(Fn fn) const;
  // Missing: ForEachInRange(lo, hi, fn) const.
};

using Broken = GroupStoreAggregator<NoRangeTree, SumAggregate>;
Broken* unused = nullptr;

}  // namespace memagg
