// compile-fail: a hash container without Reserve must be rejected with
// GroupMap in the diagnostic — ReserveGroups() pre-sizes every hash table
// through it.

#include <cstddef>
#include <cstdint>

#include "core/aggregate.h"
#include "core/group_store_aggregator.h"

namespace memagg {

template <typename V>
class NoReserveMap {
 public:
  explicit NoReserveMap(size_t expected_size);
  V& GetOrInsert(uint64_t key);
  const V* Find(uint64_t key) const;
  V* Find(uint64_t key);
  size_t size() const;
  size_t MemoryBytes() const;
  template <typename Fn>
  void ForEach(Fn fn) const;
};

using Broken = GroupStoreAggregator<NoReserveMap, SumAggregate>;
Broken* unused = nullptr;

}  // namespace memagg
