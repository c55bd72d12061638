// compile-fail: a hash container without size() must be rejected at
// GroupStoreAggregator's instantiation site with GroupMap in the diagnostic.

#include <cstddef>
#include <cstdint>

#include "core/aggregate.h"
#include "core/group_store_aggregator.h"

namespace memagg {

template <typename V>
class NoSizeMap {
 public:
  explicit NoSizeMap(size_t expected_size);
  V& GetOrInsert(uint64_t key);
  const V* Find(uint64_t key) const;
  V* Find(uint64_t key);
  void Reserve(size_t expected_entries);
  size_t MemoryBytes() const;
  template <typename Fn>
  void ForEach(Fn fn) const;
};

using Broken = GroupStoreAggregator<NoSizeMap, SumAggregate>;
Broken* unused = nullptr;

}  // namespace memagg
