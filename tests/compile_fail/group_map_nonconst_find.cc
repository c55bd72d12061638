// compile-fail: a hash container whose Find is not const-qualified must be
// rejected with GroupMap in the diagnostic (const-correct lookup is part of
// the contract — iterate-phase readers hold const references).

#include <cstddef>
#include <cstdint>

#include "core/aggregate.h"
#include "core/group_store_aggregator.h"

namespace memagg {

template <typename V>
class NonConstFindMap {
 public:
  explicit NonConstFindMap(size_t expected_size);
  V& GetOrInsert(uint64_t key);
  // Missing: const V* Find(uint64_t) const.
  V* Find(uint64_t key);
  void Reserve(size_t expected_entries);
  size_t size() const;
  size_t MemoryBytes() const;
  template <typename Fn>
  void ForEach(Fn fn) const;
};

using Broken = GroupStoreAggregator<NonConstFindMap, SumAggregate>;
Broken* unused = nullptr;

}  // namespace memagg
