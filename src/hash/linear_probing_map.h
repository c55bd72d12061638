// Hash_LP (paper Section 3.2.1): custom open-addressing hash table with
// linear probing.
//
// Follows the paper's described "industry best practices":
//   * capacity is kept at a power of two so the modulo reduction is a bitwise
//     AND (SizingPolicy::kPowerOfTwo, the default);
//   * if a power-of-two capacity would overshoot the memory budget, the
//     caller can fall back to a prime capacity (kPrime) or the exact
//     requested size (kExact), both of which use the slower modulo reduction;
//   * all items live in one contiguous slot array — no pointers — which is
//     what gives Hash_LP its cache-friendly layout.
//
// The slot array comes from an allocator policy (mem/allocator.h). With the
// default arena allocator each map owns a private arena released wholesale
// when the map dies — partitioned aggregators exploit this to free a whole
// partition's table in one shot after merging it.
//
// Probing is group-at-a-time over a Swiss-table-style control-byte array:
// one 16-wide tag compare (Ops::MatchByteTag) filters a whole group of
// slots before any slot is loaded. The groups tile the classic linear scan
// in order (window k covers probe offsets 16k..16k+15 from the home slot),
// and the first empty control byte is exactly where the scalar scan would
// have inserted — so slot placement, and therefore ComputeProbeStats, is
// bit-identical to the pre-SIMD layout on every lane. The control array
// carries a group-width-1 mirror tail (written modulo capacity) so an
// unaligned group load from any home slot never wraps, for any capacity
// the three sizing policies can produce.

#ifndef MEMAGG_HASH_LINEAR_PROBING_MAP_H_
#define MEMAGG_HASH_LINEAR_PROBING_MAP_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "hash/hash_fn.h"
#include "mem/allocator.h"
#include "util/bits.h"
#include "util/encoded_key.h"
#include "util/macros.h"
#include "util/prime.h"
#include "util/simd.h"
#include "util/tracer.h"

namespace memagg {

/// How the table picks its slot-array capacity (paper Section 3.2.1).
enum class SizingPolicy {
  kPowerOfTwo,  ///< Round up to a power of two; reduce with bitwise AND.
  kPrime,       ///< Round up to a prime; reduce with modulo.
  kExact,       ///< Use the requested size as-is; reduce with modulo.
};

/// Open-addressing hash map with linear probing from uint64_t keys to Value.
/// Keys must not be kEmptyKey (checked loudly). Not thread-safe. `Tracer`
/// reports every byte range touched (see util/tracer.h); `Alloc` provides
/// the slot and control arrays; `Ops` selects the probe kernel lane
/// (default: the compiled lane, simd::DefaultOps; tests and benchmarks pin
/// simd::ScalarOps).
template <typename Value, MemoryTracer Tracer = NullTracer,
          AllocatorPolicy Alloc = ArenaAllocator,
          simd::SimdOps Ops = simd::DefaultOps>
class LinearProbingMap {
 public:
  using mapped_type = Value;

  /// `expected_size` pre-sizes the table; the paper sizes tables to the
  /// dataset size since group-by cardinality is unknown in advance.
  explicit LinearProbingMap(size_t expected_size,
                            SizingPolicy policy = SizingPolicy::kPowerOfTwo,
                            Alloc alloc = Alloc())
      : policy_(policy), alloc_(std::move(alloc)) {
    Rebuild(DesiredCapacity(expected_size + 1));
  }

  ~LinearProbingMap() { DestroySlots(); }

  LinearProbingMap(const LinearProbingMap&) = delete;
  LinearProbingMap& operator=(const LinearProbingMap&) = delete;

  LinearProbingMap(LinearProbingMap&& other) noexcept
      : policy_(other.policy_),
        alloc_(std::move(other.alloc_)),
        slots_(other.slots_),
        ctrl_(other.ctrl_),
        capacity_(other.capacity_),
        size_(other.size_),
        rehashes_(other.rehashes_),
        rehashes_saved_(other.rehashes_saved_) {
    other.slots_ = nullptr;
    other.ctrl_ = nullptr;
    other.capacity_ = 0;
    other.size_ = 0;
    other.rehashes_ = 0;
    other.rehashes_saved_ = 0;
  }

  LinearProbingMap& operator=(LinearProbingMap&& other) noexcept {
    if (this != &other) {
      DestroySlots();  // Before alloc_ is replaced: the slots live in it.
      policy_ = other.policy_;
      alloc_ = std::move(other.alloc_);
      slots_ = other.slots_;
      ctrl_ = other.ctrl_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      rehashes_ = other.rehashes_;
      rehashes_saved_ = other.rehashes_saved_;
      other.slots_ = nullptr;
      other.ctrl_ = nullptr;
      other.capacity_ = 0;
      other.size_ = 0;
      other.rehashes_ = 0;
      other.rehashes_saved_ = 0;
    }
    return *this;
  }

  /// Returns the value slot for `key`, default-constructing it on first use.
  Value& GetOrInsert(EncodedKey key) {
    // The empty sentinel would silently alias every empty slot; reject it
    // before it can corrupt the table (always on, not just in debug builds).
    MEMAGG_CHECK(key != kEmptyKey);
    if (MEMAGG_UNLIKELY((size_ + 1) * 10 > capacity_ * 7)) {
      Rebuild(DesiredCapacity(capacity_ * 2));
    }
    const uint64_t hash = HashKey(key);
    const uint8_t tag = simd::TagOfHash(hash);
    size_t idx = Reduce(hash);
    while (true) {
      const uint8_t* group = ctrl_ + idx;
      Tracer::OnAccess(group, simd::kGroupWidth);
      // Tag hits first: with no deletions a key never sits past the first
      // empty byte of its probe sequence, so a stale hit past it just
      // fails the full-key compare.
      for (uint32_t match = Ops::MatchByteTag(group, tag); match != 0;
           match &= match - 1) {
        Slot& slot = slots_[WrapSlot(idx + std::countr_zero(match))];
        Tracer::OnAccess(&slot, sizeof(Slot));
        if (MEMAGG_LIKELY(slot.key == key)) return slot.value;
      }
      const uint32_t empty = Ops::MatchEmpty(group);
      if (MEMAGG_LIKELY(empty != 0)) {
        // First empty byte in scan order == where the scalar linear probe
        // would have inserted; placement stays lane-independent.
        const size_t pos = WrapSlot(idx + std::countr_zero(empty));
        Slot& slot = slots_[pos];
        Tracer::OnAccess(&slot, sizeof(Slot));
        slot.key = key;
        slot.value = Value{};
        SetCtrl(pos, tag);
        ++size_;
        return slot.value;
      }
      idx = AdvanceGroup(idx);
    }
  }

  /// Pre-sizes the slot array for `expected_entries` keys so the build loop
  /// never rebuilds. Grow-only; credits the growth doublings a build from
  /// the current capacity would have performed to rehashes_saved().
  void Reserve(size_t expected_entries) {
    // Invert the 70% growth trigger: capacity must satisfy
    // (entries + 1) * 10 <= capacity * 7.
    const size_t target =
        DesiredCapacity(((expected_entries + 1) * 10 + 6) / 7);
    if (target <= capacity_) return;
    for (size_t c = capacity_; c < target; c *= 2) ++rehashes_saved_;
    Rebuild(target);
  }

  /// Returns the value for `key` or nullptr if absent.
  const Value* Find(EncodedKey key) const {
    MEMAGG_CHECK(key != kEmptyKey);
    const uint64_t hash = HashKey(key);
    const uint8_t tag = simd::TagOfHash(hash);
    size_t idx = Reduce(hash);
    while (true) {
      const uint8_t* group = ctrl_ + idx;
      Tracer::OnAccess(group, simd::kGroupWidth);
      for (uint32_t match = Ops::MatchByteTag(group, tag); match != 0;
           match &= match - 1) {
        const Slot& slot = slots_[WrapSlot(idx + std::countr_zero(match))];
        Tracer::OnAccess(&slot, sizeof(Slot));
        if (MEMAGG_LIKELY(slot.key == key)) return &slot.value;
      }
      if (MEMAGG_LIKELY(Ops::MatchEmpty(group) != 0)) return nullptr;
      idx = AdvanceGroup(idx);
    }
  }

  Value* Find(EncodedKey key) {
    return const_cast<Value*>(
        static_cast<const LinearProbingMap*>(this)->Find(key));
  }

  /// Number of distinct keys stored.
  size_t size() const { return size_; }

  size_t capacity() const { return capacity_; }

  SizingPolicy policy() const { return policy_; }

  /// Growth rebuilds since construction (cold-path counter; the initial
  /// sizing does not count).
  size_t rehashes() const { return rehashes_; }

  /// Growth rebuilds avoided thanks to Reserve().
  size_t rehashes_saved() const { return rehashes_saved_; }

  /// Slot-array allocator counters (see mem/arena.h).
  AllocStats AllocatorStats() const { return alloc_.Stats(); }

  /// Invokes fn(key, value) for every stored entry, in table order.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (size_t idx = 0; idx < capacity_; ++idx) {
      const Slot& slot = slots_[idx];
      Tracer::OnAccess(&slot, sizeof(Slot));
      if (slot.key != kEmptyKey) fn(slot.key, slot.value);
    }
  }

  /// Approximate heap footprint in bytes.
  size_t MemoryBytes() const {
    return capacity_ * sizeof(Slot) + CtrlBytes(capacity_);
  }

  /// Probe-distance diagnostics, computed on demand (no hot-path counters).
  /// `max_probe`/`total_probes` measure each key's displacement from its
  /// home slot + 1; primary clustering shows up as a heavy tail.
  struct ProbeStats {
    size_t entries = 0;
    size_t max_probe = 0;
    size_t total_probes = 0;
    double load_factor = 0.0;

    double average_probe() const {
      return entries == 0 ? 0.0
                          : static_cast<double>(total_probes) /
                                static_cast<double>(entries);
    }
  };

  ProbeStats ComputeProbeStats() const {
    ProbeStats stats;
    stats.load_factor =
        static_cast<double>(size_) / static_cast<double>(capacity_);
    for (size_t idx = 0; idx < capacity_; ++idx) {
      const Slot& slot = slots_[idx];
      if (slot.key == kEmptyKey) continue;
      const size_t home = Reduce(HashKey(slot.key));
      const size_t distance =
          idx >= home ? idx - home : idx + capacity_ - home;
      ++stats.entries;
      stats.total_probes += distance + 1;
      stats.max_probe = std::max(stats.max_probe, distance + 1);
    }
    return stats;
  }

 private:
  struct Slot {
    EncodedKey key = kEmptyKey;
    Value value{};
  };

  static size_t CtrlBytes(size_t capacity) {
    return capacity + simd::kGroupWidth - 1;
  }

  size_t DesiredCapacity(size_t at_least) const {
    switch (policy_) {
      case SizingPolicy::kPowerOfTwo:
        return static_cast<size_t>(NextPowerOfTwo(at_least));
      case SizingPolicy::kPrime:
        return static_cast<size_t>(NextPrime(at_least));
      case SizingPolicy::kExact:
        return at_least;
    }
    MEMAGG_CHECK(false);
    return at_least;
  }

  size_t Reduce(uint64_t hash) const {
    // Power-of-two capacity: modulo becomes a mask (the optimization the
    // paper highlights). Other policies pay the division.
    if (policy_ == SizingPolicy::kPowerOfTwo) return hash & (capacity_ - 1);
    return hash % capacity_;
  }

  /// Wraps a group-relative position (< capacity + group width) back into
  /// the slot array. Prime/exact capacities may be smaller than a group, so
  /// the general case is a modulo, not a single subtraction.
  size_t WrapSlot(size_t pos) const {
    if (policy_ == SizingPolicy::kPowerOfTwo) return pos & (capacity_ - 1);
    return pos % capacity_;
  }

  size_t AdvanceGroup(size_t idx) const {
    // Only reachable when a full group held no empty byte, which requires
    // capacity > group width (smaller tables are fully covered by one
    // mirrored group and always contain an empty at ≤70% load) — so one
    // subtraction wraps.
    const size_t next = idx + simd::kGroupWidth;
    return next >= capacity_ ? next - capacity_ : next;
  }

  /// Writes a control byte at `pos`, plus every mirror image of `pos` in the
  /// tail (positions pos + k*capacity below capacity + group width - 1), so
  /// unaligned group loads from any home slot see consistent bytes even when
  /// the capacity is smaller than a group.
  void SetCtrl(size_t pos, uint8_t v) {
    for (size_t i = pos; i < CtrlBytes(capacity_); i += capacity_) {
      ctrl_[i] = v;
    }
  }

  void Rebuild(size_t new_capacity) {
    Slot* old_slots = slots_;
    uint8_t* old_ctrl = ctrl_;
    const size_t old_capacity = capacity_;
    if (old_slots != nullptr) ++rehashes_;
    capacity_ = new_capacity;
    slots_ = static_cast<Slot*>(
        alloc_.AllocateBytes(new_capacity * sizeof(Slot), alignof(Slot)));
    for (size_t i = 0; i < new_capacity; ++i) new (&slots_[i]) Slot();
    ctrl_ = static_cast<uint8_t*>(
        alloc_.AllocateBytes(CtrlBytes(new_capacity), simd::kGroupWidth));
    std::memset(ctrl_, simd::kCtrlEmpty, CtrlBytes(new_capacity));
    size_ = 0;
    for (size_t i = 0; i < old_capacity; ++i) {
      Slot& slot = old_slots[i];
      if (slot.key != kEmptyKey) {
        GetOrInsert(slot.key) = std::move(slot.value);
      }
    }
    if (old_slots != nullptr) {
      ReleaseSlots(old_slots, old_ctrl, old_capacity);
    }
  }

  void DestroySlots() {
    if (slots_ == nullptr) return;
    ReleaseSlots(slots_, ctrl_, capacity_);
    slots_ = nullptr;
    ctrl_ = nullptr;
    capacity_ = 0;
    size_ = 0;
  }

  void ReleaseSlots(Slot* slots, uint8_t* ctrl, size_t count) {
    if constexpr (!std::is_trivially_destructible_v<Slot>) {
      for (size_t i = 0; i < count; ++i) slots[i].~Slot();
    }
    alloc_.DeallocateBytes(slots, count * sizeof(Slot));
    alloc_.DeallocateBytes(ctrl, CtrlBytes(count));
  }

  SizingPolicy policy_;
  Alloc alloc_;
  Slot* slots_ = nullptr;
  uint8_t* ctrl_ = nullptr;
  size_t capacity_ = 0;
  size_t size_ = 0;
  size_t rehashes_ = 0;
  size_t rehashes_saved_ = 0;
};

}  // namespace memagg

#endif  // MEMAGG_HASH_LINEAR_PROBING_MAP_H_
