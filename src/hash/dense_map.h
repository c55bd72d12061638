// Hash_Dense (paper Section 3.2.2): open-addressing hash table with
// quadratic (triangular) probing in the style of Google dense_hash_map —
// one dense slot array, power-of-two capacity, and a growth policy that
// trades memory for speed. As the paper notes, during a resize the table
// briefly holds both the old and new arrays, which is what produces
// Hash_Dense's peak-memory spikes in Tables 6 and 7.
//
// Probing is group-at-a-time over a Swiss-table-style control-byte array
// kept alongside the slots: each slot's control byte is either kCtrlEmpty
// or the 7-bit tag of its key's hash, so one 16-wide tag compare
// (Ops::MatchByteTag) filters a whole group before any 16-byte slot is
// touched. The probe sequence walks group *starts* by triangular numbers
// scaled by the group width — triangular numbers cover every residue mod a
// power of two, so the group starts cover every 16-aligned offset from the
// home slot and the groups cover every slot; occupancy ≤ 50% guarantees an
// empty byte is found.

#ifndef MEMAGG_HASH_DENSE_MAP_H_
#define MEMAGG_HASH_DENSE_MAP_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "hash/hash_fn.h"
#include "util/bits.h"
#include "util/encoded_key.h"
#include "util/macros.h"
#include "util/simd.h"
#include "util/tracer.h"

namespace memagg {

/// Quadratic-probing dense hash map from uint64_t keys to Value, with
/// SIMD-probed control bytes. Keys must not be kEmptyKey (checked loudly).
/// Not thread-safe. `Tracer` reports every byte range touched (see
/// util/tracer.h); `Ops` selects the probe kernel lane (default: the
/// compiled lane, simd::DefaultOps; tests and benchmarks pin
/// simd::ScalarOps).
template <typename Value, MemoryTracer Tracer = NullTracer,
          simd::SimdOps Ops = simd::DefaultOps>
class DenseMap {
 public:
  using mapped_type = Value;

  explicit DenseMap(size_t expected_size) {
    // dense_hash keeps occupancy below 50%, so pre-sizing for `expected_size`
    // items allocates twice that many slots — the "speed at the expense of
    // memory" trade the paper describes (and the reason Hash_Dense tops
    // Tables 6-7).
    Rebuild(static_cast<size_t>(NextPowerOfTwo(2 * (expected_size + 1))));
  }

  /// Returns the value slot for `key`, default-constructing it on first use.
  Value& GetOrInsert(EncodedKey key) {
    // The empty sentinel would silently alias every empty slot; reject it
    // before it can corrupt the table (always on, not just in debug builds —
    // the branch is perfectly predicted and the aliasing is unrecoverable).
    MEMAGG_CHECK(key != kEmptyKey);
    // dense_hash grows at 50% occupancy to keep probe sequences short.
    if (MEMAGG_UNLIKELY((size_ + 1) * 2 > capacity_)) {
      Rebuild(capacity_ * 2);
    }
    const uint64_t hash = HashKey(key);
    const uint8_t tag = simd::TagOfHash(hash);
    size_t idx = hash & mask_;
    size_t step = 0;
    while (true) {
      const uint8_t* group = ctrl_.data() + idx;
      Tracer::OnAccess(group, simd::kGroupWidth);
      // Full slots first: with no deletions a key is never stored past the
      // first empty byte of its probe sequence, so tag hits can be checked
      // before the empty mask without missing a match.
      for (uint32_t match = Ops::MatchByteTag(group, tag); match != 0;
           match &= match - 1) {
        Slot& slot = slots_[(idx + std::countr_zero(match)) & mask_];
        Tracer::OnAccess(&slot, sizeof(Slot));
        if (MEMAGG_LIKELY(slot.key == key)) return slot.value;
      }
      const uint32_t empty = Ops::MatchEmpty(group);
      if (MEMAGG_LIKELY(empty != 0)) {
        const size_t pos = (idx + std::countr_zero(empty)) & mask_;
        Slot& slot = slots_[pos];
        Tracer::OnAccess(&slot, sizeof(Slot));
        slot.key = key;
        slot.value = Value{};
        SetCtrl(pos, tag);
        ++size_;
        return slot.value;
      }
      // Triangular-number probing over group starts: visits every
      // group-width-aligned offset from home exactly once per cycle.
      idx = (idx + simd::kGroupWidth * ++step) & mask_;
    }
  }

  /// Pre-sizes the table for `expected_entries` keys at dense_hash's 50%
  /// occupancy ceiling so the build loop never rebuilds. Grow-only.
  void Reserve(size_t expected_entries) {
    const size_t target =
        static_cast<size_t>(NextPowerOfTwo(2 * (expected_entries + 1)));
    if (target > capacity_) Rebuild(target);
  }

  /// Returns the value for `key` or nullptr if absent.
  const Value* Find(EncodedKey key) const {
    MEMAGG_CHECK(key != kEmptyKey);
    const uint64_t hash = HashKey(key);
    const uint8_t tag = simd::TagOfHash(hash);
    size_t idx = hash & mask_;
    size_t step = 0;
    while (true) {
      const uint8_t* group = ctrl_.data() + idx;
      Tracer::OnAccess(group, simd::kGroupWidth);
      for (uint32_t match = Ops::MatchByteTag(group, tag); match != 0;
           match &= match - 1) {
        const Slot& slot = slots_[(idx + std::countr_zero(match)) & mask_];
        Tracer::OnAccess(&slot, sizeof(Slot));
        if (MEMAGG_LIKELY(slot.key == key)) return &slot.value;
      }
      if (MEMAGG_LIKELY(Ops::MatchEmpty(group) != 0)) return nullptr;
      idx = (idx + simd::kGroupWidth * ++step) & mask_;
    }
  }

  Value* Find(EncodedKey key) {
    return const_cast<Value*>(static_cast<const DenseMap*>(this)->Find(key));
  }

  size_t size() const { return size_; }

  size_t capacity() const { return capacity_; }

  /// Invokes fn(key, value) for every stored entry, in table order.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const Slot& slot : slots_) {
      Tracer::OnAccess(&slot, sizeof(Slot));
      if (slot.key != kEmptyKey) fn(slot.key, slot.value);
    }
  }

  /// Approximate heap footprint in bytes.
  size_t MemoryBytes() const {
    return capacity_ * sizeof(Slot) + ctrl_.size();
  }

 private:
  struct Slot {
    EncodedKey key = kEmptyKey;
    Value value{};
  };

  /// Writes a control byte, mirroring the first group-width-1 bytes past the
  /// array end so an unaligned group load from any slot never wraps.
  void SetCtrl(size_t pos, uint8_t v) {
    ctrl_[pos] = v;
    if (pos < simd::kGroupWidth - 1) ctrl_[capacity_ + pos] = v;
  }

  void Rebuild(size_t new_capacity) {
    // One full group must exist for the mirror trick to be valid.
    if (new_capacity < simd::kGroupWidth) new_capacity = simd::kGroupWidth;
    std::vector<Slot> old_slots = std::move(slots_);
    capacity_ = new_capacity;
    mask_ = capacity_ - 1;
    slots_.assign(capacity_, Slot{});
    ctrl_.assign(capacity_ + simd::kGroupWidth - 1, simd::kCtrlEmpty);
    size_ = 0;
    for (Slot& slot : old_slots) {
      if (slot.key != kEmptyKey) {
        GetOrInsert(slot.key) = std::move(slot.value);
      }
    }
  }

  std::vector<Slot> slots_;
  std::vector<uint8_t> ctrl_;
  size_t capacity_ = 0;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace memagg

#endif  // MEMAGG_HASH_DENSE_MAP_H_
