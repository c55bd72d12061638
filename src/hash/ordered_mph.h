// Order-preserving minimal perfect hashing (paper Section 3.2).
//
// The paper notes that a hash table *could* produce ordered output by
// pre-sorting the data and using an order-preserving minimal perfect hash
// function, "however, the impact on query execution time would be quite
// severe." This module implements that design so the claim can be measured
// (bench_ablation, label `Hash_MPH`):
//
//   * OrderedMinimalPerfectHash — the canonical order-preserving MPHF over
//     integers: the rank function of the sorted distinct-key set, evaluated
//     with a cache-friendly Eytzinger-layout binary search. Minimal (image
//     is exactly [0, c)), perfect (no collisions), order-preserving
//     (key order == slot order).
//   * MphVectorAggregator (core/mph_aggregator.h) — the two-pass operator
//     the scheme forces: pass 1 sorts and deduplicates the keys to build the
//     MPHF; pass 2 aggregates into a dense value array indexed by mph(key).
//     It lives in core/ so this header stays below the operator layer
//     (astlint's include-layering rule).

#ifndef MEMAGG_HASH_ORDERED_MPH_H_
#define MEMAGG_HASH_ORDERED_MPH_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sort/spreadsort.h"
#include "util/encoded_key.h"
#include "util/macros.h"

namespace memagg {

/// Order-preserving minimal perfect hash over a fixed key set.
class OrderedMinimalPerfectHash {
 public:
  OrderedMinimalPerfectHash() = default;

  /// Builds from an arbitrary key column (duplicates allowed; they share a
  /// slot). O(n log n).
  void Build(const uint64_t* keys, size_t n) {
    sorted_keys_.assign(keys, keys + n);
    SpreadSort(sorted_keys_.data(), sorted_keys_.data() + sorted_keys_.size(),
               IdentityKey{});
    sorted_keys_.erase(
        std::unique(sorted_keys_.begin(), sorted_keys_.end()),
        sorted_keys_.end());
    BuildEytzinger();
  }

  /// Number of distinct keys (the size of the hash image).
  size_t size() const { return sorted_keys_.size(); }

  /// The slot of `key` in [0, size()), or size() if the key was not in the
  /// build set. Slots are ordered: key1 < key2 implies slot1 < slot2.
  size_t Slot(EncodedKey key) const {
    // Eytzinger (BFS-order) binary search: the next probe is a predictable
    // child index, and the hot top levels share cache lines.
    const size_t n = eytzinger_.size();
    size_t i = 0;
    while (i < n) {
      i = 2 * i + 1 + (eytzinger_[i] < key ? 1 : 0);
    }
    // Cancel the trailing right-turns plus one step: standard Eytzinger
    // lower_bound restoration. j is 1-based; 0 means every key < `key`.
    const size_t j = (i + 1) >> (std::countr_one(i + 1) + 1);
    const size_t rank = j == 0 ? n : rank_of_[j - 1];
    if (rank < sorted_keys_.size() && sorted_keys_[rank] == key) return rank;
    return sorted_keys_.size();
  }

  /// The key stored at `slot` (inverse of Slot for present keys).
  uint64_t KeyAt(size_t slot) const {
    MEMAGG_DCHECK(slot < sorted_keys_.size());
    return sorted_keys_[slot];
  }

  /// Approximate heap footprint in bytes.
  size_t MemoryBytes() const {
    return (sorted_keys_.size() + eytzinger_.size() + rank_of_.size()) *
           sizeof(uint64_t);
  }

 private:
  void BuildEytzinger() {
    const size_t n = sorted_keys_.size();
    eytzinger_.assign(n, 0);
    rank_of_.assign(n, 0);
    size_t next = 0;
    FillEytzinger(0, next);
  }

  // Places sorted_keys_ into BFS order; rank_of_[i] is the sorted rank of
  // eytzinger_[i].
  void FillEytzinger(size_t i, size_t& next) {
    if (i >= eytzinger_.size()) return;
    FillEytzinger(2 * i + 1, next);
    eytzinger_[i] = sorted_keys_[next];
    rank_of_[i] = next;
    ++next;
    FillEytzinger(2 * i + 2, next);
  }

  std::vector<uint64_t> sorted_keys_;
  std::vector<uint64_t> eytzinger_;
  std::vector<size_t> rank_of_;
};

}  // namespace memagg

#endif  // MEMAGG_HASH_ORDERED_MPH_H_
