// The hash function shared by all memagg hash tables: a 64-bit finalizer-style
// mixer (Murmur3/splitmix lineage). It is cheap (~5 ops), avalanches well so
// that power-of-two tables can mask the low bits, and is invertible (a
// bijection), so distinct keys never collide before the table reduction.
//
// HashKeyAlt is a second, independent mixer with its own constants: cuckoo
// hashing needs its two hash families independent (tests/hash_fn_test.cc
// pins the independence statistically, and pins HashKey's values).

#ifndef MEMAGG_HASH_HASH_FN_H_
#define MEMAGG_HASH_HASH_FN_H_

#include <cstdint>

#include "util/encoded_key.h"

namespace memagg {

/// Mixes `key` into a uniformly distributed 64-bit hash.
inline uint64_t HashKey(EncodedKey key) {
  uint64_t h = key;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// A second, independent hash for cuckoo hashing's alternate table.
inline uint64_t HashKeyAlt(EncodedKey key) {
  uint64_t h = key + 0x9e3779b97f4a7c15ULL;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

/// Sentinel key used by the open-addressing tables to mark empty slots
/// (mirrors Google densehash's required "empty key"). Dataset keys must not
/// equal this value; the generators never produce it, and the serial
/// open-addressing maps reject it loudly (MEMAGG_CHECK) rather than alias.
inline constexpr uint64_t kEmptyKey = ~0ULL;

/// Sentinel for deleted slots (open addressing tables with erase support).
inline constexpr uint64_t kDeletedKey = ~0ULL - 1;

}  // namespace memagg

#endif  // MEMAGG_HASH_HASH_FN_H_
