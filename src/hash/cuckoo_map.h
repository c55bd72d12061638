// Hash_LC (paper Sections 3.2.4 and 5.8): concurrent bucketized cuckoo hash
// table modelled on Intel's libcuckoo. Every key lives in one of two
// 4-slot buckets (chosen by two independent hash functions), so reads touch
// at most two cache lines. Inserts that find both buckets full displace
// existing items along a breadth-first eviction path.
//
// Concurrency: striped spinlocks over buckets; an operation on a key locks
// the (at most two) stripes of its candidate buckets in index order.
// Displacement paths are serialized by an eviction mutex, and each single
// displacement additionally takes the stripe locks of the two buckets it
// touches, so readers never observe a key mid-move. libcuckoo's HTM fast
// path is replaced by this lock striping (see DESIGN.md §4); the
// characteristic behaviour — comparatively slow single-threaded build,
// scalable concurrent throughput, bounded two-lookup reads — is preserved.

#ifndef MEMAGG_HASH_CUCKOO_MAP_H_
#define MEMAGG_HASH_CUCKOO_MAP_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "hash/hash_fn.h"
#include "util/bits.h"
#include "util/encoded_key.h"
#include "util/macros.h"
#include "util/mutex.h"
#include "util/simd.h"
#include "util/spinlock.h"
#include "util/thread_annotations.h"
#include "util/tracer.h"

namespace memagg {

/// Concurrent cuckoo hash map from uint64_t keys to Value. Keys must not be
/// kEmptyKey (checked loudly). Value must be default-constructible and
/// movable.
///
/// Thread-safe operations: Upsert, Contains, WithValue. Iteration (ForEach)
/// and MemoryBytes must not race with writers. `Tracer` reports bucket
/// accesses (see util/tracer.h); tracing is meaningful for single-threaded
/// use. `Ops` selects the bucket-scan kernel lane (default: the compiled
/// lane, simd::DefaultOps; tests pin simd::ScalarOps): Ops::MatchKey4 scans
/// a whole 4-slot bucket, for lookups and for free-slot searches (match
/// against kEmptyKey), under the bucket's stripe lock.
template <typename Value, MemoryTracer Tracer = NullTracer,
          simd::SimdOps Ops = simd::DefaultOps>
class CuckooMap {
 public:
  using mapped_type = Value;

  explicit CuckooMap(size_t expected_size) {
    // Two tables' worth of 4-slot buckets at ~80% max load.
    const size_t buckets =
        static_cast<size_t>(NextPowerOfTwo(expected_size / 3 + 1));
    buckets_.assign(std::max<size_t>(buckets, 2), Bucket{});
    mask_ = buckets_.size() - 1;
    locks_ = std::make_unique<SpinLock[]>(kNumLocks);
    // Same-rank family: StripePair acquires two stripes in index order,
    // which is address order within this one array (see AllowsSameRank).
    for (size_t s = 0; s < kNumLocks; ++s) {
      locks_[s].SetRank(LockRank::kCuckooStripe);
    }
  }

  CuckooMap(const CuckooMap&) = delete;
  CuckooMap& operator=(const CuckooMap&) = delete;

  /// Applies `fn(Value&)` to the value for `key`, inserting a
  /// default-constructed value first if the key is absent. This mirrors
  /// libcuckoo's upsert, which the paper highlights as the feature that lets
  /// Hash_LC support holistic aggregation (Section 5.8).
  template <typename Fn>
  void Upsert(EncodedKey key, Fn fn) EXCLUDES(resize_mutex_) {
    // The empty sentinel would match every free slot's key; reject it loudly
    // (always on — aliasing a sentinel corrupts the table unrecoverably).
    MEMAGG_CHECK(key != kEmptyKey);
    while (true) {
      size_t buckets_seen;
      {
        ReaderMutexLock resize_guard(resize_mutex_);
        const size_t b1 = HashKey(key) & mask_;
        const size_t b2 = HashKeyAlt(key) & mask_;
        {
          StripePair stripes(*this, b1, b2);
          if (Value* value = FindInBuckets(key, b1, b2)) {
            fn(*value);
            return;
          }
          if (Value* value = TryInsertEmpty(key, b1, b2)) {
            fn(*value);
            size_.fetch_add(1, std::memory_order_relaxed);
            return;
          }
        }
        // Both buckets full: displace along a BFS path, then retry the
        // insert.
        if (MakeSpace(b1, b2)) continue;
        buckets_seen = buckets_.size();
      }
      Grow(buckets_seen);
    }
  }

  /// True if `key` is present. Thread-safe.
  bool Contains(EncodedKey key) const {
    return const_cast<CuckooMap*>(this)->WithValue(
        key, [](const Value&) {});
  }

  /// Applies `fn(Value&)` to the value for `key` if present; returns whether
  /// the key was found. Thread-safe.
  template <typename Fn>
  bool WithValue(EncodedKey key, Fn fn) EXCLUDES(resize_mutex_) {
    ReaderMutexLock resize_guard(resize_mutex_);
    const size_t b1 = HashKey(key) & mask_;
    const size_t b2 = HashKeyAlt(key) & mask_;
    StripePair stripes(*this, b1, b2);
    if (Value* value = FindInBuckets(key, b1, b2)) {
      fn(*value);
      return true;
    }
    return false;
  }

  /// Single-threaded convenience: returns the value slot for `key`,
  /// inserting a default if absent.
  Value& GetOrInsert(EncodedKey key) {
    Value* result = nullptr;
    Upsert(key, [&result](Value& v) { result = &v; });
    return *result;
  }

  /// Single-threaded convenience lookup.
  // NO_THREAD_SAFETY_ANALYSIS: documented lock-free single-threaded API —
  // takes neither the resize lock nor stripe locks by contract.
  const Value* Find(EncodedKey key) const NO_THREAD_SAFETY_ANALYSIS {
    const size_t b1 = HashKey(key) & mask_;
    const size_t b2 = HashKeyAlt(key) & mask_;
    return const_cast<CuckooMap*>(this)->FindInBuckets(key, b1, b2);
  }

  Value* Find(EncodedKey key) {
    return const_cast<Value*>(
        static_cast<const CuckooMap*>(this)->Find(key));
  }

  /// Pre-sizes the bucket array for `expected_entries` keys so the build
  /// phase avoids growth rehashes. Grow-only; must not race with writers
  /// (quiescent-only, like ForEach) — it takes the resize lock exclusively,
  /// which drains in-flight operations first.
  void Reserve(size_t expected_entries) EXCLUDES(resize_mutex_) {
    const size_t target = std::max<size_t>(
        static_cast<size_t>(NextPowerOfTwo(expected_entries / 3 + 1)), 2);
    WriterMutexLock resize_guard(resize_mutex_);
    if (target > buckets_.size()) RehashToLocked(target);
  }

  size_t size() const { return size_.load(std::memory_order_relaxed); }

  /// Current bucket-array length. Thread-safe; bounds the table's footprint
  /// (see the growth regression test in tests/concurrent_map_test.cc).
  size_t bucket_count() const EXCLUDES(resize_mutex_) {
    ReaderMutexLock resize_guard(resize_mutex_);
    return buckets_.size();
  }

  /// Displacement moves executed along eviction paths (and table-growth
  /// rehash walks) since construction. Already on the slow path — counting
  /// adds nothing to the two-bucket fast path.
  size_t kicks() const { return kicks_.load(std::memory_order_relaxed); }

  /// Invokes fn(key, value) for every stored entry. Not thread-safe.
  // NO_THREAD_SAFETY_ANALYSIS: documented single-threaded iteration — must
  // not race with writers, so it deliberately takes no locks.
  template <typename Fn>
  void ForEach(Fn fn) const NO_THREAD_SAFETY_ANALYSIS {
    for (const Bucket& bucket : buckets_) {
      Tracer::OnAccess(&bucket, sizeof(Bucket));
      for (int slot = 0; slot < kSlotsPerBucket; ++slot) {
        if (bucket.keys[slot] != kEmptyKey) {
          fn(bucket.keys[slot], bucket.values[slot]);
        }
      }
    }
  }

  /// Approximate heap footprint in bytes.
  // NO_THREAD_SAFETY_ANALYSIS: diagnostics-only read; must not race with a
  // concurrent resize by contract.
  size_t MemoryBytes() const NO_THREAD_SAFETY_ANALYSIS {
    return buckets_.size() * sizeof(Bucket) + kNumLocks * sizeof(SpinLock);
  }

 private:
  static constexpr int kSlotsPerBucket = 4;
  static constexpr size_t kNumLocks = 4096;
  static constexpr int kMaxBfsDepth = 5;

  struct Bucket {
    uint64_t keys[kSlotsPerBucket] = {kEmptyKey, kEmptyKey, kEmptyKey,
                                      kEmptyKey};
    Value values[kSlotsPerBucket] = {};
  };

  /// RAII lock over the (deduplicated, index-ordered) stripes of two buckets.
  /// Bucket *contents* are guarded by these stripe locks; the association is
  /// a runtime index computation the thread-safety analysis cannot express,
  /// so both ends of the pair are opted out with a documented escape.
  class StripePair {
   public:
    // NO_THREAD_SAFETY_ANALYSIS: acquires locks_[s1]/locks_[s2] where the
    // stripe indices are runtime values; the deduplicated index-ordered
    // acquisition below is the deadlock-avoidance protocol.
    StripePair(CuckooMap& map, size_t b1, size_t b2)
        NO_THREAD_SAFETY_ANALYSIS {
      size_t s1 = b1 & (kNumLocks - 1);
      size_t s2 = b2 & (kNumLocks - 1);
      if (s1 > s2) std::swap(s1, s2);
      first_ = &map.locks_[s1];
      first_->lock();
      if (s2 != s1) {
        second_ = &map.locks_[s2];
        second_->lock();
      }
    }
    // NO_THREAD_SAFETY_ANALYSIS: releases the dynamically chosen stripes in
    // reverse acquisition order.
    ~StripePair() NO_THREAD_SAFETY_ANALYSIS {
      if (second_ != nullptr) second_->unlock();
      first_->unlock();
    }
    StripePair(const StripePair&) = delete;
    StripePair& operator=(const StripePair&) = delete;

   private:
    SpinLock* first_ = nullptr;
    SpinLock* second_ = nullptr;
  };

  Value* FindInBuckets(EncodedKey key, size_t b1, size_t b2)
      REQUIRES_SHARED(resize_mutex_) {
    for (size_t b : {b1, b2}) {
      Bucket& bucket = buckets_[b];
      Tracer::OnAccess(bucket.keys, sizeof(bucket.keys));
      const int slot = Ops::MatchKey4(bucket.keys, key);
      if (slot >= 0) return &bucket.values[slot];
    }
    return nullptr;
  }

  Value* TryInsertEmpty(EncodedKey key, size_t b1, size_t b2)
      REQUIRES_SHARED(resize_mutex_) {
    for (size_t b : {b1, b2}) {
      Bucket& bucket = buckets_[b];
      Tracer::OnAccess(bucket.keys, sizeof(bucket.keys));
      const int slot = Ops::MatchKey4(bucket.keys, kEmptyKey);
      if (slot >= 0) {
        bucket.keys[slot] = key;
        bucket.values[slot] = Value{};
        return &bucket.values[slot];
      }
    }
    return nullptr;
  }

  /// BFS over displacement paths from {b1, b2}; executes the shortest path
  /// that reaches a bucket with a free slot. Returns false if no path within
  /// the depth bound exists (caller grows the table). Called with the resize
  /// lock held (shared).
  struct PathNode {
    size_t bucket;
    int parent;  // Index into the BFS node array, -1 for roots.
    int parent_slot;
  };

  bool MakeSpace(size_t b1, size_t b2) REQUIRES_SHARED(resize_mutex_)
      EXCLUDES(eviction_mutex_) {
    MutexLock eviction_guard(eviction_mutex_);
    std::vector<PathNode> nodes;
    nodes.push_back({b1, -1, -1});
    nodes.push_back({b2, -1, -1});
    size_t frontier_begin = 0;
    for (int depth = 0; depth < kMaxBfsDepth; ++depth) {
      const size_t frontier_end = nodes.size();
      for (size_t i = frontier_begin; i < frontier_end; ++i) {
        const size_t b = nodes[i].bucket;
        // Snapshot the keys under the stripe lock, then expand. The stripe
        // lock must be released before ExecutePath re-locks buckets.
        uint64_t keys[kSlotsPerBucket];
        bool has_free_slot = false;
        {
          StripePair stripes(*this, b, b);
          for (int slot = 0; slot < kSlotsPerBucket; ++slot) {
            keys[slot] = buckets_[b].keys[slot];
          }
          has_free_slot = Ops::MatchKey4(keys, kEmptyKey) >= 0;
        }
        if (has_free_slot) {
          // Free slot found: walk the path back, displacing items.
          return ExecutePath(nodes, static_cast<int>(i));
        }
        for (int slot = 0; slot < kSlotsPerBucket; ++slot) {
          const EncodedKey key = keys[slot];
          const size_t alt = ((HashKey(key) & mask_) == b ? HashKeyAlt(key)
                                                          : HashKey(key)) &
                             mask_;
          nodes.push_back({alt, static_cast<int>(i), slot});
        }
      }
      frontier_begin = frontier_end;
    }
    return false;
  }

  /// Moves items along the displacement path ending at nodes[leaf], freeing a
  /// slot in one of the two root buckets. Each hop locks the two buckets it
  /// touches and revalidates the key (a concurrent writer may have changed
  /// the slot; in that case we abort and let the caller retry).
  bool ExecutePath(const std::vector<PathNode>& nodes, int leaf)
      REQUIRES_SHARED(resize_mutex_) {
    // Collect the chain root -> leaf.
    std::vector<int> chain;
    for (int at = leaf; at != -1; at = nodes[at].parent) chain.push_back(at);
    std::reverse(chain.begin(), chain.end());
    // Move backwards: the last hop moves an item into the free bucket, etc.
    for (size_t i = chain.size(); i-- > 1;) {
      const PathNode& to_node = nodes[chain[i]];
      const PathNode& from_node = nodes[chain[i - 1]];
      const size_t from = from_node.bucket;
      const size_t to = to_node.bucket;
      const int from_slot = to_node.parent_slot;
      StripePair stripes(*this, from, to);
      Bucket& from_bucket = buckets_[from];
      Bucket& to_bucket = buckets_[to];
      const EncodedKey key = from_bucket.keys[from_slot];
      if (key == kEmptyKey) return true;  // Slot already freed; done early.
      // Revalidate that `to` is still this key's alternate bucket and find a
      // free slot in it.
      const size_t alt =
          ((HashKey(key) & mask_) == from ? HashKeyAlt(key) : HashKey(key)) &
          mask_;
      if (alt != to) return false;
      const int free_slot = Ops::MatchKey4(to_bucket.keys, kEmptyKey);
      if (free_slot < 0) return false;  // Raced; caller retries.
      to_bucket.keys[free_slot] = key;
      to_bucket.values[free_slot] = std::move(from_bucket.values[from_slot]);
      from_bucket.keys[from_slot] = kEmptyKey;
      from_bucket.values[from_slot] = Value{};
      kicks_.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }

  /// Doubles the bucket array and rehashes. Takes the resize lock
  /// exclusively, so all concurrent operations are drained first.
  /// `buckets_seen` is the bucket count the caller observed when its insert
  /// failed: if the table has already grown past it by the time the
  /// exclusive lock is acquired, the grow is skipped — otherwise N threads
  /// failing MakeSpace at the same size would stack N doublings (each
  /// waiting thread re-doubling a table that is no longer full).
  void Grow(size_t buckets_seen) EXCLUDES(resize_mutex_) {
    WriterMutexLock resize_guard(resize_mutex_);
    if (buckets_.size() != buckets_seen) return;  // Lost the grow race.
    RehashToLocked(buckets_.size() * 2);
  }

  /// Replaces the bucket array with one of `new_bucket_count` buckets and
  /// reinserts every item. Shared by Grow and Reserve.
  void RehashToLocked(size_t new_bucket_count) REQUIRES(resize_mutex_) {
    std::vector<Bucket> old_buckets(new_bucket_count, Bucket{});
    old_buckets.swap(buckets_);
    mask_ = buckets_.size() - 1;
    size_.store(0, std::memory_order_relaxed);
    for (Bucket& bucket : old_buckets) {
      for (int slot = 0; slot < kSlotsPerBucket; ++slot) {
        if (bucket.keys[slot] == kEmptyKey) continue;
        ReinsertLocked(bucket.keys[slot], std::move(bucket.values[slot]));
      }
    }
  }

  /// Insert used during Grow (exclusive lock held: no striping needed).
  /// The displacement walk is bounded; after a doubling the table is below
  /// 50% load, where 4-way bucketized cuckoo insertion cannot fail short of
  /// an adversarial hash collision — which the CHECK converts into a loud
  /// failure instead of a livelock.
  void ReinsertLocked(EncodedKey key, Value value) REQUIRES(resize_mutex_) {
    size_t b = HashKey(key) & mask_;
    for (int displacements = 0; displacements < 10000; ++displacements) {
      const size_t alt =
          ((HashKey(key) & mask_) == b ? HashKeyAlt(key) : HashKey(key)) &
          mask_;
      if (Value* slot = TryInsertEmpty(key, b, alt)) {
        *slot = std::move(value);
        size_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      // Displace a pseudo-random victim from bucket b and continue with it.
      // Mixing the displacement counter in keeps the walk from entering a
      // deterministic cycle between a small set of keys.
      Bucket& bucket = buckets_[b];
      const int victim = static_cast<int>(
          ((HashKeyAlt(key) >> 32) ^ static_cast<uint64_t>(displacements)) %
          kSlotsPerBucket);
      std::swap(key, bucket.keys[victim]);
      std::swap(value, bucket.values[victim]);
      kicks_.fetch_add(1, std::memory_order_relaxed);
      // The victim just lost the slot in bucket b; continue at its other
      // candidate bucket.
      b = ((HashKey(key) & mask_) == b ? HashKeyAlt(key) : HashKey(key)) &
          mask_;
    }
    MEMAGG_CHECK(false && "cuckoo rehash failed below 50% load");
  }

  // The bucket *array* (its length and storage) is guarded by resize_mutex_:
  // shared holders may index it, only the exclusive holder (Grow) may swap
  // it. Bucket *contents* are additionally guarded by the stripe locks —
  // see StripePair.
  std::vector<Bucket> buckets_ GUARDED_BY(resize_mutex_);
  size_t mask_ GUARDED_BY(resize_mutex_) = 0;
  std::unique_ptr<SpinLock[]> locks_;
  mutable SharedMutex resize_mutex_{LockRank::kCuckooResize};
  Mutex eviction_mutex_ ACQUIRED_AFTER(resize_mutex_){
      LockRank::kCuckooEviction};
  std::atomic<size_t> size_{0};
  std::atomic<size_t> kicks_{0};
};

}  // namespace memagg

#endif  // MEMAGG_HASH_CUCKOO_MAP_H_
