// Tiny test-and-test-and-set spinlock used for lock striping in the
// concurrent hash tables. Critical sections there are a handful of loads and
// stores, so spinning beats parking the thread.
//
// SpinLock is an annotated capability (util/thread_annotations.h): guard
// state with GUARDED_BY(lock) and acquire through SpinLockGuard so
// clang -Wthread-safety can verify the locking protocol. The std Lockable
// API (lock/unlock/try_lock) is kept so std::lock_guard continues to work in
// contexts outside the analysis.

#ifndef MEMAGG_UTIL_SPINLOCK_H_
#define MEMAGG_UTIL_SPINLOCK_H_

#include <atomic>

#include "util/lock_rank.h"
#include "util/thread_annotations.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#endif

namespace memagg {

/// Spinlock satisfying the Lockable requirements (usable with
/// std::lock_guard).
class CAPABILITY("mutex") SpinLock {
 public:
  SpinLock() = default;
  explicit SpinLock(LockRank rank) { SetRank(rank); }
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  /// Assigns the rank after construction, for stripe arrays built with
  /// std::make_unique<SpinLock[]> (array new only default-constructs). Must
  /// be called before the array is published to any other thread.
  void SetRank(LockRank rank) {
#if defined(MEMAGG_LOCK_RANK)
    rank_ = rank;
#else
    (void)rank;
#endif
  }

  void lock() ACQUIRE() {
    lockrank::OnAcquire(this, Rank());
    while (true) {
      if (!locked_.exchange(true, std::memory_order_acquire)) return;
      while (locked_.load(std::memory_order_relaxed)) {
        Pause();
      }
    }
  }

  bool try_lock() TRY_ACQUIRE(true) {
    if (!locked_.load(std::memory_order_relaxed) &&
        !locked_.exchange(true, std::memory_order_acquire)) {
      lockrank::OnAcquire(this, Rank(), /*try_acquire=*/true);
      return true;
    }
    return false;
  }

  void unlock() RELEASE() {
    lockrank::OnRelease(this);
    locked_.store(false, std::memory_order_release);
  }

 private:
  LockRank Rank() const {
#if defined(MEMAGG_LOCK_RANK)
    return rank_;
#else
    return LockRank::kUnranked;
#endif
  }

  static void Pause() {
#if defined(__x86_64__) || defined(_M_X64)
    // astlint:allow(raw-simd-intrinsic): spin-wait scheduling hint, not a data
    _mm_pause();  // kernel — nothing for the SimdOps lane ablation to cover.
#endif
  }

  std::atomic<bool> locked_{false};
#if defined(MEMAGG_LOCK_RANK)
  LockRank rank_{LockRank::kUnranked};
#endif
};

/// RAII guard over a SpinLock, visible to the thread-safety analysis
/// (std::lock_guard is not annotated, so locking through it is invisible
/// to -Wthread-safety).
class SCOPED_CAPABILITY SpinLockGuard {
 public:
  explicit SpinLockGuard(SpinLock& lock) ACQUIRE(lock) : lock_(lock) {
    lock_.lock();
  }
  ~SpinLockGuard() RELEASE() { lock_.unlock(); }

  SpinLockGuard(const SpinLockGuard&) = delete;
  SpinLockGuard& operator=(const SpinLockGuard&) = delete;

 private:
  SpinLock& lock_;
};

}  // namespace memagg

#endif  // MEMAGG_UTIL_SPINLOCK_H_
