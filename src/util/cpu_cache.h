// Host CPU cache-size detection.
//
// The adaptive operator's cost models (core/adaptive_aggregator.h) key their
// working-set thresholds to the actual last-level cache of the machine the
// query runs on, and the cache simulator (sim/cache_model.h) offers a
// detected-hierarchy configuration next to its paper-machine default. Both
// sit in layers that may not depend on each other (core must not include
// sim — astlint's include-layering rule), so the probe lives here at the
// bottom of the DAG.

#ifndef MEMAGG_UTIL_CPU_CACHE_H_
#define MEMAGG_UTIL_CPU_CACHE_H_

#include <cstddef>

namespace memagg {

/// L3 size of the paper's test machine (i7-6700HQ, 6 MB shared L3) — the
/// fallback when the host exposes nothing.
inline constexpr size_t kDefaultL3CacheBytes = 6 * 1024 * 1024;

/// Detected last-level (L3) data cache size in bytes. Tries sysconf, then
/// the sysfs cache topology; falls back to kDefaultL3CacheBytes (never
/// returns 0). The probe runs once; subsequent calls return the cached
/// value.
size_t DetectedL3CacheBytes();

}  // namespace memagg

#endif  // MEMAGG_UTIL_CPU_CACHE_H_
