// Morsel-driven work division (the execution layer's unit of scheduling).
//
// An input range [0, n) is split into fixed-size "morsels" of consecutive
// rows. Workers claim morsels through an atomic cursor instead of receiving
// one static chunk each, so skewed per-row costs (Zipf keys, holistic
// aggregates with fat groups) balance dynamically: a worker that draws an
// expensive morsel simply claims fewer of them. Morsel sizes are chosen so a
// morsel's working set stays cache-friendly while the claim overhead stays
// negligible (Leis et al., "Morsel-Driven Parallelism", SIGMOD'14).
//
// The morsel grid is a pure function of (n, grain): morsel i always covers
// [i * grain, min(n, (i+1) * grain)). Loops that need per-morsel side
// arrays (samplesort histograms, scatter offsets) can therefore size and
// index them deterministically, independent of which worker runs which
// morsel.

#ifndef MEMAGG_EXEC_MORSEL_H_
#define MEMAGG_EXEC_MORSEL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace memagg {

/// Smallest morsel the default policy hands out; bounds claim overhead.
inline constexpr size_t kMinMorselRows = size_t{1} << 14;  // 16K rows

/// Largest morsel the default policy hands out; bounds load imbalance.
inline constexpr size_t kMaxMorselRows = size_t{1} << 16;  // 64K rows

/// One claimed unit of work.
struct Morsel {
  size_t index;  ///< Position in the morsel grid (0-based, deterministic).
  size_t begin;  ///< First row (inclusive).
  size_t end;    ///< Last row (exclusive).
  int worker;    ///< Slot id of the claiming worker, in [0, num_workers).
};

/// Default grain: aim for several morsels per worker so the cursor can
/// balance skew, clamped to [kMinMorselRows, kMaxMorselRows].
inline size_t ChooseMorselRows(size_t n, int num_workers) {
  const size_t target = n / (static_cast<size_t>(num_workers) * 8 + 1);
  return std::clamp(target, kMinMorselRows, kMaxMorselRows);
}

/// Number of morsels in the grid for (n, grain).
inline size_t NumMorselsFor(size_t n, size_t grain) {
  return grain == 0 ? 0 : (n + grain - 1) / grain;
}

/// Atomic claim cursor over a morsel grid. Shared by all workers of one
/// parallel operation; each TryClaim hands out the next unclaimed morsel.
class MorselCursor {
 public:
  MorselCursor(size_t n, size_t grain)
      : MorselCursor(n, grain, 0, NumMorselsFor(n, grain)) {}

  /// Cursor over the sub-range [first_morsel, last_morsel) of the (n, grain)
  /// grid. Morsel indices and row spans are those of the full grid, so side
  /// arrays indexed by Morsel::index keep working — this is how the adaptive
  /// operator re-dispatches the remaining morsels after a strategy switch.
  MorselCursor(size_t n, size_t grain, size_t first_morsel, size_t last_morsel)
      : n_(n),
        grain_(grain),
        num_morsels_(std::min(last_morsel, NumMorselsFor(n, grain))),
        next_(first_morsel) {}

  size_t num_morsels() const { return num_morsels_; }
  size_t grain() const { return grain_; }

  /// Claims the next morsel for `worker`. Returns false once the grid is
  /// exhausted.
  bool TryClaim(int worker, Morsel* out) {
    const size_t index = next_.fetch_add(1, std::memory_order_relaxed);
    if (index >= num_morsels_) return false;
    out->index = index;
    out->begin = index * grain_;
    out->end = std::min(n_, out->begin + grain_);
    out->worker = worker;
    return true;
  }

 private:
  size_t n_;
  size_t grain_;
  size_t num_morsels_;
  std::atomic<size_t> next_{0};
};

}  // namespace memagg

#endif  // MEMAGG_EXEC_MORSEL_H_
