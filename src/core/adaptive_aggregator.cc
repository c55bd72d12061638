#include "core/adaptive_aggregator.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace memagg {
namespace {

// Cost-model constants, in cycles. These are coarse calibrations against
// bench_adaptive on the reference machine — the model only has to rank
// strategies correctly near the decision boundaries, not predict absolute
// runtimes (see docs/adaptive.md for the calibration sweep).
constexpr double kProbeBase = 3.0;        // Cache-resident probe + update.
constexpr double kMissPenalty = 24.0;     // Added as the working set swamps L3.
constexpr double kPartitionPerRow = 2.5;  // Incremental radix routing.
constexpr double kAtomicPerRow = 20.0;    // Striped-lock acquire/release +
                                          // the fenced update (measured: the
                                          // striped map trails the private
                                          // tables ~2.5x per row at low
                                          // cardinality and the sort fallback
                                          // ~1.7x at high).
constexpr double kContentionPerRow = 30.0;  // Hot-stripe serialization, scaled
                                            // by skew and worker overlap.
constexpr double kMergePerGroup = 6.0;    // Move one group across tables.
constexpr double kSortPerRowLog = 1.2;    // Comparison sort, per row per log2.
constexpr double kScanPerRow = 1.5;       // Sorted-run aggregation scan.
constexpr double kMigratePerGroup = 150.0;   // Extract + re-insert one group
                                             // into a hash destination: walk
                                             // the drained tables, move the
                                             // state, re-probe the new
                                             // structure (measured end to end
                                             // on the Rseq-Shf sweep, not just
                                             // the pair move).
constexpr double kMigrateAppendPerGroup = 20.0;  // Into sort: buffer append.
constexpr double kMigratePerRecord = 25.0;   // Re-probe one buffered record
                                             // when leaving sort.
constexpr double kSwitchFixedCycles = 2e5;   // Tear down + construct + rewire.
constexpr double kBarrierCycles = 20000.0;  // Fork/join of one parallel phase.
// The switch hysteresis, kSwitchMargin, is in the header: the operator
// template applies it.

constexpr double kInfiniteCost = std::numeric_limits<double>::infinity();

/// Expected cycles for one probe+update against a table whose working set is
/// `ws` bytes: the base cost plus a miss penalty that grows smoothly with
/// cache pressure. Hot keys under skew are effectively cache-resident, so the
/// caller passes a skew-discounted working set where appropriate.
double ProbeCost(double ws, double l3) {
  if (ws < 0) ws = 0;
  const double pressure = ws / (ws + l3);  // 0 when resident, → 1 past LLC.
  return kProbeBase + kMissPenalty * pressure;
}

double Log2AtLeast1(double x) { return std::log2(std::max(2.0, x)); }

}  // namespace

const char* AggStrategyName(AggStrategy strategy) {
  switch (strategy) {
    case AggStrategy::kSerialHash:
      return "hash";
    case AggStrategy::kLocalCentral:
      return "local-central";
    case AggStrategy::kLocalTree:
      return "local-tree";
    case AggStrategy::kRadix:
      return "radix";
    case AggStrategy::kSharedMap:
      return "shared-map";
    case AggStrategy::kSort:
      return "sort";
  }
  return "?";
}

bool StrategyApplicable(AggStrategy strategy, int workers) {
  switch (strategy) {
    case AggStrategy::kSerialHash:
      return workers == 1;
    case AggStrategy::kLocalCentral:
    case AggStrategy::kLocalTree:
    case AggStrategy::kRadix:
    case AggStrategy::kSharedMap:
      // The parallel designs degenerate to serial hash + merge overhead at
      // one worker; keep the inventory minimal there.
      return workers > 1;
    case AggStrategy::kSort:
      return true;
  }
  return false;
}

KeySampleStats MeasureKeySample(const uint64_t* keys, size_t n) {
  KeySampleStats stats;
  if (n == 0 || keys == nullptr) return stats;
  constexpr size_t kMaxSample = 4096;
  // Prime stride with wraparound so cyclic key layouts cannot resonate with
  // the sampling grid (the same defense as core/advisor.cc).
  constexpr size_t kPrimeStride = 2654435761u % 4093u;  // = Knuth mod prime.
  uint64_t sample[kMaxSample];
  const size_t count = std::min(n, kMaxSample);
  if (count == n) {
    for (size_t i = 0; i < count; ++i) sample[i] = keys[i];
  } else {
    size_t index = 0;
    for (size_t i = 0; i < count; ++i) {
      sample[i] = keys[index];
      index += kPrimeStride;
      if (index >= n) index -= n;
    }
  }
  std::sort(sample, sample + count);
  size_t distinct = 0;
  size_t singletons = 0;
  size_t top_run = 0;
  size_t run = 0;
  for (size_t i = 0; i < count; ++i) {
    if (i == 0 || sample[i] != sample[i - 1]) {
      if (run == 1) ++singletons;
      top_run = std::max(top_run, run);
      run = 0;
      ++distinct;
    }
    ++run;
  }
  if (run == 1) ++singletons;
  top_run = std::max(top_run, run);
  stats.sampled = count;
  stats.distinct = distinct;
  stats.top_frac = static_cast<double>(top_run) / static_cast<double>(count);
  stats.singleton_frac =
      static_cast<double>(singletons) / static_cast<double>(count);
  return stats;
}

double EstimatedStrategyCost(AggStrategy strategy,
                             const StrategyCostInputs& in) {
  const int w = std::max(1, in.workers);
  if (!StrategyApplicable(strategy, w)) return kInfiniteCost;
  const double rows = std::max(1.0, in.rows_remaining);
  const double groups = std::max(1.0, in.est_groups);
  const double workers = static_cast<double>(w);
  const double ws = groups * in.entry_bytes;
  // Under skew the hot head of the distribution stays resident regardless of
  // the table size, so discount the effective working set by the top-key mass.
  const double skew = std::min(0.9, std::max(0.0, in.skew));
  const double ws_hot = ws * (1.0 - skew);

  switch (strategy) {
    case AggStrategy::kSerialHash:
      return rows * ProbeCost(ws_hot, in.l3_bytes);
    case AggStrategy::kLocalCentral: {
      // Contention-free build on W private tables, then a serial walk of the
      // other W-1 tables into the first: merge cost scales with W·G wall-clock.
      const double build = rows / workers * ProbeCost(ws_hot, in.l3_bytes);
      const double merge = (workers - 1.0) * groups * kMergePerGroup;
      return build + merge + kBarrierCycles;
    }
    case AggStrategy::kLocalTree: {
      // Same build; pairwise merge rounds run in parallel, so wall-clock merge
      // is G per round times ceil(log2 W) rounds.
      const double build = rows / workers * ProbeCost(ws_hot, in.l3_bytes);
      const double rounds = std::ceil(Log2AtLeast1(workers));
      const double merge = rounds * (groups * kMergePerGroup + kBarrierCycles);
      return build + merge;
    }
    case AggStrategy::kRadix: {
      // Each key is routed to one of P ≈ W partitions, so every per-partition
      // table holds ~ws/P bytes — partitioning buys back cache residency at
      // high cardinality. The per-partition worker copies merge in parallel.
      const double partitions = workers;
      const double build =
          rows / workers *
          (kPartitionPerRow + ProbeCost(ws_hot / partitions, in.l3_bytes));
      // The incremental path keeps one table per (worker, partition); the
      // finish merges the W worker copies of each partition. Partitions
      // merge in parallel, but each holds up to W copies of its groups, so
      // the wall-clock merge is ~G·(W-1)/W ≈ G.
      const double merge = groups * kMergePerGroup;
      return build + merge + kBarrierCycles;
    }
    case AggStrategy::kSharedMap: {
      // One table, no merge phase, but every update pays an atomic and hot
      // stripes serialize under skew. The shared working set gets no skew
      // discount benefit multiplier beyond residency (hot keys = hot locks).
      const double contention =
          kContentionPerRow * skew * (1.0 - 1.0 / workers);
      return rows / workers *
             (ProbeCost(ws, in.l3_bytes) + kAtomicPerRow + contention);
    }
    case AggStrategy::kSort: {
      // Buffering is ~free; the bill is one parallel sort of the remaining
      // rows plus a serial aggregation scan. Cache-oblivious: no ws term —
      // which is exactly why sort wins once groups ≈ rows (the hash→sort
      // fallback regime).
      const double sort_cost =
          rows * kSortPerRowLog * Log2AtLeast1(rows) / workers;
      const double scan = rows * kScanPerRow;
      return sort_cost + scan + kBarrierCycles;
    }
  }
  return kInfiniteCost;
}

bool IsLocalPartitionPair(AggStrategy from, AggStrategy to) {
  const auto is_local = [](AggStrategy s) {
    return s == AggStrategy::kLocalCentral || s == AggStrategy::kLocalTree;
  };
  return is_local(from) && is_local(to);
}

double EstimatedMigrationCost(AggStrategy from, AggStrategy to,
                              const ProgressSnapshot& progress) {
  if (IsLocalPartitionPair(from, to)) return 0.0;  // Merge-mode flip only.
  if (from == AggStrategy::kSort) {
    // Sort buffers raw records; migration re-probes each one.
    return kSwitchFixedCycles +
           kMigratePerRecord * static_cast<double>(progress.rows);
  }
  // Hash-family states append into sort's buffers but re-probe into another
  // table — the hash→sort fallback is an order of magnitude cheaper than a
  // hash→hash move, which is what makes it viable late in a query.
  const double per_group =
      to == AggStrategy::kSort ? kMigrateAppendPerGroup : kMigratePerGroup;
  return kSwitchFixedCycles +
         per_group * static_cast<double>(progress.groups);
}

AggStrategy ChooseAggStrategy(const StrategyCostInputs& in,
                              AggStrategySet allowed) {
  AggStrategy best = AggStrategy::kSerialHash;
  double best_cost = kInfiniteCost;
  for (int s = 0; s < kNumAggStrategies; ++s) {
    const AggStrategy strategy = static_cast<AggStrategy>(s);
    if (!allowed.Contains(strategy)) continue;
    const double cost = EstimatedStrategyCost(strategy, in);
    if (cost < best_cost) {
      best_cost = cost;
      best = strategy;
    }
  }
  return best;
}

AggStrategy FirstApplicableStrategy(AggStrategySet allowed, int workers) {
  for (int s = 0; s < kNumAggStrategies; ++s) {
    const AggStrategy candidate = static_cast<AggStrategy>(s);
    if (allowed.Contains(candidate) && StrategyApplicable(candidate, workers)) {
      return candidate;
    }
  }
  MEMAGG_CHECK(false && "no strategy in the set runs at this worker count");
  return AggStrategy::kSerialHash;
}

AggStrategy NextApplicableStrategy(AggStrategy current, int workers,
                                   AggStrategySet allowed) {
  int s = static_cast<int>(current);
  for (int step = 0; step < kNumAggStrategies; ++step) {
    s = (s + 1) % kNumAggStrategies;
    const AggStrategy candidate = static_cast<AggStrategy>(s);
    if (allowed.Contains(candidate) && StrategyApplicable(candidate, workers)) {
      return candidate;
    }
  }
  return current;
}

}  // namespace memagg
