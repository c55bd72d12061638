// Query-execution observability (the measurement substrate for perf work).
//
// QueryStats is a flat snapshot of one query's execution: per-phase timings
// (an entry call's top-level phases, which sum to its wall time, and the
// operators' subphases; see StatPhase) plus monotonic counters reported by
// the operators and the morsel executor (rehashes, probe distances, cuckoo
// kicks, strategy switches, morsels claimed, merge rounds, ...). StatsRegistry
// holds one cache-line-padded QueryStats shard per worker slot so parallel
// phases record without synchronization; Collect() merges the shards.
//
// Cost model: there is no per-row instrumentation anywhere. Counters are
// either cold-path (a rehash, a spill), once-per-morsel (claims), or
// computed on demand at collection time by walking the finished structure
// (probe distances). Phase timers are two clock reads per phase. Building
// with -DMEMAGG_DISABLE_STATS (cmake -DMEMAGG_STATS=OFF) compiles even
// those residues out: StatsConfig::kEnabled folds every recording helper to
// a no-op. Only the bench contract stays live: the build and iterate clocks
// and the entry calls' wall, so kUnattributed then holds everything else.

#ifndef MEMAGG_OBS_QUERY_STATS_H_
#define MEMAGG_OBS_QUERY_STATS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/arena.h"
#include "util/cycle_timer.h"

namespace memagg {

/// Compile-time stats switch; see the header comment.
struct StatsConfig {
#if defined(MEMAGG_DISABLE_STATS)
  static constexpr bool kEnabled = false;
#else
  static constexpr bool kEnabled = true;
#endif
};

/// Execution phases. The top-level phases partition an entry call's wall
/// time (ExecuteVectorQuery, ExecuteTableQuery): each is timed by the call
/// itself, they never overlap, and kUnattributed is what is left of the
/// wall, so they sum to QueryStats::wall_cycles. The subphases (kPartition,
/// kSort, kMerge) are operator-internal attribution recorded by the operator
/// itself inside build or iterate (a sort operator's sort kernel, a
/// partitioned iterate's merge): their time is contained in — not additive
/// with — the enclosing top-level phase.
enum class StatPhase : size_t {
  kPartition = 0,  ///< Subphase: a partitioning pass over the input.
  kBuild,          ///< Top level: consuming input into the data structure.
  kSort,           ///< Subphase: the sort kernel.
  kIterate,        ///< Top level: emitting result rows.
  kMerge,          ///< Subphase: combining per-worker partial states.
  kSetup,          ///< Top level: operator factory, cardinality estimate and
                   ///< ReserveGroups.
  kSelect,         ///< Top level, table queries: row filter (the selection
                   ///< vector), key encoding and key range.
  kAssemble,       ///< Top level, table queries: ordering the groups by key,
                   ///< decoding keys and reading out the member values.
  kUnattributed,   ///< Top level: wall time no other top-level phase covers.
};
inline constexpr size_t kNumStatPhases = 9;

constexpr bool IsTopLevelPhase(StatPhase phase) {
  return phase != StatPhase::kPartition && phase != StatPhase::kSort &&
         phase != StatPhase::kMerge;
}

/// Monotonic counters. kMaxMerged counters merge by max, the rest by sum.
enum class StatCounter : size_t {
  kRowsBuilt = 0,      ///< Input rows consumed.
  kGroupsOut,          ///< Groups the operator emitted.
  kHashEntries,        ///< Entries resident in hash structures.
  kRehashes,           ///< Table growth/rebuild events.
  kProbeTotal,         ///< Sum of probe distances (open addressing).
  kProbeMax,           ///< Longest probe distance (max-merged).
  kChainMax,           ///< Longest collision chain (max-merged).
  kCuckooKicks,        ///< Cuckoo displacement moves.
  kRowsSorted,         ///< Rows passed through a sort kernel.
  kTreeNodes,          ///< Inner + leaf nodes of tree structures.
  kTreeHeight,         ///< Structure depth (max-merged).
  kPartitions,         ///< Partitions/buckets fanned out to.
  kMergeRounds,        ///< Per-worker partials merged at iterate time.
  kMorselsClaimed,     ///< Morsels claimed across all parallel loops.
  kWorkersUsed,        ///< Distinct workers that claimed work (max-merged).
  kArenaChunks,        ///< Arena chunks reserved (mem/arena.h).
  kArenaBytesReserved, ///< Bytes of arena chunk capacity reserved.
  kArenaBytesUsed,     ///< Bytes bump-allocated out of arenas.
  kArenaBytesWasted,   ///< Stranded chunk tails + freed-in-place bytes.
  kFreelistReuses,     ///< Allocations served from allocator freelists.
  kRehashesSaved,      ///< Rehashes avoided by cardinality-driven Reserve().
  kStrategySwitches,   ///< Adaptive operator mid-query strategy switches.
  kRowsMigrated,       ///< Rows' worth of partial state moved across a switch.
  kAdaptiveStrategy,   ///< Final adaptive strategy id + 1 (max-merged).
};
inline constexpr size_t kNumStatCounters = 24;

/// Stable lowercase identifier (JSON key) for a phase / counter.
const char* StatPhaseName(StatPhase phase);
const char* StatCounterName(StatCounter counter);

/// One query's (or one shard's) execution statistics. Plain data: cheap to
/// copy, merge, and serialize. Not internally synchronized — each shard has
/// a single writer (see StatsRegistry).
struct QueryStats {
  uint64_t phase_cycles[kNumStatPhases] = {};
  double phase_millis[kNumStatPhases] = {};
  uint64_t counters[kNumStatCounters] = {};
  /// The entry call's own clock around the whole call (RecordWall); 0 when
  /// the stats come from a caller that times build and iterate itself.
  uint64_t wall_cycles = 0;
  double wall_millis = 0.0;

  void AddPhase(StatPhase phase, uint64_t cycles, double millis) {
    phase_cycles[static_cast<size_t>(phase)] += cycles;
    phase_millis[static_cast<size_t>(phase)] += millis;
  }

  void Add(StatCounter counter, uint64_t delta) {
    counters[static_cast<size_t>(counter)] += delta;
  }

  /// Raises a max-merged counter to at least `value`.
  void MaxOf(StatCounter counter, uint64_t value) {
    uint64_t& slot = counters[static_cast<size_t>(counter)];
    slot = std::max(slot, value);
  }

  uint64_t Get(StatCounter counter) const {
    return counters[static_cast<size_t>(counter)];
  }

  uint64_t PhaseCycles(StatPhase phase) const {
    return phase_cycles[static_cast<size_t>(phase)];
  }

  double PhaseMillis(StatPhase phase) const {
    return phase_millis[static_cast<size_t>(phase)];
  }

  /// Operator time: build + iterate, the query execution time the paper's
  /// figures report. It leaves out set-up, the table front-end and
  /// unattributed time (wall_cycles holds those too) and the subphases,
  /// which lie inside build and iterate (see StatPhase).
  uint64_t TotalCycles() const {
    return PhaseCycles(StatPhase::kBuild) + PhaseCycles(StatPhase::kIterate);
  }

  double TotalMillis() const {
    return PhaseMillis(StatPhase::kBuild) + PhaseMillis(StatPhase::kIterate);
  }

  /// Sets the wall time to an entry call's own clock and kUnattributed to
  /// the part of it the other top-level phases do not cover, so the
  /// top-level phases sum to the wall. Replaces the wall and kUnattributed
  /// of nested entry calls whose stats were merged in: the outer clock
  /// covers them.
  void RecordWall(uint64_t cycles, double millis);

  /// Folds `other` into this snapshot (sums, max for max-merged counters).
  void Merge(const QueryStats& other);

  /// Serializes the non-zero phases and counters, and the wall when one was
  /// recorded, as one JSON object, e.g. {"phases":{"build":{"cycles":12,
  /// "millis":0.5}},"counters":{...},"wall":{"cycles":20,"millis":0.8}}.
  std::string ToJson() const;
};

/// Folds an allocator-stats snapshot (mem/arena.h) into the arena counters.
/// Call once per allocator/arena at collection time; snapshots from the same
/// arena must not be added twice (see ArenaAllocator::Stats() ownership rule).
inline void AddAllocStats(QueryStats* stats, const AllocStats& alloc) {
  if (!StatsConfig::kEnabled || stats == nullptr) return;
  stats->Add(StatCounter::kArenaChunks, alloc.chunks);
  stats->Add(StatCounter::kArenaBytesReserved, alloc.bytes_reserved);
  stats->Add(StatCounter::kArenaBytesUsed, alloc.bytes_used);
  stats->Add(StatCounter::kArenaBytesWasted, alloc.bytes_wasted);
  stats->Add(StatCounter::kFreelistReuses, alloc.freelist_reuses);
}

/// Per-worker QueryStats shards. Shard `w` is written only by the worker
/// occupying slot `w` of a parallel loop (slots never run concurrently for
/// the same id — see exec/executor.h), so writes need no synchronization;
/// Collect() is called between parallel phases.
class StatsRegistry {
 public:
  explicit StatsRegistry(int num_workers)
      : shards_(static_cast<size_t>(num_workers < 1 ? 1 : num_workers)) {}

  int num_shards() const { return static_cast<int>(shards_.size()); }

  QueryStats& WorkerShard(int worker) {
    // Hard bounds check (not a modulo wrap): an out-of-range worker id
    // aliasing another worker's shard silently breaks the single-writer
    // contract above — two "slots" racing unsynchronized on one QueryStats.
    MEMAGG_CHECK(worker >= 0 && worker < num_shards());
    return shards_[static_cast<size_t>(worker)].stats;
  }

  /// Merged snapshot of every shard.
  QueryStats Collect() const {
    QueryStats merged;
    for (const Shard& shard : shards_) merged.Merge(shard.stats);
    return merged;
  }

  void Reset() {
    for (Shard& shard : shards_) shard.stats = QueryStats{};
  }

 private:
  struct alignas(64) Shard {
    QueryStats stats;
  };
  std::vector<Shard> shards_;
};

/// RAII phase timer. Records into `stats` on Stop()/destruction; a null
/// target (or a stats-disabled build) makes it a no-op.
class PhaseTimer {
 public:
  PhaseTimer(QueryStats* stats, StatPhase phase)
      : stats_(StatsConfig::kEnabled ? stats : nullptr), phase_(phase) {
    if (stats_ != nullptr) timer_.Start();
  }

  ~PhaseTimer() { Stop(); }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  void Stop() {
    if (stats_ == nullptr) return;
    timer_.Stop();
    stats_->AddPhase(phase_, timer_.ElapsedCycles(), timer_.ElapsedMillis());
    stats_ = nullptr;
  }

 private:
  CycleTimer timer_;
  QueryStats* stats_;
  StatPhase phase_;
};

}  // namespace memagg

#endif  // MEMAGG_OBS_QUERY_STATS_H_
