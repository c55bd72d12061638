#include "obs/query_stats.h"

#include <cinttypes>
#include <cstdio>

namespace memagg {
namespace {

constexpr const char* kPhaseNames[kNumStatPhases] = {
    "partition", "build",  "sort",     "iterate", "merge",
    "setup",     "select", "assemble", "unattributed"};

constexpr const char* kCounterNames[kNumStatCounters] = {
    "rows_built",    "groups_out",    "hash_entries",   "rehashes",
    "probe_total",   "probe_max",     "chain_max",      "cuckoo_kicks",
    "rows_sorted",   "tree_nodes",    "tree_height",
    "partitions",    "merge_rounds",  "morsels_claimed", "workers_used",
    "arena_chunks",  "arena_bytes_reserved", "arena_bytes_used",
    "arena_bytes_wasted", "freelist_reuses", "rehashes_saved",
    "strategy_switches", "rows_migrated", "adaptive_strategy"};

bool MergesByMax(StatCounter counter) {
  switch (counter) {
    case StatCounter::kProbeMax:
    case StatCounter::kChainMax:
    case StatCounter::kTreeHeight:
    case StatCounter::kWorkersUsed:
    case StatCounter::kAdaptiveStrategy:
      return true;
    default:
      return false;
  }
}

}  // namespace

const char* StatPhaseName(StatPhase phase) {
  return kPhaseNames[static_cast<size_t>(phase)];
}

const char* StatCounterName(StatCounter counter) {
  return kCounterNames[static_cast<size_t>(counter)];
}

void QueryStats::Merge(const QueryStats& other) {
  for (size_t p = 0; p < kNumStatPhases; ++p) {
    phase_cycles[p] += other.phase_cycles[p];
    phase_millis[p] += other.phase_millis[p];
  }
  for (size_t c = 0; c < kNumStatCounters; ++c) {
    if (MergesByMax(static_cast<StatCounter>(c))) {
      counters[c] = std::max(counters[c], other.counters[c]);
    } else {
      counters[c] += other.counters[c];
    }
  }
  wall_cycles += other.wall_cycles;
  wall_millis += other.wall_millis;
}

void QueryStats::RecordWall(uint64_t cycles, double millis) {
  wall_cycles = cycles;
  wall_millis = millis;
  const size_t left = static_cast<size_t>(StatPhase::kUnattributed);
  uint64_t covered_cycles = 0;
  double covered_millis = 0.0;
  for (size_t p = 0; p < kNumStatPhases; ++p) {
    if (p == left || !IsTopLevelPhase(static_cast<StatPhase>(p))) continue;
    covered_cycles += phase_cycles[p];
    covered_millis += phase_millis[p];
  }
  // The phases are disjoint intervals inside the wall on one thread, so
  // they never exceed it; the clamps only absorb rounding.
  phase_cycles[left] = cycles > covered_cycles ? cycles - covered_cycles : 0;
  phase_millis[left] = std::max(0.0, millis - covered_millis);
}

std::string QueryStats::ToJson() const {
  std::string out = "{\"phases\":{";
  char buffer[160];
  bool first = true;
  for (size_t p = 0; p < kNumStatPhases; ++p) {
    if (phase_cycles[p] == 0 && phase_millis[p] == 0.0) continue;
    std::snprintf(buffer, sizeof(buffer),
                  "%s\"%s\":{\"cycles\":%" PRIu64 ",\"millis\":%.3f}",
                  first ? "" : ",", kPhaseNames[p], phase_cycles[p],
                  phase_millis[p]);
    out += buffer;
    first = false;
  }
  out += "},\"counters\":{";
  first = true;
  for (size_t c = 0; c < kNumStatCounters; ++c) {
    if (counters[c] == 0) continue;
    std::snprintf(buffer, sizeof(buffer), "%s\"%s\":%" PRIu64,
                  first ? "" : ",", kCounterNames[c], counters[c]);
    out += buffer;
    first = false;
  }
  out += "}";
  if (wall_cycles != 0) {
    std::snprintf(buffer, sizeof(buffer),
                  ",\"wall\":{\"cycles\":%" PRIu64 ",\"millis\":%.3f}",
                  wall_cycles, wall_millis);
    out += buffer;
  }
  out += "}";
  return out;
}

}  // namespace memagg
