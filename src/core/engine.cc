#include "core/engine.h"

#include <algorithm>
#include <concepts>
#include <cstdio>
#include <ranges>
#include <string>
#include <vector>

#include "core/advisor.h"
#include "core/label_registry.h"
#include "mem/worker_arenas.h"
#include "util/macros.h"

namespace memagg {
namespace {

const LabelRow& EngineRow(const std::string& label) {
  return FindRow(kLabelTable<NullTracer>, label);
}

/// The names of the rows that satisfy `keep`, in registry order. Each list
/// is built once and never destroyed.
template <std::predicate<const LabelInfo&> Keep>
const std::vector<std::string>& NamesWhere(Keep keep) {
  auto* names = new std::vector<std::string>;
  for (const LabelInfo& info : AllLabels()) {
    if (keep(info)) names->push_back(info.name);
  }
  return *names;
}

}  // namespace

const std::vector<LabelInfo>& AllLabels() {
  static const std::vector<LabelInfo>& labels = *[] {
    auto infos =
        kLabelTable<NullTracer> | std::views::transform(&LabelRow::info);
    return new std::vector<LabelInfo>(infos.begin(), infos.end());
  }();
  return labels;
}

const LabelInfo& FindLabel(const std::string& label) {
  return EngineRow(label).info;
}

AlgorithmCategory CategoryOfLabel(const std::string& label) {
  return FindLabel(label).category;
}

const std::vector<std::string>& SerialLabels() {
  static const auto& labels =
      NamesWhere([](const LabelInfo& info) { return info.table3; });
  return labels;
}

const std::vector<std::string>& ConcurrentLabels() {
  static const auto& labels =
      NamesWhere([](const LabelInfo& info) { return info.table8; });
  return labels;
}

const std::vector<std::string>& TreeLabels() {
  static const auto& labels = NamesWhere([](const LabelInfo& info) {
    return info.table3 && info.category == AlgorithmCategory::kTree;
  });
  return labels;
}

const std::vector<std::string>& ScalarCapableLabels() {
  static const auto& labels = NamesWhere(
      [](const LabelInfo& info) { return info.table3 && info.scalar_median; });
  return labels;
}

std::unique_ptr<VectorAggregator> MakeVectorAggregator(
    const std::string& label, AggregateFunction function, size_t expected_size,
    const ExecutionContext& exec) {
  const LabelRow& row = EngineRow(label);
  MEMAGG_CHECK((row.info.parallel || exec.num_threads == 1) &&
               "serial label given more than one thread");
  return row.make[static_cast<size_t>(function)](expected_size, exec);
}

std::unique_ptr<ScalarAggregator> MakeScalarMedianAggregator(
    const std::string& label, const ExecutionContext& exec) {
  const LabelRow& row = EngineRow(label);
  if (row.make_scalar_median == nullptr) {
    std::fprintf(stderr, "Label unsuitable for scalar median: %s\n",
                 label.c_str());
    MEMAGG_CHECK(false);
  }
  return row.make_scalar_median(exec);
}

namespace {

/// The body of ExecuteVectorQuery; the operator and the query-local
/// registry and arenas are torn down before the caller stops the wall clock.
VectorQueryExecution RunVectorQuery(const std::string& label,
                                    AggregateFunction function,
                                    const uint64_t* keys,
                                    const uint64_t* values, size_t n,
                                    size_t expected_size, ExecutionContext exec,
                                    std::optional<KeyRange> range) {
  VectorQueryExecution execution;
  execution.label = label;
  if (label == "auto") {
    WorkloadProfile profile;
    profile.category = CategoryOf(function);
    profile.has_range_condition = range.has_value();
    profile.num_threads = exec.num_threads;
    execution.label = RecommendAlgorithm(profile);
  }
  // The thread budget is a ceiling: the advisor's range branch picks a
  // serial tree at any budget, and a caller may pin a serial label too.
  if (!FindLabel(execution.label).parallel) exec.num_threads = 1;

  StatsRegistry local_registry(exec.num_threads);
  if (exec.stats == nullptr) exec.stats = &local_registry;
  // Query-local per-worker arenas: parallel operators allocate their nodes
  // thread-locally from these and the whole pool is released when this frame
  // unwinds (declared before `aggregator` so it outlives the structures
  // whose nodes live in it).
  WorkerArenas local_arenas(exec.num_threads);
  if (exec.arenas == nullptr) exec.arenas = &local_arenas;
  std::unique_ptr<VectorAggregator> aggregator;
  {
    PhaseTimer setup(&execution.stats, StatPhase::kSetup);
    aggregator =
        MakeVectorAggregator(execution.label, function, expected_size, exec);
    // Pre-size growable tables from a sampled cardinality estimate, never
    // past the caller's hint: the hint may be a proven bound on the groups.
    aggregator->ReserveGroups(
        std::min(expected_size, EstimateGroupCardinality(keys, n)));
  }

  // The end-to-end build/iterate clocks are the bench contract, not
  // operator instrumentation: they are two timer reads per whole phase and
  // stay live even under MEMAGG_DISABLE_STATS (which is why CycleTimer is
  // used directly instead of the gated PhaseTimer).
  {
    CycleTimer timer;
    timer.Start();
    aggregator->Build(keys, values, n);
    timer.Stop();
    execution.stats.AddPhase(StatPhase::kBuild, timer.ElapsedCycles(),
                             timer.ElapsedMillis());
  }
  {
    CycleTimer timer;
    timer.Start();
    if (range && aggregator->SupportsRange()) {
      execution.result = aggregator->IterateRange(range->lo, range->hi);
    } else {
      execution.result = aggregator->Iterate();
      if (range) {
        std::erase_if(execution.result, [&range](const GroupResult& row) {
          return row.key < range->lo || row.key > range->hi;
        });
      }
    }
    timer.Stop();
    execution.stats.AddPhase(StatPhase::kIterate, timer.ElapsedCycles(),
                             timer.ElapsedMillis());
  }
  if (StatsConfig::kEnabled) {
    execution.stats.Add(StatCounter::kRowsBuilt, n);
    execution.stats.Add(StatCounter::kGroupsOut, execution.result.size());
    aggregator->CollectStats(&execution.stats);
    // Context-owned worker arenas are reported here, once per query;
    // operators report only the allocators they own (see mem/allocator.h).
    AddAllocStats(&execution.stats, exec.arenas->Stats());
    execution.stats.Merge(exec.stats->Collect());
  }
  return execution;
}

}  // namespace

VectorQueryExecution ExecuteVectorQuery(const std::string& label,
                                        AggregateFunction function,
                                        const uint64_t* keys,
                                        const uint64_t* values, size_t n,
                                        size_t expected_size,
                                        ExecutionContext exec,
                                        std::optional<KeyRange> range) {
  CycleTimer wall;
  wall.Start();
  VectorQueryExecution execution = RunVectorQuery(
      label, function, keys, values, n, expected_size, exec, range);
  wall.Stop();
  execution.stats.RecordWall(wall.ElapsedCycles(), wall.ElapsedMillis());
  return execution;
}

}  // namespace memagg
