#include "core/engine.h"

#include <algorithm>
#include <concepts>
#include <cstdio>
#include <ranges>
#include <string>
#include <vector>

#include "core/advisor.h"
#include "core/composite_aggregate.h"
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

namespace {

/// `label`'s row, once the thread rule holds.
const LabelRow& OperatorRow(const std::string& label,
                            const ExecutionContext& exec) {
  const LabelRow& row = EngineRow(label);
  MEMAGG_CHECK((row.info.parallel || exec.num_threads == 1) &&
               "serial label given more than one thread");
  return row;
}

}  // namespace

std::unique_ptr<VectorAggregator> MakeVectorAggregator(
    const std::string& label, AggregateFunction function, size_t expected_size,
    const ExecutionContext& exec) {
  return OperatorRow(label, exec).factories().make[static_cast<size_t>(
      function)](expected_size, exec);
}

std::unique_ptr<ScalarAggregator> MakeScalarMedianAggregator(
    const std::string& label, const ExecutionContext& exec) {
  const LabelRow& row = EngineRow(label);
  if (!row.info.scalar_median) {
    std::fprintf(stderr, "Label unsuitable for scalar median: %s\n",
                 label.c_str());
    MEMAGG_CHECK(false);
  }
  return row.factories().make_scalar_median(exec);
}

namespace {

/// The body of ExecuteVectorQuery and ExecuteCompositeQuery, over the
/// operator `make(label, expected_size, exec)` builds; `category` resolves
/// "auto". The operator and the query-local registry and arenas are torn
/// down before the caller stops the wall clock.
template <typename MakeOperator>
VectorQueryExecution RunVectorQuery(const std::string& label,
                                    FunctionCategory category,
                                    MakeOperator make, const uint64_t* keys,
                                    const uint64_t* values, size_t n,
                                    size_t expected_size, ExecutionContext exec,
                                    std::optional<KeyRange> range) {
  VectorQueryExecution execution;
  execution.label = label;
  if (label == "auto") {
    WorkloadProfile profile;
    profile.category = category;
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
    aggregator = make(execution.label, expected_size, exec);
    // Pre-size growable tables from a sampled cardinality estimate, never
    // past the caller's hint: the hint may be a proven bound on the groups.
    aggregator->ReserveGroups(
        std::min(expected_size, EstimateGroupCardinality(keys, n)));
  }
  {
    PhaseTimer build(&execution.stats, StatPhase::kBuild);
    aggregator->Build(keys, values, n);
  }
  {
    PhaseTimer iterate(&execution.stats, StatPhase::kIterate);
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
  }
  execution.stats.Add(StatCounter::kRowsBuilt, n);
  execution.stats.Add(StatCounter::kGroupsOut, execution.result.size());
  aggregator->CollectStats(&execution.stats);
  // Context-owned worker arenas are reported here, once per query;
  // operators report only the allocators they own (see mem/allocator.h).
  AddAllocStats(&execution.stats, exec.arenas->Stats());
  execution.stats.Merge(exec.stats->Collect());
  return execution;
}

/// Runs `run` and records its wall time as the execution's.
template <typename Run>
VectorQueryExecution TimedQuery(Run run) {
  CycleTimer wall;
  wall.Start();
  VectorQueryExecution execution = run();
  wall.Stop();
  execution.stats.RecordWall(wall.ElapsedCycles(), wall.ElapsedMillis());
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
  const auto make = [function](const std::string& resolved, size_t expected,
                               const ExecutionContext& context) {
    return MakeVectorAggregator(resolved, function, expected, context);
  };
  return TimedQuery([&] {
    return RunVectorQuery(label, CategoryOf(function), make, keys, values, n,
                          expected_size, exec, range);
  });
}

VectorQueryExecution ExecuteCompositeQuery(const std::string& label,
                                           const CompositeAggregate& composite,
                                           const uint64_t* keys,
                                           const uint64_t* row_ids, size_t n,
                                           size_t expected_size,
                                           ExecutionContext exec) {
  const auto make = [&composite](const std::string& resolved, size_t expected,
                                 const ExecutionContext& context) {
    return OperatorRow(resolved, context)
        .factories()
        .make_composite(composite, expected, context);
  };
  return TimedQuery([&] {
    return RunVectorQuery(label, composite.category(), make, keys, row_ids, n,
                          expected_size, exec, /*range=*/{});
  });
}

}  // namespace memagg
