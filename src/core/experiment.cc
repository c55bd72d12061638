#include "core/experiment.h"

#include <utility>
#include <vector>

#include "core/advisor.h"
#include "core/engine.h"
#include "util/cycle_timer.h"
#include "util/macros.h"

namespace memagg {
namespace {

PhaseTiming Time(CycleTimer& timer) {
  return {timer.ElapsedCycles(), timer.ElapsedMillis()};
}

}  // namespace

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  ExperimentResult result;
  result.algorithm = config.algorithm == "auto"
                         ? RecommendAlgorithm(ProfileForQuery(
                               config.query, /*worm=*/false,
                               /*prebuilt_index=*/false, config.num_threads))
                         : config.algorithm;

  // Phase 0: dataset generation (the paper preloads data and excludes this
  // from query time; we report it separately).
  CycleTimer timer;
  timer.Start();
  const std::vector<uint64_t> keys = GenerateKeys(config.dataset);
  std::vector<uint64_t> values;
  if (NeedsValueColumn(config.query.function) &&
      config.query.output == OutputFormat::kVector) {
    values = GenerateValues(config.dataset.num_records, config.value_range,
                            config.value_seed);
  }
  timer.Stop();
  result.generate = Time(timer);

  if (config.query.output == OutputFormat::kScalar) {
    // Q4/Q5 are streaming; Q6 (median) uses the sort/tree operators.
    switch (config.query.function) {
      case AggregateFunction::kCount:
        timer.Start();
        result.scalar_value = static_cast<double>(keys.size());
        timer.Stop();
        result.build = Time(timer);
        return result;
      case AggregateFunction::kAverage: {
        values = GenerateValues(config.dataset.num_records, config.value_range,
                                config.value_seed);
        timer.Start();
        uint64_t sum = 0;
        for (uint64_t v : values) sum += v;
        result.scalar_value =
            static_cast<double>(sum) / static_cast<double>(values.size());
        timer.Stop();
        result.build = Time(timer);
        return result;
      }
      case AggregateFunction::kMedian: {
        auto aggregator =
            MakeScalarMedianAggregator(result.algorithm, config.num_threads);
        timer.Start();
        aggregator->Build(keys.data(), nullptr, keys.size());
        timer.Stop();
        result.build = Time(timer);
        timer.Start();
        result.scalar_value = aggregator->Finalize();
        timer.Stop();
        result.iterate = Time(timer);
        return result;
      }
      default:
        MEMAGG_CHECK(false && "unsupported scalar experiment function");
    }
  }

  // Vector queries (Q1/Q2/Q3/Q7).
  const int threads =
      CategoryOfLabel(result.algorithm) == AlgorithmCategory::kTree
          ? 1
          : config.num_threads;
  auto aggregator = MakeVectorAggregator(result.algorithm,
                                         config.query.function,
                                         config.dataset.num_records, threads);
  timer.Start();
  aggregator->Build(keys.data(), values.empty() ? nullptr : values.data(),
                    keys.size());
  timer.Stop();
  result.build = Time(timer);

  timer.Start();
  VectorResult rows =
      config.query.has_range_condition && aggregator->SupportsRange()
          ? aggregator->IterateRange(config.query.range_lo,
                                     config.query.range_hi)
          : aggregator->Iterate();
  timer.Stop();
  result.iterate = Time(timer);

  result.num_groups = rows.size();
  result.data_structure_bytes = aggregator->DataStructureBytes();
  if (config.keep_rows) result.rows = std::move(rows);
  return result;
}

}  // namespace memagg
