#include "core/groupby.h"

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/advisor.h"
#include "core/engine.h"
#include "core/query.h"
#include "util/macros.h"

namespace memagg {

VectorResult GroupByAggregate(std::span<const uint64_t> keys,
                              std::span<const uint64_t> values,
                              AggregateFunction function,
                              const GroupByOptions& options) {
  MEMAGG_CHECK(values.empty() || values.size() == keys.size());
  MEMAGG_CHECK(!NeedsValueColumn(function) || !values.empty() ||
               keys.empty());
  std::optional<KeyRange> range;
  if (options.has_range_condition) {
    range = KeyRange{options.range_lo, options.range_hi};
  }
  return ExecuteVectorQuery(options.algorithm, function, keys.data(),
                            values.empty() ? nullptr : values.data(),
                            keys.size(), keys.size(), options.num_threads,
                            range)
      .result;
}

double ScalarAggregate(std::span<const uint64_t> column,
                       AggregateFunction function,
                       const GroupByOptions& options) {
  MEMAGG_CHECK(!column.empty());
  switch (function) {
    case AggregateFunction::kCount:
      return static_cast<double>(column.size());
    case AggregateFunction::kSum: {
      uint64_t sum = 0;
      for (uint64_t v : column) sum += v;
      return static_cast<double>(sum);
    }
    case AggregateFunction::kMin:
      return static_cast<double>(
          *std::min_element(column.begin(), column.end()));
    case AggregateFunction::kMax:
      return static_cast<double>(
          *std::max_element(column.begin(), column.end()));
    case AggregateFunction::kAverage: {
      uint64_t sum = 0;
      for (uint64_t v : column) sum += v;
      return static_cast<double>(sum) / static_cast<double>(column.size());
    }
    case AggregateFunction::kMedian: {
      WorkloadProfile profile;
      profile.output = OutputFormat::kScalar;
      profile.num_threads = options.num_threads;
      const std::string label = options.algorithm == "auto"
                                    ? RecommendAlgorithm(profile)
                                    : options.algorithm;
      auto aggregator =
          MakeScalarMedianAggregator(label, options.num_threads);
      aggregator->Build(column.data(), nullptr, column.size());
      return aggregator->Finalize();
    }
    case AggregateFunction::kMode: {
      // Scalar mode via one global sort-based group.
      std::vector<uint64_t> copy(column.begin(), column.end());
      return ModeAggregate::FinalizeRun(copy.data(), copy.size());
    }
  }
  MEMAGG_CHECK(false);
  return 0.0;
}

}  // namespace memagg
