// Walks the paper's Figure 12 decision flow chart for every Table 1 query
// under several workload assumptions, printing the decision path and the
// recommended algorithm, then executes each recommendation on a small
// dataset to show the advice is runnable as-is: vector queries run through
// ExecuteVectorQuery("auto"), which makes the same pick.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/advisor.h"
#include "core/engine.h"
#include "core/query.h"
#include "data/dataset.h"

int main() {
  using namespace memagg;

  const std::vector<Query> queries = {MakeQ1(), MakeQ2(), MakeQ3(),
                                      MakeQ4(), MakeQ5(), MakeQ6(), MakeQ7()};

  std::printf("=== Figure 12 decision flow ===\n");
  for (const Query& query : queries) {
    for (int threads : {1, 8}) {
      for (bool worm : {false, true}) {
        const WorkloadProfile profile =
            ProfileForQuery(query, worm, /*prebuilt_index=*/worm, threads);
        std::printf("%s t=%d %s: %s\n", query.id.c_str(), threads,
                    worm ? "WORM" : "WORO",
                    ExplainRecommendation(profile).c_str());
      }
    }
  }

  // Execute each vector recommendation end-to-end.
  std::printf("\n=== executing the single-threaded WORO recommendations ===\n");
  DatasetSpec spec{Distribution::kMovingCluster, 200000, 1000, 12};
  const auto keys = GenerateKeys(spec);
  const auto values = GenerateValues(keys.size(), 1000);
  for (const Query& query : queries) {
    if (query.output == OutputFormat::kScalar) {
      if (query.function == AggregateFunction::kMedian) {
        const std::string label = RecommendAlgorithm(ProfileForQuery(query));
        auto aggregator = MakeScalarMedianAggregator(label);
        aggregator->Build(keys.data(), nullptr, keys.size());
        std::printf("%s via %s -> %.2f\n", query.id.c_str(), label.c_str(),
                    aggregator->Finalize());
      } else {
        std::printf("%s is a streaming scalar (no data structure needed)\n",
                    query.id.c_str());
      }
      continue;
    }
    std::optional<KeyRange> range;
    if (query.has_range_condition) {
      range = KeyRange{query.range_lo, query.range_hi};
    }
    const VectorQueryExecution execution =
        ExecuteVectorQuery("auto", query.function, keys.data(), values.data(),
                           keys.size(), keys.size(), {}, range);
    std::printf("%s via %s -> %zu groups\n", query.id.c_str(),
                execution.label.c_str(), execution.result.size());
  }
  return 0;
}
