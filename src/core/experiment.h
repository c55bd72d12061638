// The paper's experimental framework as a library API.
//
// Table 5 defines the paper's parameter space: dataset distribution, dataset
// size, group-by cardinality, algorithm, thread count, and query. An
// ExperimentConfig is exactly one point in that space; RunExperiment
// generates the dataset, runs the query through the chosen operator, and
// returns phase-separated timings plus result metadata. The bench binaries
// are thin sweeps over this function's parameter space; applications can use
// it to calibrate algorithm choice on their own hardware.

#ifndef MEMAGG_CORE_EXPERIMENT_H_
#define MEMAGG_CORE_EXPERIMENT_H_

#include <cstdint>
#include <string>

#include "core/query.h"
#include "core/result.h"
#include "data/dataset.h"

namespace memagg {

/// One point in the paper's Table 5 parameter space.
struct ExperimentConfig {
  Query query = MakeQ1();
  DatasetSpec dataset{Distribution::kRseq, 1000000, 1000,
                      0x5eed5eed5eed5eedULL};
  /// Algorithm label, or "auto" for the Figure 12 advisor's pick
  /// (core/advisor.h), as everywhere else. The runtime-adaptive operator
  /// runs only when named ("Adaptive", docs/adaptive.md).
  std::string algorithm = "auto";
  int num_threads = 1;
  /// Value column parameters (used when the query aggregates values).
  uint64_t value_range = 1000000;
  uint64_t value_seed = 0xa11fa135ULL;
  /// Keep the result rows in ExperimentResult (off by default: a 10^7-group
  /// result is large).
  bool keep_rows = false;
};

/// Timing of one phase in cycles and milliseconds.
struct PhaseTiming {
  uint64_t cycles = 0;
  double millis = 0.0;
};

/// Outcome of one experiment run.
struct ExperimentResult {
  std::string algorithm;  ///< Resolved label (after "auto").
  PhaseTiming generate;   ///< Dataset generation (excluded by the paper).
  PhaseTiming build;
  PhaseTiming iterate;
  size_t num_groups = 0;
  size_t data_structure_bytes = 0;
  double scalar_value = 0.0;  ///< For scalar queries.
  VectorResult rows;          ///< Populated when config.keep_rows.

  uint64_t query_cycles() const { return build.cycles + iterate.cycles; }
  double query_millis() const { return build.millis + iterate.millis; }
};

/// Runs one experiment. Aborts on invalid configs (unknown label,
/// infeasible dataset spec — check IsValidSpec first when sweeping).
ExperimentResult RunExperiment(const ExperimentConfig& config);

}  // namespace memagg

#endif  // MEMAGG_CORE_EXPERIMENT_H_
