// Adaptive operator vs the fixed strategies (DESIGN.md, docs/adaptive.md):
// Q1 (COUNT group-by) across the cardinality sweep on a shuffled-sequential
// and a Zipf-skewed key column.
//
// Three kinds of series per workload:
//   "<dist>/Adaptive"    — the adaptive operator, free to switch; rows carry
//                          the resolved strategy and switch trace as meta.
//   "<dist>/<strategy>"  — each inventory strategy pinned through the same
//                          migratable harness (a one-member strategy set).
//                          These are the gate baselines: tools/bench_compare.py
//                          --adaptive-gate checks decision quality — the
//                          adaptive run must stay within the threshold of
//                          the best pinned strategy at every sweep point.
//   "<dist>+native/<label>" — the engine's native fixed operators, for
//                          context only; the gate skips these groups
//                          because they contain no Adaptive row. They run
//                          the same consume code as the pinned strategies,
//                          so the two series differ only in table sizing:
//                          the engine sizes from the row count, the
//                          adaptive operator from the key sample.
//
// Paper scale: 100M records on 4C/8T. Container default: 2M records.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/adaptive_aggregator.h"
#include "core/aggregate.h"
#include "core/engine.h"
#include "data/dataset.h"
#include "exec/executor.h"
#include "exec/task_scheduler.h"
#include "obs/query_stats.h"

namespace memagg {
namespace {

struct Measured {
  BenchTiming timing;
  size_t groups = 0;
  QueryStats stats;
  std::string trace;     // Adaptive only.
  std::string strategy;  // Adaptive only.
};

// The timed region covers construction + build + iterate for every series:
// the fixed operators allocate their full-size tables in the constructor
// (sized for the row-count upper bound), the adaptive operator sizes its
// tables from the sample inside Build — excluding construction would hide
// exactly the allocation work the two approaches trade.
Measured RunAdaptive(const std::vector<uint64_t>& keys, int threads,
                     const AdaptiveOptions& options) {
  std::unique_ptr<AdaptiveAggregator<CountAggregate>> aggregator;
  Measured out;
  const BenchTiming build = TimeOnce([&] {
    aggregator = std::make_unique<AdaptiveAggregator<CountAggregate>>(
        keys.size(), ExecutionContext{threads}, options);
    aggregator->Build(keys.data(), nullptr, keys.size());
  });
  VectorResult result;
  const BenchTiming iterate = TimeOnce([&] { result = aggregator->Iterate(); });
  out.timing = {build.cycles + iterate.cycles, build.millis + iterate.millis};
  out.groups = result.size();
  aggregator->CollectStats(&out.stats);
  out.trace = aggregator->switch_trace();
  out.strategy = AggStrategyName(aggregator->current_strategy());
  return out;
}

Measured RunFixed(const std::string& label, const std::vector<uint64_t>& keys,
                  int threads) {
  std::unique_ptr<VectorAggregator> aggregator;
  Measured out;
  const BenchTiming build = TimeOnce([&] {
    aggregator = MakeVectorAggregator(label, AggregateFunction::kCount,
                                      keys.size(), ExecutionContext{threads});
    aggregator->Build(keys.data(), nullptr, keys.size());
  });
  VectorResult result;
  const BenchTiming iterate = TimeOnce([&] { result = aggregator->Iterate(); });
  out.timing = {build.cycles + iterate.cycles, build.millis + iterate.millis};
  out.groups = result.size();
  aggregator->CollectStats(&out.stats);
  return out;
}

int Run(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const uint64_t records =
      static_cast<uint64_t>(flags.GetInt("records", 2000000));
  const int threads = static_cast<int>(flags.GetInt("threads", 4));
  const int reps = static_cast<int>(flags.GetInt("reps", 2));
  const auto cardinalities = CardinalitySweep(flags, records);
  std::vector<std::string> distribution_names;
  for (const std::string& name :
       flags.GetList("distributions", {"Rseq-Shf", "Zipf"})) {
    distribution_names.push_back(name);
  }
  // Native context series: the engine operators closest to the adaptive
  // inventory (worker-local/central merge, radix, the striped shared map,
  // the parallel sort).
  const std::vector<std::string> default_labels =
      threads > 1
          ? std::vector<std::string>{"Hash_PLocal", "Hash_PRadix",
                                     "Hash_Striped", "Sort_BI"}
          : std::vector<std::string>{"Hash_LP", "Sort_BI"};
  const auto labels = flags.GetList("algorithms", default_labels);

  // Calibration hooks (docs/adaptive.md): pin a strategy, change the sample
  // size, or fix the chunk size to measure the switching machinery itself.
  AdaptiveOptions options;
  const int64_t forced = flags.GetInt("force_strategy", -1);
  if (forced >= 0) {
    options.strategies =
        AggStrategySet::Of({static_cast<AggStrategy>(forced)});
  }
  options.sample_morsels = static_cast<size_t>(
      flags.GetInt("sample_morsels", options.sample_morsels));
  options.chunk_morsels =
      static_cast<size_t>(flags.GetInt("chunk_morsels", 0));

  WarmUpScheduler();

  PrintBanner("Adaptive vs fixed strategies - " + std::to_string(records) +
                  " records, " + std::to_string(threads) + " threads",
              "Q1 (COUNT) cycles vs cardinality; adaptive rows carry the "
              "switch trace");
  std::printf(
      "distribution,cardinality,algorithm,threads,total_cycles,total_ms,"
      "groups,switches,trace\n");

  BenchReport report("adaptive");
  report.SetParam("records", records);
  report.SetParam("threads", static_cast<uint64_t>(threads));
  report.SetParam("reps", static_cast<uint64_t>(reps));

  for (const std::string& distribution_name : distribution_names) {
    const Distribution distribution =
        DistributionFromName(distribution_name);
    for (uint64_t cardinality : cardinalities) {
      DatasetSpec spec{distribution, records, cardinality, 88};
      if (!IsValidSpec(spec)) continue;
      const auto keys = GenerateKeys(spec);

      // Best-of-reps for every series; the adaptive decision path is
      // deterministic for a fixed dataset, so the kept trace is the trace.
      Measured adaptive;
      for (int rep = 0; rep < reps; ++rep) {
        Measured m = RunAdaptive(keys, threads, options);
        if (rep == 0 || m.timing.millis < adaptive.timing.millis) {
          adaptive = std::move(m);
        }
      }
      const uint64_t switches =
          adaptive.stats.Get(StatCounter::kStrategySwitches);
      std::printf("%s,%llu,Adaptive,%d,%llu,%.1f,%zu,%llu,%s\n",
                  distribution_name.c_str(),
                  static_cast<unsigned long long>(cardinality), threads,
                  static_cast<unsigned long long>(adaptive.timing.cycles),
                  adaptive.timing.millis, adaptive.groups,
                  static_cast<unsigned long long>(switches),
                  adaptive.trace.c_str());
      std::fflush(stdout);
      report.AddRow(distribution_name + "/Adaptive", cardinality,
                    adaptive.timing.cycles, adaptive.timing.millis,
                    &adaptive.stats);
      report.SetRowMeta("algorithm", "Adaptive");
      report.SetRowMeta("strategy", adaptive.strategy);
      report.SetRowMeta("switch_trace", adaptive.trace);

      for (int s = 0; s < kNumAggStrategies; ++s) {
        const AggStrategy strategy = static_cast<AggStrategy>(s);
        if (!StrategyApplicable(strategy, threads)) continue;
        AdaptiveOptions pinned;
        pinned.strategies = AggStrategySet::Of({strategy});
        Measured fixed;
        for (int rep = 0; rep < reps; ++rep) {
          Measured m = RunAdaptive(keys, threads, pinned);
          if (rep == 0 || m.timing.millis < fixed.timing.millis) {
            fixed = std::move(m);
          }
        }
        const char* name = AggStrategyName(strategy);
        std::printf("%s,%llu,%s,%d,%llu,%.1f,%zu,0,-\n",
                    distribution_name.c_str(),
                    static_cast<unsigned long long>(cardinality), name,
                    threads,
                    static_cast<unsigned long long>(fixed.timing.cycles),
                    fixed.timing.millis, fixed.groups);
        std::fflush(stdout);
        report.AddRow(distribution_name + "/" + name, cardinality,
                      fixed.timing.cycles, fixed.timing.millis, &fixed.stats);
        report.SetRowMeta("algorithm", name);
      }

      for (const std::string& label : labels) {
        Measured fixed;
        for (int rep = 0; rep < reps; ++rep) {
          Measured m = RunFixed(label, keys, threads);
          if (rep == 0 || m.timing.millis < fixed.timing.millis) {
            fixed = std::move(m);
          }
        }
        std::printf("%s,%llu,%s,%d,%llu,%.1f,%zu,0,-\n",
                    distribution_name.c_str(),
                    static_cast<unsigned long long>(cardinality),
                    label.c_str(), threads,
                    static_cast<unsigned long long>(fixed.timing.cycles),
                    fixed.timing.millis, fixed.groups);
        std::fflush(stdout);
        report.AddRow(distribution_name + "+native/" + label, cardinality,
                      fixed.timing.cycles, fixed.timing.millis, &fixed.stats);
        report.SetRowMeta("algorithm", label);
      }
    }
  }
  report.WriteFile();
  return 0;
}

}  // namespace
}  // namespace memagg

int main(int argc, char** argv) { return memagg::Run(argc, argv); }
