// Ablation benchmarks for the design choices called out in the paper and in
// DESIGN.md:
//
//   (a) Hash_LP table sizing policy (paper Section 3.2.1): power-of-two
//       capacity with AND-masking vs prime and exact capacities with modulo
//       reduction.
//   (b) Spreadsort hybrid thresholds (Section 3.1.4): the radix->comparison
//       switch is what distinguishes Spreadsort from pure MSB radix sort and
//       pure Introsort — measured by running all three on the same inputs.
//   (c) Adaptive hybrid aggregation (Section 5.5 future work): Hybrid (the
//       adaptive operator limited to its hash→sort switch) vs pure Hash_LP
//       vs pure Spreadsort across the cardinality sweep, showing the hybrid
//       tracking the better of the two regimes.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/adaptive_aggregator.h"
#include "core/engine.h"
#include "core/sorters.h"
#include "data/dataset.h"
#include "hash/linear_probing_map.h"
#include "obs/query_stats.h"

namespace memagg {
namespace {

void RunSizingPolicyAblation(uint64_t records) {
  PrintBanner("Ablation (a): Hash_LP sizing policy",
              "Q1 build over " + std::to_string(records) +
                  " Rseq-Shf records; pow2+mask vs prime/exact+modulo");
  std::printf("policy,cardinality,build_cycles,build_ms\n");
  for (uint64_t cardinality : {1000ULL, 1000000ULL}) {
    if (cardinality > records) continue;
    DatasetSpec spec{Distribution::kRseqShuffled, records, cardinality, 111};
    if (!IsValidSpec(spec)) continue;
    const auto keys = GenerateKeys(spec);
    const struct {
      const char* name;
      SizingPolicy policy;
    } policies[] = {{"PowerOfTwo", SizingPolicy::kPowerOfTwo},
                    {"Prime", SizingPolicy::kPrime},
                    {"Exact", SizingPolicy::kExact}};
    for (const auto& p : policies) {
      LinearProbingMap<uint64_t> map(records, p.policy);
      const BenchTiming timing = TimeOnce([&] {
        // astlint:allow(raw-key-type): legacy paper bench, raw synthetic keys
        for (uint64_t key : keys) ++map.GetOrInsert(key);
      });
      std::printf("%s,%llu,%llu,%.1f\n", p.name,
                  static_cast<unsigned long long>(cardinality),
                  static_cast<unsigned long long>(timing.cycles),
                  timing.millis);
      std::fflush(stdout);
    }
  }
}

void RunSortHybridAblation(uint64_t records) {
  PrintBanner("Ablation (b): Spreadsort hybrid vs its ingredients",
              "sorting " + std::to_string(records) +
                  " keys: pure MSB radix vs pure Introsort vs the hybrid");
  std::printf("distribution,algorithm,time_ms\n");
  for (MicroDistribution d : kAllMicroDistributions) {
    const auto input = GenerateMicroKeys(d, records);
    const struct {
      const char* name;
      void (*sort)(uint64_t*, uint64_t*);
    } sorts[] = {
        {"MSB Radix (no comparison phase)",
         [](uint64_t* f, uint64_t* l) { MsbRadixSorter{}(f, l, IdentityKey{}); }},
        {"Introsort (no radix phase)",
         [](uint64_t* f, uint64_t* l) { IntrosortSorter{}(f, l, IdentityKey{}); }},
        {"Spreadsort (hybrid)",
         [](uint64_t* f, uint64_t* l) {
           SpreadsortSorter{}(f, l, IdentityKey{});
         }},
    };
    for (const auto& s : sorts) {
      std::vector<uint64_t> keys = input;
      const BenchTiming timing =
          TimeOnce([&] { s.sort(keys.data(), keys.data() + keys.size()); });
      std::printf("%s,%s,%.1f\n", MicroDistributionName(d).c_str(), s.name,
                  timing.millis);
      std::fflush(stdout);
    }
  }
}

void RunAdaptiveHybridAblation(uint64_t records,
                               const std::vector<uint64_t>& cardinalities) {
  PrintBanner("Ablation (c): adaptive hybrid aggregation (Section 5.5)",
              "Q1 over Rseq-Shf, " + std::to_string(records) +
                  " records: Hybrid vs Hash_LP vs Spreadsort");
  std::printf("cardinality,algorithm,total_cycles,total_ms,sort_mode\n");
  for (uint64_t cardinality : cardinalities) {
    if (cardinality > records) continue;
    DatasetSpec spec{Distribution::kRseqShuffled, records, cardinality, 112};
    if (!IsValidSpec(spec)) continue;
    const auto keys = GenerateKeys(spec);
    for (const std::string& label :
         {std::string("Hybrid"), std::string("Hash_LP"),
          std::string("Spreadsort")}) {
      auto aggregator =
          MakeVectorAggregator(label, AggregateFunction::kCount, records);
      VectorResult result;
      const BenchTiming timing = TimeOnce([&] {
        aggregator->Build(keys.data(), nullptr, keys.size());
        result = aggregator->Iterate();
      });
      // Only the adaptive operator reports a strategy (id + 1); the fixed
      // labels print -1.
      QueryStats stats;
      aggregator->CollectStats(&stats);
      const uint64_t strategy = stats.Get(StatCounter::kAdaptiveStrategy);
      const int sort_mode =
          strategy == 0
              ? -1
              : strategy == static_cast<uint64_t>(AggStrategy::kSort) + 1;
      std::printf("%llu,%s,%llu,%.1f,%d\n",
                  static_cast<unsigned long long>(cardinality), label.c_str(),
                  static_cast<unsigned long long>(timing.cycles),
                  timing.millis, sort_mode);
      std::fflush(stdout);
    }
  }
}

void RunOrderedMphAblation(uint64_t records,
                           const std::vector<uint64_t>& cardinalities) {
  PrintBanner(
      "Ablation (d): order-preserving minimal perfect hashing (Section 3.2)",
      "the paper claims ordered hashing would be 'quite severe' for query "
      "time; Q1 over Rseq-Shf, " + std::to_string(records) +
          " records: Hash_MPH vs Hash_LP (unordered) vs Btree (ordered)");
  std::printf("cardinality,algorithm,total_cycles,total_ms\n");
  for (uint64_t cardinality : cardinalities) {
    DatasetSpec spec{Distribution::kRseqShuffled, records, cardinality, 113};
    if (!IsValidSpec(spec)) continue;
    const auto keys = GenerateKeys(spec);
    for (const std::string& label :
         {std::string("Hash_MPH"), std::string("Hash_LP"),
          std::string("Btree")}) {
      auto aggregator =
          MakeVectorAggregator(label, AggregateFunction::kCount, records);
      VectorResult result;
      const BenchTiming timing = TimeOnce([&] {
        aggregator->Build(keys.data(), nullptr, keys.size());
        result = aggregator->Iterate();
      });
      std::printf("%llu,%s,%llu,%.1f\n",
                  static_cast<unsigned long long>(cardinality), label.c_str(),
                  static_cast<unsigned long long>(timing.cycles),
                  timing.millis);
      std::fflush(stdout);
    }
  }
}

int Run(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const uint64_t records =
      static_cast<uint64_t>(flags.GetInt("records", 4000000));
  const auto cardinalities = CardinalitySweep(flags, records);
  RunSizingPolicyAblation(records);
  RunSortHybridAblation(records);
  RunAdaptiveHybridAblation(records, cardinalities);
  RunOrderedMphAblation(records, cardinalities);
  return 0;
}

}  // namespace
}  // namespace memagg

int main(int argc, char** argv) { return memagg::Run(argc, argv); }
