// Figure 3: data-structure microbenchmark.
//
// A store-and-lookup workload over every data structure (including Ttree,
// which this experiment eliminates from the rest of the paper): the build
// phase inserts key -> value for --records random keys, the iterate phase
// reads back every stored item. Output: one row per structure with build and
// iterate cycle counts, matching the Figure 3 stacked bars.
//
// On top of the paper's figure, a SIMD-lane section builds the two probed
// hash maps with the scalar lane pinned (LinearProbingMap<..., ScalarOps>)
// and with the compiled lane (simd::DefaultOps), so the probe-loop
// vectorization shows up at the data-structure level, not just in
// bench_simd's kernel loops. Everything is also recorded to
// BENCH_ds_micro.json for tools/bench_compare.py.

#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_common.h"
#include "core/engine.h"
#include "data/dataset.h"
#include "hash/dense_map.h"
#include "hash/linear_probing_map.h"
#include "util/simd.h"

namespace memagg {
namespace {

/// Build + lookup of one lane-pinned map type over the shared key set.
/// Reports build cycles (x = records) and lookup cycles under the given
/// series names; `sum` guards against dead-code elimination.
template <typename Map>
void RunLaneMap(BenchReport& report, const std::string& map_name,
                const char* lane, const std::vector<uint64_t>& keys) {
  Map map(keys.size());
  const BenchTiming build = TimeOnce([&] {
    // astlint:allow(raw-key-type): legacy paper bench, raw synthetic keys
    for (const uint64_t key : keys) map.GetOrInsert(key) += 1;
  });
  uint64_t sum = 0;
  const BenchTiming lookup = TimeOnce([&] {
    // astlint:allow(raw-key-type): legacy paper bench, raw synthetic keys
    for (const uint64_t key : keys) {
      const uint64_t* value = map.Find(key);
      if (value != nullptr) sum += *value;
    }
  });
  const std::string series = map_name + "/" + lane;
  std::printf("%s,%llu,%llu,%.1f,%.1f\n", series.c_str(),
              static_cast<unsigned long long>(build.cycles),
              static_cast<unsigned long long>(lookup.cycles), build.millis,
              lookup.millis);
  std::fflush(stdout);
  report.AddRow(series + "/build", keys.size(), build.cycles, build.millis);
  report.AddRow(series + "/lookup", keys.size(), lookup.cycles,
                lookup.millis);
  if (sum < keys.size()) {
    std::fprintf(stderr, "warning: lookup sum %llu below record count\n",
                 static_cast<unsigned long long>(sum));
  }
}

/// Hash_LP and Hash_Dense with the probe kernels of lane `Ops`.
template <simd::SimdOps Ops>
void RunLaneMaps(BenchReport& report, const std::vector<uint64_t>& keys) {
  RunLaneMap<LinearProbingMap<uint64_t, NullTracer, ArenaAllocator, Ops>>(
      report, "Hash_LP", Ops::Name(), keys);
  RunLaneMap<DenseMap<uint64_t, NullTracer, Ops>>(report, "Hash_Dense",
                                                  Ops::Name(), keys);
}

int Run(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const uint64_t records =
      static_cast<uint64_t>(flags.GetInt("records", 10000000));
  // Random keys over a wide range, like the paper's store/lookup workload.
  const auto keys = GenerateMicroKeys(MicroDistribution::kRandom1To1M, records);

  // All Table 3 structures plus Ttree. Sort algorithms "build" by sorting
  // and "iterate" by scanning, per Section 3.
  std::vector<std::string> labels = SerialLabels();
  labels.push_back("Ttree");

  PrintBanner("Figure 3: Data Structure Microbenchmark",
              "build vs iterate, " + std::to_string(records) +
                  " random keys (1-1M); hash tables sized to the input");
  std::printf("structure,build_cycles,iterate_cycles,build_ms,iterate_ms\n");

  BenchReport report("ds_micro");
  report.SetParam("records", records);
  report.SetParam("active_lane", simd::DefaultOps::Name());

  for (const std::string& label : labels) {
    auto aggregator =
        MakeVectorAggregator(label, AggregateFunction::kCount, records);
    const BenchTiming build = TimeOnce(
        [&] { aggregator->Build(keys.data(), nullptr, keys.size()); });
    size_t rows = 0;
    const BenchTiming iterate =
        TimeOnce([&] { rows = aggregator->Iterate().size(); });
    std::printf("%s,%llu,%llu,%.1f,%.1f\n", label.c_str(),
                static_cast<unsigned long long>(build.cycles),
                static_cast<unsigned long long>(iterate.cycles), build.millis,
                iterate.millis);
    std::fflush(stdout);
    report.AddRow(label + "/build", records, build.cycles, build.millis);
    report.AddRow(label + "/iterate", records, iterate.cycles,
                  iterate.millis);
    if (rows == 0) std::fprintf(stderr, "warning: empty result for %s\n",
                                label.c_str());
  }

  // SIMD-lane ablation of the probed maps: same keys, lane pinned per run.
  std::printf("# lane-pinned probe maps (series,build_cycles,lookup_cycles,"
              "build_ms,lookup_ms)\n");
  RunLaneMaps<simd::ScalarOps>(report, keys);
  if constexpr (!std::is_same_v<simd::DefaultOps, simd::ScalarOps>) {
    RunLaneMaps<simd::DefaultOps>(report, keys);
  }

  report.WriteFile();
  return 0;
}

}  // namespace
}  // namespace memagg

int main(int argc, char** argv) { return memagg::Run(argc, argv); }
