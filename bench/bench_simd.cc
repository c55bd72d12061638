// SIMD lane microbenchmark: each SimdOps kernel timed per lane.
//
// The lane ablation behind docs/simd.md: every kernel from util/simd.h runs
// over an in-cache workload under the scalar lane and under the compiled
// lane (simd::DefaultOps; once when the build has no SSE2 and the two are
// the same lane), so the report shows what each vector kernel buys over the
// scalar loop it replaced. The headline series is the Swiss-table
// control-byte probe: CI gates `tag_probe16/sse2 >= 1.5x
// tag_probe16/scalar` via tools/bench_compare.py --speedup-gate.
//
// Workloads fit in L1/L2 by construction (16 KiB control array, 4 KiB node
// pool, 128 KiB bucket pool) so the numbers measure compare throughput, not
// memory latency. Output: CSV rows to stdout + BENCH_simd.json.

#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_common.h"
#include "util/rng.h"
#include "util/simd.h"

namespace memagg {
namespace {

/// Keeps `value` (and everything that produced it) out of dead-code
/// elimination without a store.
inline void Consume(uint64_t value) { asm volatile("" : : "r"(value)); }

constexpr size_t kCtrlGroups = 1024;  // 16 KiB control array (L1-resident).
constexpr size_t kNodePool = 256;     // 256 x 16-byte node key arrays, 4 KiB.
constexpr size_t kBucketPool = 4096;  // 4-slot cuckoo buckets, 128 KiB.

/// Pre-generated probe workload shared by every lane, so series differ only
/// in the kernel implementation.
struct Workload {
  std::vector<uint8_t> ctrl;        // kCtrlGroups * kGroupWidth tag bytes.
  std::vector<uint32_t> group_off;  // Probe i hits ctrl[group_off[i]..+15].
  std::vector<uint8_t> probe_tag;   // 7-bit tag probed at step i.
  std::vector<uint8_t> node_keys;   // kNodePool * 32 bytes (Node16 = first
                                    // half, Node32 = whole array).
  std::vector<uint32_t> node_off;   // Probe i scans node_keys[node_off[i]..].
  std::vector<uint64_t> buckets;    // kBucketPool * 4 slot keys.
  std::vector<uint32_t> bucket_off;
  std::vector<uint64_t> bucket_key;
};

Workload MakeWorkload(size_t probes, Rng& rng) {
  Workload w;
  // Control bytes: ~1/8 empty, the rest random 7-bit tags — a table around
  // the load factor where probes see both hits and misses per group.
  w.ctrl.resize(kCtrlGroups * simd::kGroupWidth);
  for (uint8_t& byte : w.ctrl) {
    byte = rng.NextBounded(8) == 0
               ? simd::kCtrlEmpty
               : static_cast<uint8_t>(rng.Next() & 0x7f);
  }
  w.node_keys.resize(kNodePool * 32);
  for (uint8_t& byte : w.node_keys) {
    byte = static_cast<uint8_t>(rng.Next());
  }
  w.buckets.resize(kBucketPool * 4);
  for (uint64_t& key : w.buckets) key = rng.Next();

  w.group_off.reserve(probes);
  w.probe_tag.reserve(probes);
  w.node_off.reserve(probes);
  w.bucket_off.reserve(probes);
  w.bucket_key.reserve(probes);
  for (size_t i = 0; i < probes; ++i) {
    w.group_off.push_back(
        static_cast<uint32_t>(rng.NextBounded(kCtrlGroups)) *
        static_cast<uint32_t>(simd::kGroupWidth));
    w.probe_tag.push_back(static_cast<uint8_t>(rng.Next() & 0x7f));
    w.node_off.push_back(static_cast<uint32_t>(rng.NextBounded(kNodePool)) *
                         32);
    const uint32_t bucket =
        static_cast<uint32_t>(rng.NextBounded(kBucketPool)) * 4;
    w.bucket_off.push_back(bucket);
    // Half the bucket probes hit an occupied slot, half miss.
    w.bucket_key.push_back(rng.NextBounded(2) == 0
                               ? w.buckets[bucket + rng.NextBounded(4)]
                               : rng.Next());
  }
  return w;
}

/// Best-of-`reps` timing of `fn` (first run doubles as cache warmup and is
/// never the minimum on a quiet machine anyway).
BenchTiming BestOf(int reps, const std::function<void()>& fn) {
  BenchTiming best;
  for (int r = 0; r < reps; ++r) {
    const BenchTiming t = TimeOnce(fn);
    if (r == 0 || t.cycles < best.cycles) best = t;
  }
  return best;
}

template <simd::SimdOps Ops>
void RunLane(BenchReport& report, const Workload& w, size_t probes,
             int reps) {
  struct Kernel {
    const char* name;
    std::function<void()> body;
  };
  const Kernel kernels[] = {
      {"tag_probe16",
       [&] {
         uint64_t sink = 0;
         for (size_t i = 0; i < probes; ++i) {
           sink += Ops::MatchByteTag(w.ctrl.data() + w.group_off[i],
                                     w.probe_tag[i]);
         }
         Consume(sink);
       }},
      {"match_empty16",
       [&] {
         uint64_t sink = 0;
         for (size_t i = 0; i < probes; ++i) {
           sink += Ops::MatchEmpty(w.ctrl.data() + w.group_off[i]);
         }
         Consume(sink);
       }},
      {"find_byte16",
       [&] {
         uint64_t sink = 0;
         for (size_t i = 0; i < probes; ++i) {
           sink += static_cast<uint64_t>(Ops::FindByte16(
               w.node_keys.data() + w.node_off[i], 16, w.probe_tag[i]));
         }
         Consume(sink);
       }},
      {"find_byte32",
       [&] {
         uint64_t sink = 0;
         for (size_t i = 0; i < probes; ++i) {
           sink += static_cast<uint64_t>(Ops::FindByte32(
               w.node_keys.data() + w.node_off[i], 32, w.probe_tag[i]));
         }
         Consume(sink);
       }},
      {"match_key4",
       [&] {
         uint64_t sink = 0;
         for (size_t i = 0; i < probes; ++i) {
           sink += static_cast<uint64_t>(Ops::MatchKey4(
               w.buckets.data() + w.bucket_off[i], w.bucket_key[i]));
         }
         Consume(sink);
       }},
  };
  for (const Kernel& kernel : kernels) {
    const BenchTiming best = BestOf(reps, kernel.body);
    const std::string series = std::string(kernel.name) + "/" + Ops::Name();
    std::printf("%s,%llu,%.3f,%.2f\n", series.c_str(),
                static_cast<unsigned long long>(best.cycles), best.millis,
                static_cast<double>(best.cycles) /
                    static_cast<double>(probes));
    std::fflush(stdout);
    report.AddRow(series, probes, best.cycles, best.millis);
  }
}

int Run(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const size_t probes =
      static_cast<size_t>(flags.GetInt("probes", 1 << 22));
  const int reps = static_cast<int>(flags.GetInt("reps", 5));

  Rng rng;
  Workload w = MakeWorkload(probes, rng);

  PrintBanner("SIMD lane microbenchmark",
              "per-kernel cycles under each SimdOps lane; " +
                  std::to_string(probes) + " probes, best of " +
                  std::to_string(reps) + " reps, in-cache working sets");
  std::printf("series,cycles,millis,cycles_per_op\n");

  BenchReport report("simd");
  report.SetParam("probes", static_cast<uint64_t>(probes));
  report.SetParam("reps", static_cast<uint64_t>(reps));
  report.SetParam("active_lane", simd::DefaultOps::Name());

  RunLane<simd::ScalarOps>(report, w, probes, reps);
  if constexpr (!std::is_same_v<simd::DefaultOps, simd::ScalarOps>) {
    RunLane<simd::DefaultOps>(report, w, probes, reps);
  }

  report.WriteFile();
  return 0;
}

}  // namespace
}  // namespace memagg

int main(int argc, char** argv) { return memagg::Run(argc, argv); }
