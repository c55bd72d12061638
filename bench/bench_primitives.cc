// google-benchmark microbenchmarks for the primitive operations underneath
// the aggregation operators: hash mixing, map insert/lookup, tree
// insert/lookup/iterate, and the sort kernels at several input sizes.
// Complements the per-figure harnesses with statistically repeated timings.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/sorters.h"
#include "data/dataset.h"
#include "hash/chaining_map.h"
#include "hash/dense_map.h"
#include "hash/hash_fn.h"
#include "hash/linear_probing_map.h"
#include "hash/sparse_map.h"
#include "tree/art.h"
#include "tree/btree.h"
#include "tree/judy.h"
#include "util/rng.h"

namespace memagg {
namespace {

void BM_HashKey(benchmark::State& state) {
  // astlint:allow(raw-key-type): hash micro-bench feeds the raw mixer, no codec
  uint64_t key = 0x123456789abcdefULL;
  for (auto _ : state) {
    key = HashKey(key);
    benchmark::DoNotOptimize(key);
  }
}
BENCHMARK(BM_HashKey);

std::vector<uint64_t> RandomKeys(size_t n, uint64_t range) {
  Rng rng(91);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) k = rng.NextBounded(range);
  return keys;
}

template <typename Map>
void MapInsertBenchmark(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto keys = RandomKeys(n, n);
  for (auto _ : state) {
    Map map(n);
    for (uint64_t k : keys) ++map.GetOrInsert(k);
    benchmark::DoNotOptimize(map.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

void BM_LinearProbingInsert(benchmark::State& state) {
  MapInsertBenchmark<LinearProbingMap<uint64_t>>(state);
}
BENCHMARK(BM_LinearProbingInsert)->Arg(1 << 14)->Arg(1 << 18);

void BM_ChainingInsert(benchmark::State& state) {
  MapInsertBenchmark<ChainingMap<uint64_t>>(state);
}
BENCHMARK(BM_ChainingInsert)->Arg(1 << 14)->Arg(1 << 18);

void BM_DenseInsert(benchmark::State& state) {
  MapInsertBenchmark<DenseMap<uint64_t>>(state);
}
BENCHMARK(BM_DenseInsert)->Arg(1 << 14)->Arg(1 << 18);

void BM_SparseInsert(benchmark::State& state) {
  MapInsertBenchmark<SparseMap<uint64_t>>(state);
}
BENCHMARK(BM_SparseInsert)->Arg(1 << 14)->Arg(1 << 18);

template <typename Tree>
void TreeInsertBenchmark(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto keys = RandomKeys(n, n);
  for (auto _ : state) {
    Tree tree;
    for (uint64_t k : keys) ++tree.GetOrInsert(k);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

void BM_ArtInsert(benchmark::State& state) {
  TreeInsertBenchmark<ArtTree<uint64_t>>(state);
}
BENCHMARK(BM_ArtInsert)->Arg(1 << 14)->Arg(1 << 18);

void BM_JudyInsert(benchmark::State& state) {
  TreeInsertBenchmark<JudyArray<uint64_t>>(state);
}
BENCHMARK(BM_JudyInsert)->Arg(1 << 14)->Arg(1 << 18);

void BM_BtreeInsert(benchmark::State& state) {
  TreeInsertBenchmark<BTree<uint64_t>>(state);
}
BENCHMARK(BM_BtreeInsert)->Arg(1 << 14)->Arg(1 << 18);

template <typename Sorter>
void SortBenchmark(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto input = RandomKeys(n, 1000000);
  std::vector<uint64_t> keys;
  for (auto _ : state) {
    state.PauseTiming();
    keys = input;
    state.ResumeTiming();
    Sorter{}(keys.data(), keys.data() + keys.size(), IdentityKey{});
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

void BM_Introsort(benchmark::State& state) {
  SortBenchmark<IntrosortSorter>(state);
}
BENCHMARK(BM_Introsort)->Arg(1 << 16)->Arg(1 << 20);

void BM_Spreadsort(benchmark::State& state) {
  SortBenchmark<SpreadsortSorter>(state);
}
BENCHMARK(BM_Spreadsort)->Arg(1 << 16)->Arg(1 << 20);

void BM_LsbRadixSort(benchmark::State& state) {
  SortBenchmark<LsbRadixSorter>(state);
}
BENCHMARK(BM_LsbRadixSort)->Arg(1 << 16)->Arg(1 << 20);

void BM_MsbRadixSort(benchmark::State& state) {
  SortBenchmark<MsbRadixSorter>(state);
}
BENCHMARK(BM_MsbRadixSort)->Arg(1 << 16)->Arg(1 << 20);

void BM_ZipfGeneration(benchmark::State& state) {
  for (auto _ : state) {
    DatasetSpec spec{Distribution::kZipf,
                     static_cast<uint64_t>(state.range(0)), 1000, 92};
    if (!IsValidSpec(spec)) continue;
    benchmark::DoNotOptimize(GenerateKeys(spec).data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ZipfGeneration)->Arg(1 << 18);

}  // namespace
}  // namespace memagg

BENCHMARK_MAIN();
