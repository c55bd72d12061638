// Sorter functors bridging the sort substrate to the aggregation operators
// and benchmarks. Each sorter sorts a range of trivially copyable records by
// the EncodedKey key produced by a KeyOf functor, so the same functor works on
// plain key arrays (IdentityKey) and on (key, value) records (PairFirstKey).

#ifndef MEMAGG_CORE_SORTERS_H_
#define MEMAGG_CORE_SORTERS_H_

#include <cstdint>
#include <type_traits>

#include "core/concepts.h"
#include "sort/block_indirect_sort.h"
#include "sort/introsort.h"
#include "sort/parallel_quicksort.h"
#include "sort/quicksort.h"
#include "sort/radix_sort.h"
#include "sort/samplesort.h"
#include "sort/sort_common.h"
#include "sort/spreadsort.h"
#include "sort/task_quicksort.h"
#include "util/encoded_key.h"
#include "util/tracer.h"

namespace memagg {

/// Quicksort (paper: "Quicksort").
struct QuicksortSorter {
  template <SortableRecord T, KeyExtractor<T> KeyOf>
  void operator()(T* first, T* last, KeyOf key_of) const {
    QuickSort(first, last, KeyLess<KeyOf>{key_of});
  }
};

/// Introsort, the GCC std::sort strategy (paper: "Introsort").
struct IntrosortSorter {
  template <SortableRecord T, KeyExtractor<T> KeyOf>
  void operator()(T* first, T* last, KeyOf key_of) const {
    IntroSort(first, last, KeyLess<KeyOf>{key_of});
  }
};

/// Most-significant-bit radix sort (paper: "MSB Radix Sort").
struct MsbRadixSorter {
  template <SortableRecord T, KeyExtractor<T> KeyOf>
  void operator()(T* first, T* last, KeyOf key_of) const {
    MsbRadixSort(first, last, key_of);
  }
};

/// Least-significant-bit radix sort (paper: "LSB Radix Sort").
struct LsbRadixSorter {
  template <SortableRecord T, KeyExtractor<T> KeyOf>
  void operator()(T* first, T* last, KeyOf key_of) const {
    LsbRadixSort(first, last, key_of);
  }
};

/// Boost-style hybrid radix/comparison sort (paper: "Spreadsort").
struct SpreadsortSorter {
  template <SortableRecord T, KeyExtractor<T> KeyOf>
  void operator()(T* first, T* last, KeyOf key_of) const {
    SpreadSort(first, last, key_of);
  }
};

/// Parallel quicksort with load balancing (paper: "Sort_QSLB").
struct ParallelQuicksortSorter {
  int num_threads = 1;
  template <SortableRecord T, KeyExtractor<T> KeyOf>
  void operator()(T* first, T* last, KeyOf key_of) const {
    ParallelQuickSort(first, last, KeyLess<KeyOf>{key_of}, num_threads);
  }
};

/// Parallel sort-then-merge (paper: "Sort_BI").
struct BlockIndirectSorter {
  int num_threads = 1;
  template <SortableRecord T, KeyExtractor<T> KeyOf>
  void operator()(T* first, T* last, KeyOf key_of) const {
    BlockIndirectSort(first, last, KeyLess<KeyOf>{key_of}, num_threads);
  }
};

/// Parallel samplesort (paper: "Sort_SS").
struct SamplesortSorter {
  int num_threads = 1;
  template <SortableRecord T, KeyExtractor<T> KeyOf>
  void operator()(T* first, T* last, KeyOf key_of) const {
    SampleSort(first, last, KeyLess<KeyOf>{key_of}, num_threads);
  }
};

/// Task-pool quicksort (paper: "Sort_TBB").
struct TaskQuicksortSorter {
  int num_threads = 1;
  template <SortableRecord T, KeyExtractor<T> KeyOf>
  void operator()(T* first, T* last, KeyOf key_of) const {
    TaskQuickSort(first, last, KeyLess<KeyOf>{key_of}, num_threads);
  }
};

/// Any Sorter, reporting each element its KeyOf reads to `Tracer`. Sorts
/// reach their elements through KeyOf and comparisons, so this traces their
/// access pattern without touching the kernels (sim/traced_engine.h).
template <Sorter Inner, MemoryTracer Tracer>
struct TracingSorter {
  Inner inner;
  template <SortableRecord T, KeyExtractor<T> KeyOf>
  void operator()(T* first, T* last, KeyOf key_of) const {
    inner(first, last, [key_of](const T& element) -> uint64_t {
      Tracer::OnAccess(&element, sizeof(T));
      return key_of(element);
    });
  }
};

/// `Inner` itself when tracing is off, so untraced operators keep their
/// plain sorter type.
template <Sorter Inner, MemoryTracer Tracer>
using TracedSorter =
    std::conditional_t<Tracer::kEnabled, TracingSorter<Inner, Tracer>, Inner>;

// Every functor above models Sorter; the thread-budgeted ones also model
// ParallelSorter (core/concepts.h).
static_assert(Sorter<QuicksortSorter>);
static_assert(Sorter<IntrosortSorter>);
static_assert(Sorter<MsbRadixSorter>);
static_assert(Sorter<LsbRadixSorter>);
static_assert(Sorter<SpreadsortSorter>);
static_assert(ParallelSorter<ParallelQuicksortSorter>);
static_assert(ParallelSorter<BlockIndirectSorter>);
static_assert(ParallelSorter<SamplesortSorter>);
static_assert(ParallelSorter<TaskQuicksortSorter>);

}  // namespace memagg

#endif  // MEMAGG_CORE_SORTERS_H_
