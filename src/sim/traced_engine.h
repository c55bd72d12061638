// Factory for cache-simulation-instrumented aggregation operators.
//
// Reads the engine's label registry (core/label_registry.h) instantiated
// with Tracer = SimTracer: every data structure of a traced row reports its
// slot/node/bucket accesses into the bound CacheModel. Sort kernels are
// traced through TracingSorter (core/sorters.h), which reports the element
// behind every key extraction — the comparison- and radix-driven access
// patterns of the sorts. Input-column scans are deliberately untraced for
// all operators (they are identical sequential reads for every algorithm).
//
// Used by bench_cache_tlb's --mode=sim fallback (Figure 6 without perf).

#ifndef MEMAGG_SIM_TRACED_ENGINE_H_
#define MEMAGG_SIM_TRACED_ENGINE_H_

#include <memory>
#include <string>

#include "core/aggregate.h"
#include "core/operator.h"
#include "exec/executor.h"

namespace memagg {

/// Creates a traced vector aggregator for a label with a traced twin
/// (LabelInfo::traced: the Table 3 serial labels and Ttree). Supports the
/// Figure 6 functions (kCount for Q1, kMedian for Q3). The cache model
/// observes a single access stream, so `exec` must be serial
/// (num_threads == 1); the parameter exists so callers can thread one
/// ExecutionContext through both engines.
std::unique_ptr<VectorAggregator> MakeTracedVectorAggregator(
    const std::string& label, AggregateFunction function, size_t expected_size,
    const ExecutionContext& exec = {});

}  // namespace memagg

#endif  // MEMAGG_SIM_TRACED_ENGINE_H_
