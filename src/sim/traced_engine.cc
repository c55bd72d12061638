#include "sim/traced_engine.h"

#include <cstdio>

#include "core/row_factories.h"
#include "sim/sim_tracer.h"
#include "util/macros.h"

namespace memagg {

std::unique_ptr<VectorAggregator> MakeTracedVectorAggregator(
    const std::string& label, AggregateFunction function, size_t expected_size,
    const ExecutionContext& exec) {
  MEMAGG_CHECK(exec.num_threads == 1);
  const LabelRow& row = FindRow(kLabelTable<SimTracer>, label);
  const VectorFactory make =
      row.factories == nullptr
          ? nullptr
          : row.factories().make[static_cast<size_t>(function)];
  if (make == nullptr) {
    // Traced twins exist for LabelInfo::traced rows, COUNT and MEDIAN only.
    std::fprintf(stderr, "No traced operator for label: %s computing %s\n",
                 label.c_str(), AggregateFunctionName(function).c_str());
    MEMAGG_CHECK(false);
  }
  return make(expected_size, exec);
}

}  // namespace memagg
