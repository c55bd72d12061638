// The definition of the label registry's factory tables
// (core/label_registry.h): RowFactories<Family, Tracer>::Table() over a
// constinit FactoriesOf() table, so no table waits on dynamic
// initialization.
//
// Include it only from the registry shards (core/registry_*.cc), which
// explicitly instantiate RowFactories<Family, NullTracer> once per engine
// family, and from sim/traced_engine.cc, whose kLabelTable<SimTracer>
// instantiates the traced tables. Including it anywhere else compiles
// operators a second time.

#ifndef MEMAGG_CORE_ROW_FACTORIES_H_
#define MEMAGG_CORE_ROW_FACTORIES_H_

#include "core/label_registry.h"

namespace memagg {

template <LabelFamily Family, MemoryTracer Tracer>
const FactoryTable& RowFactories<Family, Tracer>::Table() {
  static constinit const FactoryTable kTable = FactoriesOf<Family, Tracer>();
  return kTable;
}

}  // namespace memagg

#endif  // MEMAGG_CORE_ROW_FACTORIES_H_
