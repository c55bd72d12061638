// Registry shard: the adaptive operator's families (core/row_factories.h).

#include "core/row_factories.h"

namespace memagg {

template struct RowFactories<family::Adaptive<AggStrategySet{}>, NullTracer>;
template struct RowFactories<family::Adaptive<kHybridStrategies>, NullTracer>;

}  // namespace memagg
