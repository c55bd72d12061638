// Registry shard: the hash operators beyond the serial group stores — the
// concurrent tables and the partitioning operators (core/row_factories.h).

#include "core/row_factories.h"

namespace memagg {

template struct RowFactories<family::SharedChaining, NullTracer>;
template struct RowFactories<family::Cuckoo, NullTracer>;
template struct RowFactories<family::Operator<MphVectorAggregator>, NullTracer>;
template struct RowFactories<family::Partitioned</*kRadix=*/false>,
                             NullTracer>;
template struct RowFactories<family::Operator<StripedParallelAggregator>,
                             NullTracer>;
template struct RowFactories<family::Partitioned</*kRadix=*/true>, NullTracer>;

}  // namespace memagg
