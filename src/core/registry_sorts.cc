// Registry shard: the sort families (core/row_factories.h).

#include "core/row_factories.h"

namespace memagg {

template struct RowFactories<family::Sort<IntrosortSorter>, NullTracer>;
template struct RowFactories<family::Sort<SpreadsortSorter>, NullTracer>;
template struct RowFactories<family::Sort<BlockIndirectSorter>, NullTracer>;
template struct RowFactories<family::Sort<ParallelQuicksortSorter>, NullTracer>;

}  // namespace memagg
