// Registry shard: the serial group-store families (core/row_factories.h).

#include "core/row_factories.h"

namespace memagg {

template struct RowFactories<family::GroupStore<ArtTree>, NullTracer>;
template struct RowFactories<family::GroupStore<JudyArray>, NullTracer>;
template struct RowFactories<family::GroupStore<BTree>, NullTracer>;
template struct RowFactories<family::GroupStore<ChainingMap>, NullTracer>;
template struct RowFactories<family::GroupStore<LinearProbingMap>, NullTracer>;
template struct RowFactories<family::GroupStore<SparseMap>, NullTracer>;
template struct RowFactories<family::GroupStore<DenseMap>, NullTracer>;
template struct RowFactories<family::GroupStore<TTree>, NullTracer>;
template struct RowFactories<family::GroupStore<ArtTreeGlobalNew>, NullTracer>;
template struct RowFactories<family::GroupStore<ChainingMapGlobalNew>,
                             NullTracer>;

}  // namespace memagg
