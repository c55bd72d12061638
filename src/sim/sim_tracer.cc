#include "sim/sim_tracer.h"

namespace memagg {
namespace sim_internal {

// astlint:allow(unguarded-global): bound only by ScopedCacheSim on one thread.
CacheModel* g_cache_model = nullptr;

}  // namespace sim_internal
}  // namespace memagg
