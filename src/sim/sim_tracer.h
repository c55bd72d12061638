// SimTracer: the Tracer policy that feeds data-structure accesses into a
// process-global CacheModel. Bind a model with ScopedCacheSim, instantiate
// structures with Tracer = SimTracer, run the workload, read the stats.

#ifndef MEMAGG_SIM_SIM_TRACER_H_
#define MEMAGG_SIM_SIM_TRACER_H_

#include <cstddef>

#include "sim/cache_model.h"

namespace memagg {

namespace sim_internal {
/// The currently bound model (nullptr when none). Single-threaded by
/// design: the Figure 6 experiment is a serial workload.
// astlint:allow(unguarded-global): bound only by ScopedCacheSim on one thread.
extern CacheModel* g_cache_model;
}  // namespace sim_internal

/// Tracer policy routing accesses into the bound CacheModel.
struct SimTracer {
  static constexpr bool kEnabled = true;
  static void OnAccess(const void* address, size_t bytes) {
    if (sim_internal::g_cache_model != nullptr) {
      sim_internal::g_cache_model->Access(address, bytes);
    }
  }
};

/// Binds `model` as the global simulation target for its lifetime.
class ScopedCacheSim {
 public:
  explicit ScopedCacheSim(CacheModel* model) {
    previous_ = sim_internal::g_cache_model;
    sim_internal::g_cache_model = model;
  }
  ~ScopedCacheSim() { sim_internal::g_cache_model = previous_; }

  ScopedCacheSim(const ScopedCacheSim&) = delete;
  ScopedCacheSim& operator=(const ScopedCacheSim&) = delete;

 private:
  CacheModel* previous_ = nullptr;
};

}  // namespace memagg

#endif  // MEMAGG_SIM_SIM_TRACER_H_
