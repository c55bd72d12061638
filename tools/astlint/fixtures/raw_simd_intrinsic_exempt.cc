#ifndef MEMAGG_UTIL_SIMD_WIDEN_H_
#define MEMAGG_UTIL_SIMD_WIDEN_H_
__m256i f(const uint8_t* g) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(g)); }
#endif  // MEMAGG_UTIL_SIMD_WIDEN_H_
