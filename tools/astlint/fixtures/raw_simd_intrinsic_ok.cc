#ifndef MEMAGG_HASH_WIDGET_H_
#define MEMAGG_HASH_WIDGET_H_
uint32_t f(const uint8_t* g) {
  return simd::DefaultOps::MatchEmpty(g); }
#endif  // MEMAGG_HASH_WIDGET_H_
