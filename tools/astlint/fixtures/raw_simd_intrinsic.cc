#ifndef MEMAGG_HASH_WIDGET_H_
#define MEMAGG_HASH_WIDGET_H_
uint32_t f(const uint8_t* g) {
  return _mm_movemask_epi8(LoadGroup(g)); }
#endif  // MEMAGG_HASH_WIDGET_H_
