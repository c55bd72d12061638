#ifndef MEMAGG_CORE_WIDGET_H_
#define MEMAGG_CORE_WIDGET_H_
void Visit(EncodedKey key, uint64_t value);
uint64_t key_count = 0;
void f(const std::vector<uint64_t>& keys);
uint64_t value = 0;
#endif  // MEMAGG_CORE_WIDGET_H_
