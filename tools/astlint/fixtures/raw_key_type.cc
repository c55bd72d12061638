#ifndef MEMAGG_CORE_WIDGET_H_
#define MEMAGG_CORE_WIDGET_H_
void Visit(uint64_t key, uint64_t value);
#endif  // MEMAGG_CORE_WIDGET_H_
