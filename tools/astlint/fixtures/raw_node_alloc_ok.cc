#ifndef MEMAGG_HASH_WIDGET_H_
#define MEMAGG_HASH_WIDGET_H_
struct W {
  W(const W&) = delete;
  W& operator=(const W&) = delete;
  void f(void* mem) { ::new (mem) Node(); }
  void g() { auto p = std::make_unique<Node>(); new_count_++; }
};
#endif  // MEMAGG_HASH_WIDGET_H_
