#ifndef MEMAGG_HASH_WIDGET_H_
#define MEMAGG_HASH_WIDGET_H_
template <typename Value>
class Widget { Value v_; };
#endif  // MEMAGG_HASH_WIDGET_H_
