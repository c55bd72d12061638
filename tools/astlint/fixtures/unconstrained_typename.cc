#ifndef MEMAGG_CORE_WIDGET_H_
#define MEMAGG_CORE_WIDGET_H_
template <typename Value>
class Widget { Value v_; };
#endif  // MEMAGG_CORE_WIDGET_H_
