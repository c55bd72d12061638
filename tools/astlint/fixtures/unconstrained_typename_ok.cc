#ifndef MEMAGG_CORE_WIDGET_H_
#define MEMAGG_CORE_WIDGET_H_
template <GroupMap Map>
class A { Map m_; };
template <int kWays>
class B {};
template <typename T>
concept Widgety = requires(T t) { t.Spin(); };
template <template <typename> class MapT, AggregatePolicy Agg,
          Sorter S = IntrosortSorter>
class C {};
template <>
class B<2> {};
#endif  // MEMAGG_CORE_WIDGET_H_
