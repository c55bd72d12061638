#ifndef MEMAGG_CORE_CONCEPTS_H_
#define MEMAGG_CORE_CONCEPTS_H_
template <typename M, typename V>
concept Probe = true;
template <typename V>
struct ProbeVisitor {};
#endif  // MEMAGG_CORE_CONCEPTS_H_
