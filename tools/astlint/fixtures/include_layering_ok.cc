#ifndef MEMAGG_CORE_FINE_H_
#define MEMAGG_CORE_FINE_H_
#include "hash/bad_map.h"
#endif  // MEMAGG_CORE_FINE_H_
