#ifndef MEMAGG_HASH_BAD_MAP_H_
#define MEMAGG_HASH_BAD_MAP_H_
#include "util/bits.h"
#include "core/operator.h"
#endif  // MEMAGG_HASH_BAD_MAP_H_
