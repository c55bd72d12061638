// The engine-wide fixed-width group-key representation.
//
// Every hash map, tree, sorter, and aggregation operator in this repo
// traffics in one 64-bit key type. That is not an accident but the load-
// bearing contract that keeps the paper's six-dimensional comparison fair:
// all operator families get the same cheap hashing, radix passes, and node
// layouts because the key is always a fixed-width integer. Multi-column and
// string group-bys do not widen this type — they are packed into it by the
// KeyCodec layer (data/key_codec.h), which bias-encodes each column into a
// bit field (order-preserving when everything fits) or falls back to dense
// dictionary codes for wide composites.
//
// The alias exists so the contract is visible in signatures: a parameter or
// member spelled `EncodedKey` is a codec-produced (or synthetic-benchmark)
// group key, not an arbitrary integer. astlint's `raw-key-type` rule
// (tools/astlint/) enforces the vocabulary: `uint64_t key` declarations in
// the operator/container layers are flagged.

#ifndef MEMAGG_UTIL_ENCODED_KEY_H_
#define MEMAGG_UTIL_ENCODED_KEY_H_

#include <cstdint>

namespace memagg {

/// A group key in its engine representation: a packed, fixed-width 64-bit
/// encoding of one or more key columns (data/key_codec.h), or a raw
/// synthetic key in the paper benchmarks. Numeric order equals the
/// lexicographic multi-column order whenever the producing codec reports
/// order_preserving().
using EncodedKey = uint64_t;

/// Width of the engine key representation. Schemas that pack wider than
/// this go through the dictionary-code fallback (DictKeyCodec).
inline constexpr int kEncodedKeyBits = 64;

}  // namespace memagg

#endif  // MEMAGG_UTIL_ENCODED_KEY_H_
