// Pins data/key_codec.h's public types to their concept row
// (core/concepts.h). Compiling this TU is the test; it has no runtime code.

#include "core/concepts.h"
#include "data/key_codec.h"
#include "data/table.h"

namespace memagg {

static_assert(TableKeyCodec<PackedKeyCodec>);
static_assert(TableKeyCodec<DictKeyCodec>);

// A Table is not a codec.
static_assert(!TableKeyCodec<Table>);

}  // namespace memagg
