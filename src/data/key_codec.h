// KeyCodec: multi-column group keys packed into the engine's fixed-width
// EncodedKey.
//
// The operator families (hash, tree, sort, adaptive) all run over
// EncodedKey (util/encoded_key.h) — that fixed width is what keeps their
// probe kernels, radix passes, and node layouts fast. Composite and string
// group-bys therefore go through a codec rather than widening the key type:
//
//   PackedKeyCodec  bias-encodes each key column into a bit field
//                   (value - min for integers, dictionary code for
//                   strings) and concatenates the fields MSB-first. Fits
//                   whenever the per-column ranges pack into 63 bits (the
//                   top bit stays clear so a packed key can never collide
//                   with the open-addressing empty/deleted sentinels).
//                   Order-preserving (numeric key order == lexicographic
//                   column order) when every string field's dictionary is
//                   sorted — so tree/sort operators emit natural multi-
//                   column order and leading-column ranges map to key
//                   ranges.
//
//   DictKeyCodec    fallback for wide schemas (packed width 64..128 bits):
//                   packs into a 128-bit composite, then interns distinct
//                   composites into dense 64-bit codes — the same
//                   dictionary trick string columns use, applied to the
//                   whole key. Encoding costs one hash probe per row; the
//                   code space is dense in first-appearance order, so the
//                   codec is NOT order-preserving and range conditions on
//                   the key are rejected upstream.
//
// Both codecs decode an EncodedKey back to the original column values
// (integer, or string via the column's dictionary), which is how
// TableQuery results surface real multi-column groups. The concept
// contract (TableKeyCodec, core/concepts.h) is what the execution layer
// instantiates over.
//
// Schemas wider than 128 bits are rejected loudly; nothing in the TPC-H
// workloads needs them and silently hashing would break decode.

#ifndef MEMAGG_DATA_KEY_CODEC_H_
#define MEMAGG_DATA_KEY_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "data/table.h"
#include "util/encoded_key.h"
#include "util/macros.h"

namespace memagg {

/// One decoded key column value. `type` selects which member is meaningful;
/// `text` views into the source column's StringDict and lives as long as
/// the Table the codec was built over.
struct KeyFieldValue {
  ColumnType type = ColumnType::kU64;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  std::string_view text{};

  /// Canonical textual form (used by golden files): the integer value, or
  /// the string itself.
  std::string ToString() const;

  friend bool operator==(const KeyFieldValue& a, const KeyFieldValue& b);
  /// Lexicographic-within-field order (strings by text, integers by value).
  friend bool operator<(const KeyFieldValue& a, const KeyFieldValue& b);
};

/// One decoded multi-column group key, in key-schema column order.
using DecodedKey = std::vector<KeyFieldValue>;

/// Per-field encoding plan shared by both codecs: which column, how many
/// bits, and the bias subtracted before packing.
struct KeyFieldPlan {
  size_t column = 0;       ///< Column index in the source table.
  ColumnType type = ColumnType::kU64;
  int bits = 0;            ///< Encoded width of this field.
  uint64_t bias = 0;       ///< Subtracted before packing (two's-complement
                           ///< bit pattern of the minimum for kI64).
};

/// Computes the field plans for `key_columns` by scanning the table's
/// column ranges: integers get bias = min and width = bit_width(max - min),
/// strings get width = bit_width(dict size - 1). f64 key columns are
/// rejected loudly (no total order worth packing under NaN). Returns the
/// plans and the total packed width in bits.
std::pair<std::vector<KeyFieldPlan>, int> PlanKeyFields(
    const Table& table, const std::vector<std::string>& key_columns);

/// Order-preserving packed codec for schemas whose plan fits in 64 bits.
class PackedKeyCodec {
 public:
  /// Builds the codec, or nullopt when the packed width needs 64 or more
  /// bits (use DictKeyCodec). The codec keeps a pointer to `table`; it must
  /// outlive the codec.
  static std::optional<PackedKeyCodec> TryBuild(
      const Table& table, const std::vector<std::string>& key_columns);

  size_t num_fields() const { return plans_.size(); }
  int width_bits() const { return width_bits_; }

  /// The most distinct keys the codec can produce, 2^width_bits(): a
  /// proven bound on any query's group count over this table.
  size_t max_groups() const;

  /// True when numeric EncodedKey order equals lexicographic column order:
  /// always for integer fields, for string fields iff their dictionary is
  /// sorted.
  bool order_preserving() const { return order_preserving_; }

  /// Encodes every table row (or the given subset of row indices), one
  /// key column at a time.
  std::vector<EncodedKey> EncodeAll() const;
  std::vector<EncodedKey> EncodeRows(
      const std::vector<uint64_t>& row_indices) const;

  /// Inverse of encoding: unpacks `key` into per-column values.
  DecodedKey Decode(EncodedKey key) const;

  /// The inclusive EncodedKey range covering every key whose LEADING field
  /// lies in [lo, hi] (bounds in the field's own domain; they need not be
  /// values present in the column). This is the Q7 range-condition bridge:
  /// because packing is MSB-first, a leading-field range is one contiguous
  /// encoded range — but only on an order-preserving codec; aborts loudly
  /// otherwise. Returns nullopt when the range selects nothing.
  std::optional<std::pair<EncodedKey, EncodedKey>> LeadingFieldRange(
      const KeyFieldValue& lo, const KeyFieldValue& hi) const;

 private:
  PackedKeyCodec(const Table& table, std::vector<KeyFieldPlan> plans,
                 int width_bits);

  /// Packs rows row_of(0) .. row_of(n - 1).
  template <typename RowOf>
  std::vector<EncodedKey> Encode(size_t n, RowOf row_of) const;

  const Table* table_;
  std::vector<KeyFieldPlan> plans_;
  int width_bits_;
  bool order_preserving_;
};

/// Dictionary-code fallback for schemas packing into 65..128 bits: distinct
/// wide composites are interned into dense EncodedKeys (first-appearance
/// order, NOT order-preserving). Unlike PackedKeyCodec this codec is
/// stateful — Build() performs the encode pass so the decode table exists —
/// so construction returns the codec and the encoded column together.
class DictKeyCodec {
 public:
  /// Builds the codec over all rows (or `row_indices` when non-null) and
  /// encodes them in one pass. Aborts loudly when the packed width exceeds
  /// 128 bits. `table` must outlive the codec.
  static DictKeyCodec Build(const Table& table,
                            const std::vector<std::string>& key_columns,
                            const std::vector<uint64_t>* row_indices = nullptr);

  size_t num_fields() const { return plans_.size(); }

  /// Width of the *code* space actually handed to operators (bits needed
  /// for the dense codes), not of the underlying composite.
  int width_bits() const;

  /// Width of the underlying wide composite, for cost models.
  int composite_bits() const { return composite_bits_; }

  bool order_preserving() const { return false; }

  /// The encoded key column produced by Build(), aligned with the encoded
  /// rows (all rows, or the row_indices subset).
  const std::vector<EncodedKey>& encoded() const { return encoded_; }
  std::vector<EncodedKey> TakeEncoded() { return std::move(encoded_); }

  /// Number of distinct composites seen.
  size_t num_distinct() const { return composites_.size(); }

  /// Unpacks the composite behind dense code `key`.
  DecodedKey Decode(EncodedKey key) const;

 private:
  DictKeyCodec(const Table& table, std::vector<KeyFieldPlan> plans,
               int composite_bits);

  void EncodeRowsInternal(const std::vector<uint64_t>* row_indices);

  struct CompositeHash {
    size_t operator()(unsigned __int128 v) const {
      return std::hash<uint64_t>{}(static_cast<uint64_t>(v) ^
                                   (static_cast<uint64_t>(v >> 64) *
                                    0x9e3779b97f4a7c15ULL));
    }
  };

  const Table* table_;
  std::vector<KeyFieldPlan> plans_;
  int composite_bits_;
  std::vector<unsigned __int128> composites_;  ///< code -> composite.
  std::unordered_map<unsigned __int128, uint32_t, CompositeHash> code_of_;
  std::vector<EncodedKey> encoded_;
};

}  // namespace memagg

#endif  // MEMAGG_DATA_KEY_CODEC_H_
