#include "data/key_codec.h"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace memagg {
namespace {

/// Two's-complement bit pattern of an int64_t, biased so numeric order is
/// preserved under unsigned comparison (flip the sign bit).
uint64_t OrderedBits(int64_t value) {
  return static_cast<uint64_t>(value) ^ (1ULL << 63);
}

int WidthForRange(uint64_t range) {
  // bit_width(0) == 0; every field occupies at least one bit so decode can
  // always split the key deterministically.
  return std::max(1, static_cast<int>(std::bit_width(range)));
}

}  // namespace

std::string KeyFieldValue::ToString() const {
  switch (type) {
    case ColumnType::kU64:
      return std::to_string(u64);
    case ColumnType::kI64:
      return std::to_string(i64);
    case ColumnType::kString:
      return std::string(text);
    case ColumnType::kF64:
      break;  // Unreachable: PlanKeyFields rejects f64 key columns.
  }
  MEMAGG_CHECK(false);
  return "";
}

bool operator==(const KeyFieldValue& a, const KeyFieldValue& b) {
  if (a.type != b.type) return false;
  switch (a.type) {
    case ColumnType::kU64:
      return a.u64 == b.u64;
    case ColumnType::kI64:
      return a.i64 == b.i64;
    case ColumnType::kString:
      return a.text == b.text;
    case ColumnType::kF64:
      break;
  }
  MEMAGG_CHECK(false);
  return false;
}

bool operator<(const KeyFieldValue& a, const KeyFieldValue& b) {
  MEMAGG_CHECK(a.type == b.type && "comparing key fields of different types");
  switch (a.type) {
    case ColumnType::kU64:
      return a.u64 < b.u64;
    case ColumnType::kI64:
      return a.i64 < b.i64;
    case ColumnType::kString:
      return a.text < b.text;
    case ColumnType::kF64:
      break;
  }
  MEMAGG_CHECK(false);
  return false;
}

std::pair<std::vector<KeyFieldPlan>, int> PlanKeyFields(
    const Table& table, const std::vector<std::string>& key_columns) {
  MEMAGG_CHECK(!key_columns.empty() &&
               "a group-by key needs at least one column");
  MEMAGG_CHECK(table.num_rows() > 0 &&
               "cannot plan key fields over an empty table");
  std::vector<KeyFieldPlan> plans;
  plans.reserve(key_columns.size());
  int total_bits = 0;
  for (const std::string& name : key_columns) {
    KeyFieldPlan plan;
    plan.column = table.ColumnIndex(name);
    const Column& column = table.ColumnAt(plan.column);
    plan.type = column.type();
    switch (column.type()) {
      case ColumnType::kU64: {
        const auto& values = column.u64();
        const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
        plan.bias = *lo;
        plan.bits = WidthForRange(*hi - *lo);
        break;
      }
      case ColumnType::kI64: {
        const auto& values = column.i64();
        const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
        // Bias in the order-preserving unsigned image so subtraction never
        // wraps across the sign boundary.
        plan.bias = OrderedBits(*lo);
        plan.bits = WidthForRange(OrderedBits(*hi) - OrderedBits(*lo));
        break;
      }
      case ColumnType::kString: {
        plan.bias = 0;
        plan.bits = WidthForRange(
            column.dict().size() == 0 ? 0 : column.dict().size() - 1);
        break;
      }
      case ColumnType::kF64:
        std::fprintf(stderr, "f64 column '%s' cannot be a group-by key\n",
                     name.c_str());
        MEMAGG_CHECK(false);
    }
    total_bits += plan.bits;
    plans.push_back(plan);
  }
  return {std::move(plans), total_bits};
}

// --- PackedKeyCodec ----------------------------------------------------------

PackedKeyCodec::PackedKeyCodec(const Table& table,
                               std::vector<KeyFieldPlan> plans, int width_bits)
    : table_(&table), plans_(std::move(plans)), width_bits_(width_bits) {
  order_preserving_ = true;
  for (const KeyFieldPlan& plan : plans_) {
    if (plan.type == ColumnType::kString &&
        !table.ColumnAt(plan.column).dict().sorted()) {
      order_preserving_ = false;
    }
  }
}

std::optional<PackedKeyCodec> PackedKeyCodec::TryBuild(
    const Table& table, const std::vector<std::string>& key_columns) {
  auto [plans, total_bits] = PlanKeyFields(table, key_columns);
  // Strictly below the engine width: a full 64-bit pack could produce
  // ~0ULL, which the open-addressing maps reserve as their empty-slot
  // sentinel (hash/hash_fn.h). Schemas needing 64+ bits take the dictionary
  // fallback, whose dense codes stay far below the sentinel.
  if (total_bits >= kEncodedKeyBits) return std::nullopt;
  return PackedKeyCodec(table, std::move(plans), total_bits);
}

size_t PackedKeyCodec::max_groups() const {
  return static_cast<size_t>(1ULL << width_bits_);  // < 64 bits (TryBuild).
}

// Column at a time: one pass per field shifts every key left by the field's
// width and ors in its value, so the column lookup and the type switch run
// once per field rather than once per field per row.
template <typename RowOf>
std::vector<EncodedKey> PackedKeyCodec::Encode(size_t n, RowOf row_of) const {
  std::vector<EncodedKey> keys(n, 0);
  for (const KeyFieldPlan& plan : plans_) {
    const Column& column = table_->ColumnAt(plan.column);
    const auto pack = [&](auto raw_of_row) {
      for (size_t i = 0; i < n; ++i) {
        EncodedKey& key = keys[i];
        key = (key << plan.bits) | raw_of_row(row_of(i));
      }
    };
    switch (plan.type) {
      case ColumnType::kU64: {
        const uint64_t* values = column.u64().data();
        pack([&](size_t row) { return values[row] - plan.bias; });
        break;
      }
      case ColumnType::kI64: {
        const int64_t* values = column.i64().data();
        pack([&](size_t row) { return OrderedBits(values[row]) - plan.bias; });
        break;
      }
      case ColumnType::kString: {
        const uint32_t* codes = column.codes().data();
        pack([&](size_t row) { return EncodedKey{codes[row]}; });
        break;
      }
      case ColumnType::kF64:
        MEMAGG_CHECK(false);
    }
  }
  return keys;
}

std::vector<EncodedKey> PackedKeyCodec::EncodeAll() const {
  return Encode(table_->num_rows(), [](size_t i) { return i; });
}

std::vector<EncodedKey> PackedKeyCodec::EncodeRows(
    const std::vector<uint64_t>& row_indices) const {
  for (const uint64_t row : row_indices) {
    MEMAGG_CHECK(row < table_->num_rows());
  }
  return Encode(row_indices.size(),
                [&row_indices](size_t i) { return row_indices[i]; });
}

DecodedKey PackedKeyCodec::Decode(EncodedKey key) const {
  DecodedKey decoded(plans_.size());
  int shift = width_bits_;
  for (size_t i = 0; i < plans_.size(); ++i) {
    const KeyFieldPlan& plan = plans_[i];
    shift -= plan.bits;
    const uint64_t mask =
        plan.bits == 64 ? ~0ULL : (1ULL << plan.bits) - 1;
    const uint64_t raw = (key >> shift) & mask;
    KeyFieldValue& value = decoded[i];
    value.type = plan.type;
    switch (plan.type) {
      case ColumnType::kU64:
        value.u64 = raw + plan.bias;
        break;
      case ColumnType::kI64:
        value.i64 = static_cast<int64_t>((raw + plan.bias) ^ (1ULL << 63));
        break;
      case ColumnType::kString:
        value.text = table_->ColumnAt(plan.column).dict().String(
            static_cast<uint32_t>(raw));
        break;
      case ColumnType::kF64:
        MEMAGG_CHECK(false);
    }
  }
  return decoded;
}

std::optional<std::pair<EncodedKey, EncodedKey>>
PackedKeyCodec::LeadingFieldRange(const KeyFieldValue& lo,
                                  const KeyFieldValue& hi) const {
  MEMAGG_CHECK(order_preserving_ &&
               "range conditions need an order-preserving key codec");
  const KeyFieldPlan& plan = plans_.front();
  MEMAGG_CHECK(lo.type == plan.type && hi.type == plan.type &&
               "range bound type does not match the leading key column");
  const uint64_t field_max = (1ULL << plan.bits) - 1;  // bits <= 63 (TryBuild).
  uint64_t raw_lo = 0;
  uint64_t raw_hi = 0;
  switch (plan.type) {
    case ColumnType::kU64:
    case ColumnType::kI64: {
      // Work in the biased unsigned image so both integer types clamp the
      // same way against the field's observed domain [bias, bias+field_max].
      const uint64_t image_lo = plan.type == ColumnType::kU64
                                    ? lo.u64
                                    : OrderedBits(lo.i64);
      const uint64_t image_hi = plan.type == ColumnType::kU64
                                    ? hi.u64
                                    : OrderedBits(hi.i64);
      if (image_lo > image_hi) return std::nullopt;
      if (image_hi < plan.bias) return std::nullopt;
      raw_lo = image_lo <= plan.bias ? 0 : image_lo - plan.bias;
      if (raw_lo > field_max) return std::nullopt;
      raw_hi = std::min(image_hi - plan.bias, field_max);
      break;
    }
    case ColumnType::kString: {
      const StringDict& dict = table_->ColumnAt(plan.column).dict();
      const uint32_t first = dict.LowerBound(lo.text);
      const uint32_t past = dict.UpperBound(hi.text);
      if (first >= past) return std::nullopt;
      raw_lo = first;
      raw_hi = past - 1;
      break;
    }
    case ColumnType::kF64:
      MEMAGG_CHECK(false);
  }
  const int rest_bits = width_bits_ - plan.bits;
  const uint64_t rest_mask = rest_bits == 0 ? 0 : (1ULL << rest_bits) - 1;
  return std::make_pair(static_cast<EncodedKey>(raw_lo) << rest_bits,
                        (static_cast<EncodedKey>(raw_hi) << rest_bits) |
                            rest_mask);
}

// --- DictKeyCodec ------------------------------------------------------------

DictKeyCodec::DictKeyCodec(const Table& table, std::vector<KeyFieldPlan> plans,
                           int composite_bits)
    : table_(&table),
      plans_(std::move(plans)),
      composite_bits_(composite_bits) {}

DictKeyCodec DictKeyCodec::Build(const Table& table,
                                 const std::vector<std::string>& key_columns,
                                 const std::vector<uint64_t>* row_indices) {
  auto [plans, total_bits] = PlanKeyFields(table, key_columns);
  MEMAGG_CHECK(total_bits <= 2 * kEncodedKeyBits &&
               "group-by key schema packs wider than 128 bits");
  DictKeyCodec codec(table, std::move(plans), total_bits);
  codec.EncodeRowsInternal(row_indices);
  return codec;
}

int DictKeyCodec::width_bits() const {
  return WidthForRange(composites_.empty() ? 0 : composites_.size() - 1);
}

void DictKeyCodec::EncodeRowsInternal(
    const std::vector<uint64_t>* row_indices) {
  const size_t n =
      row_indices == nullptr ? table_->num_rows() : row_indices->size();
  encoded_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t row = row_indices == nullptr ? i : (*row_indices)[i];
    unsigned __int128 composite = 0;
    for (const KeyFieldPlan& plan : plans_) {
      uint64_t raw = 0;
      const Column& column = table_->ColumnAt(plan.column);
      switch (plan.type) {
        case ColumnType::kU64:
          raw = column.u64()[row] - plan.bias;
          break;
        case ColumnType::kI64:
          raw = OrderedBits(column.i64()[row]) - plan.bias;
          break;
        case ColumnType::kString:
          raw = column.codes()[row];
          break;
        case ColumnType::kF64:
          MEMAGG_CHECK(false);
      }
      composite = (composite << plan.bits) | raw;
    }
    auto [it, inserted] =
        code_of_.try_emplace(composite, static_cast<uint32_t>(
                                            composites_.size()));
    if (inserted) composites_.push_back(composite);
    encoded_[i] = it->second;
  }
}

DecodedKey DictKeyCodec::Decode(EncodedKey key) const {
  MEMAGG_CHECK(key < composites_.size() &&
               "EncodedKey is not a code this DictKeyCodec produced");
  unsigned __int128 composite = composites_[static_cast<size_t>(key)];
  DecodedKey decoded(plans_.size());
  int shift = composite_bits_;
  for (size_t i = 0; i < plans_.size(); ++i) {
    const KeyFieldPlan& plan = plans_[i];
    shift -= plan.bits;
    const unsigned __int128 mask =
        (static_cast<unsigned __int128>(1) << plan.bits) - 1;
    const uint64_t raw = static_cast<uint64_t>((composite >> shift) & mask);
    KeyFieldValue& value = decoded[i];
    value.type = plan.type;
    switch (plan.type) {
      case ColumnType::kU64:
        value.u64 = raw + plan.bias;
        break;
      case ColumnType::kI64:
        value.i64 = static_cast<int64_t>((raw + plan.bias) ^ (1ULL << 63));
        break;
      case ColumnType::kString:
        value.text = table_->ColumnAt(plan.column).dict().String(
            static_cast<uint32_t>(raw));
        break;
      case ColumnType::kF64:
        MEMAGG_CHECK(false);
    }
  }
  return decoded;
}

}  // namespace memagg
