#include "core/table_exec.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/advisor.h"
#include "core/composite_aggregate.h"
#include "core/engine.h"

namespace memagg {
namespace {

void ValidateQuery(const Table& table, const TableQuery& query) {
  MEMAGG_CHECK(!query.group_by.empty() &&
               "a TableQuery needs at least one group-by column");
  MEMAGG_CHECK(!query.aggregates.empty() &&
               "a TableQuery needs at least one aggregate");
  for (const AggregateSpec& spec : query.aggregates) {
    if (!NeedsValueColumn(spec.function)) continue;
    MEMAGG_CHECK(table.ColumnNamed(spec.column).type() == ColumnType::kU64 &&
                 "aggregate measure columns must be u64 fixed-point");
  }
  if (query.has_filter) {
    MEMAGG_CHECK(table.ColumnNamed(query.filter_column).type() ==
                     ColumnType::kU64 &&
                 "filter columns must be u64");
  }
}

/// The selection vector: the ids of the rows the query keeps, in row order.
std::vector<uint64_t> SelectRows(const Table& table, const TableQuery& query) {
  std::vector<uint64_t> rows;
  if (!query.has_filter) {
    rows.resize(table.num_rows());
    std::iota(rows.begin(), rows.end(), uint64_t{0});
    return rows;
  }
  const std::vector<uint64_t>& values =
      table.ColumnNamed(query.filter_column).u64();
  rows.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i] <= query.filter_max) rows.push_back(i);
  }
  return rows;
}

/// `label`, or for "auto" the advisor's pick from the query shape and the
/// codec's key width.
std::string ResolveLabel(const std::string& label, const TableQuery& query,
                         const CompositeAggregate& composite,
                         int key_width_bits, const ExecutionContext& exec) {
  if (label != "auto") return label;
  WorkloadProfile profile;
  profile.output = OutputFormat::kVector;
  profile.category = composite.category();
  profile.has_range_condition = query.has_key_range;
  profile.num_threads = exec.num_threads;
  profile.key_width_bits = key_width_bits;
  return RecommendAlgorithm(profile);
}

std::string DefaultName(const AggregateSpec& spec) {
  if (!spec.output_name.empty()) return spec.output_name;
  return AggregateFunctionName(spec.function) + "(" + spec.column + ")";
}

/// Runs every aggregate of the query as one composite over the shared
/// encoded key column, reading measures through the selection vector
/// `rows`, and emits canonical group order into `result`.
template <TableKeyCodec Codec>
void RunAggregates(const Table& table, const TableQuery& query,
                   const Codec& codec, const std::vector<EncodedKey>& keys,
                   const std::vector<uint64_t>& rows, size_t max_groups,
                   const std::string& label, const ExecutionContext& exec,
                   TableQueryResult& result) {
  result.key_width_bits = codec.width_bits();
  result.order_preserving = codec.order_preserving();
  result.rows_scanned = keys.size();

  std::vector<CompositeMember> members;
  for (const AggregateSpec& spec : query.aggregates) {
    const uint64_t* column = nullptr;
    if (NeedsValueColumn(spec.function)) {
      column = table.ColumnNamed(spec.column).u64().data();
    }
    members.push_back({spec.function, column});
    result.aggregate_names.push_back(DefaultName(spec));
  }
  CompositeOutput output;
  const CompositeAggregate composite(std::move(members), &output);
  result.label =
      ResolveLabel(label, query, composite, codec.width_bits(), exec);

  // Size the operator to the most groups the query can produce: the codec's
  // bound, capped at the rows fed. A query with few groups then builds and
  // scans a table that fits in cache, not one sized to its rows. The bound
  // is proven, unlike a sampled estimate, which can undershoot and leave a
  // fixed bucket array too small for good.
  VectorQueryExecution run = ExecuteCompositeQuery(
      result.label, composite, keys.data(), rows.data(), keys.size(),
      std::min(keys.size(), max_groups), exec);
  result.stats.Merge(run.stats);

  // Sorted by encoded key, the groups are in canonical order when the codec
  // preserves order; a key listed twice is an operator bug.
  PhaseTimer assemble(&result.stats, StatPhase::kAssemble);
  VectorResult& groups = run.result;
  if (!std::ranges::is_sorted(groups, {}, &GroupResult::key)) {
    std::ranges::sort(groups, {}, &GroupResult::key);
  }
  MEMAGG_CHECK(std::ranges::adjacent_find(groups, {}, &GroupResult::key) ==
                   groups.end() &&
               "operator emitted a duplicate group key");
  std::vector<EncodedKey> group_keys(groups.size());
  std::ranges::transform(groups, group_keys.begin(), &GroupResult::key);
  // Each group's value is its row in the composite's output.
  std::vector<size_t> output_rows(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    output_rows[g] = static_cast<size_t>(groups[g].value);
    MEMAGG_CHECK(output_rows[g] < output.num_groups() &&
                 "operator emitted a group the composite did not finalize");
  }

  // Canonical output order. An order-preserving codec makes encoded order
  // the natural multi-column order, so the key-sorted groups are already in
  // it; otherwise (DictKeyCodec, unsorted dictionaries) sort by the decoded
  // tuples — distinct keys decode to distinct tuples, so the order is total.
  std::vector<DecodedKey> decoded = DecodeKeyColumn(codec, group_keys);
  std::vector<size_t> order(decoded.size());
  std::iota(order.begin(), order.end(), size_t{0});
  if (!codec.order_preserving()) {
    std::sort(order.begin(), order.end(), [&decoded](size_t a, size_t b) {
      return std::lexicographical_compare(decoded[a].begin(), decoded[a].end(),
                                          decoded[b].begin(), decoded[b].end());
    });
  }
  result.group_keys.reserve(order.size());
  for (const size_t g : order) {
    result.group_keys.push_back(std::move(decoded[g]));
  }
  result.aggregate_columns.assign(query.aggregates.size(),
                                  std::vector<double>(order.size()));
  for (size_t a = 0; a < query.aggregates.size(); ++a) {
    for (size_t i = 0; i < order.size(); ++i) {
      result.aggregate_columns[a][i] = output.Value(output_rows[order[i]], a);
    }
  }
}

/// The body of ExecuteTableQuery; everything it allocates is released
/// before the caller stops the wall clock.
TableQueryResult RunTableQuery(const Table& table, const TableQuery& query,
                               const std::string& label,
                               const ExecutionContext& exec) {
  ValidateQuery(table, query);
  TableQueryResult result;
  PhaseTimer select(&result.stats, StatPhase::kSelect);
  std::vector<uint64_t> rows = SelectRows(table, query);

  if (auto packed = PackedKeyCodec::TryBuild(table, query.group_by)) {
    std::vector<EncodedKey> keys =
        query.has_filter ? packed->EncodeRows(rows) : packed->EncodeAll();
    if (query.has_key_range) {
      const auto range =
          packed->LeadingFieldRange(query.key_range_lo, query.key_range_hi);
      std::vector<uint64_t> kept_rows;
      std::vector<EncodedKey> kept_keys;
      if (range.has_value()) {
        kept_rows.reserve(keys.size());
        kept_keys.reserve(keys.size());
        for (size_t i = 0; i < keys.size(); ++i) {
          if (keys[i] >= range->first && keys[i] <= range->second) {
            kept_rows.push_back(rows[i]);
            kept_keys.push_back(keys[i]);
          }
        }
      }
      rows = std::move(kept_rows);
      keys = std::move(kept_keys);
    }
    select.Stop();
    RunAggregates(table, query, *packed, keys, rows, packed->max_groups(),
                  label, exec, result);
    return result;
  }

  // Wide composite: dictionary fallback. Its code space is dense and
  // unordered, so a key-range condition cannot map to an encoded range.
  MEMAGG_CHECK(!query.has_key_range &&
               "range conditions need an order-preserving key codec");
  const DictKeyCodec codec = DictKeyCodec::Build(
      table, query.group_by, query.has_filter ? &rows : nullptr);
  select.Stop();
  RunAggregates(table, query, codec, codec.encoded(), rows,
                codec.num_distinct(), label, exec, result);
  return result;
}

}  // namespace

TableQueryResult ExecuteTableQuery(const Table& table, const TableQuery& query,
                                   const std::string& label,
                                   ExecutionContext exec) {
  CycleTimer wall;
  wall.Start();
  TableQueryResult result = RunTableQuery(table, query, label, exec);
  wall.Stop();
  result.stats.RecordWall(wall.ElapsedCycles(), wall.ElapsedMillis());
  return result;
}

}  // namespace memagg
