#include "core/table_exec.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/advisor.h"
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

std::vector<uint64_t> FilterRows(const Table& table, const TableQuery& query) {
  const std::vector<uint64_t>& values =
      table.ColumnNamed(query.filter_column).u64();
  std::vector<uint64_t> rows;
  rows.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i] <= query.filter_max) rows.push_back(i);
  }
  return rows;
}

/// Overwrites `out` with the selected rows of one measure column. Every
/// gather of a query has the same length, so the buffer is allocated (and
/// its pages faulted in) once.
void GatherRows(const std::vector<uint64_t>& column,
                const std::vector<uint64_t>& rows, std::vector<uint64_t>& out) {
  out.resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) out[i] = column[rows[i]];
}

std::string ResolveLabel(const std::string& label, const TableQuery& query,
                         int key_width_bits, const ExecutionContext& exec) {
  if (label != "auto") return label;
  WorkloadProfile profile;
  profile.output = OutputFormat::kVector;
  profile.category = QueryCategory(query);
  profile.has_range_condition = query.has_key_range;
  profile.num_threads = exec.num_threads;
  profile.key_width_bits = key_width_bits;
  return RecommendAlgorithm(profile);
}

std::string DefaultName(const AggregateSpec& spec) {
  if (!spec.output_name.empty()) return spec.output_name;
  return AggregateFunctionName(spec.function) + "(" + spec.column + ")";
}

/// Runs every aggregate over the shared encoded key column into `result`,
/// aligns the per-aggregate runs and emits canonical group order.
template <TableKeyCodec Codec>
void RunAggregates(const Table& table, const TableQuery& query,
                   const Codec& codec, const std::vector<EncodedKey>& keys,
                   const std::vector<uint64_t>* rows, size_t max_groups,
                   const std::string& label, const ExecutionContext& exec,
                   TableQueryResult& result) {
  result.label = label;
  result.key_width_bits = codec.width_bits();
  result.order_preserving = codec.order_preserving();
  result.rows_scanned = keys.size();

  // Size every operator to the most groups the query can produce: the
  // codec's bound, capped at the rows fed. A query with few groups then
  // builds and scans a table that fits in cache, not one sized to its rows.
  // The bound is proven, unlike a sampled estimate, which can undershoot
  // and leave a fixed bucket array too small for good.
  const size_t expected = std::min(keys.size(), max_groups);

  // A filtered query gathers each measure column through the selected rows
  // into one reused buffer; an unfiltered query reads the column in place.
  std::vector<uint64_t> gathered;
  std::vector<EncodedKey> group_keys;
  for (size_t a = 0; a < query.aggregates.size(); ++a) {
    const AggregateSpec& spec = query.aggregates[a];
    const uint64_t* values = nullptr;
    if (NeedsValueColumn(spec.function)) {
      const std::vector<uint64_t>& column =
          table.ColumnNamed(spec.column).u64();
      if (rows == nullptr) {
        values = column.data();
      } else {
        PhaseTimer gather(&result.stats, StatPhase::kGather);
        GatherRows(column, *rows, gathered);
        values = gathered.data();
      }
    }
    VectorQueryExecution run =
        ExecuteVectorQuery(label, spec.function, keys.data(), values,
                           keys.size(), expected, exec);
    result.stats.Merge(run.stats);
    result.aggregate_names.push_back(DefaultName(spec));

    // Every run sees the same key column, so sorted by key the runs list
    // the same groups in the same order; any drift is an operator bug.
    PhaseTimer align(&result.stats, StatPhase::kAssemble);
    VectorResult& groups = run.result;
    if (!std::ranges::is_sorted(groups, {}, &GroupResult::key)) {
      std::ranges::sort(groups, {}, &GroupResult::key);
    }
    if (a == 0) {
      group_keys.resize(groups.size());
      std::ranges::transform(groups, group_keys.begin(), &GroupResult::key);
      MEMAGG_CHECK(std::ranges::adjacent_find(group_keys) == group_keys.end() &&
                   "operator emitted a duplicate group key");
    }
    MEMAGG_CHECK(
        std::ranges::equal(groups, group_keys, {}, &GroupResult::key) &&
        "aggregate runs disagree on the group set");
    std::vector<double> column(groups.size());
    std::ranges::transform(groups, column.begin(), &GroupResult::value);
    result.aggregate_columns.push_back(std::move(column));
  }

  // Canonical output order. An order-preserving codec makes encoded order
  // the natural multi-column order, so the key-sorted runs are already in
  // it; otherwise (DictKeyCodec, unsorted dictionaries) sort by the decoded
  // tuples — distinct keys decode to distinct tuples, so the order is total.
  PhaseTimer assemble(&result.stats, StatPhase::kAssemble);
  std::vector<DecodedKey> decoded = DecodeKeyColumn(codec, group_keys);
  if (codec.order_preserving()) {
    result.group_keys = std::move(decoded);
    return;
  }
  std::vector<size_t> order(decoded.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&decoded](size_t a, size_t b) {
    return std::lexicographical_compare(decoded[a].begin(), decoded[a].end(),
                                        decoded[b].begin(), decoded[b].end());
  });
  result.group_keys.reserve(order.size());
  for (const size_t g : order) {
    result.group_keys.push_back(std::move(decoded[g]));
  }
  for (std::vector<double>& column : result.aggregate_columns) {
    std::vector<double> sorted_column(order.size());
    for (size_t g = 0; g < order.size(); ++g) {
      sorted_column[g] = column[order[g]];
    }
    column = std::move(sorted_column);
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

  std::vector<uint64_t> rows_storage;
  const std::vector<uint64_t>* rows = nullptr;
  if (query.has_filter) {
    rows_storage = FilterRows(table, query);
    rows = &rows_storage;
  }

  if (auto packed = PackedKeyCodec::TryBuild(table, query.group_by)) {
    std::vector<EncodedKey> keys =
        rows == nullptr ? packed->EncodeAll() : packed->EncodeRows(*rows);
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
            kept_rows.push_back(rows == nullptr ? i : (*rows)[i]);
            kept_keys.push_back(keys[i]);
          }
        }
      }
      rows_storage = std::move(kept_rows);
      rows = &rows_storage;
      keys = std::move(kept_keys);
    }
    select.Stop();
    RunAggregates(table, query, *packed, keys, rows, packed->max_groups(),
                  ResolveLabel(label, query, packed->width_bits(), exec),
                  exec, result);
    return result;
  }

  // Wide composite: dictionary fallback. Its code space is dense and
  // unordered, so a key-range condition cannot map to an encoded range.
  MEMAGG_CHECK(!query.has_key_range &&
               "range conditions need an order-preserving key codec");
  const DictKeyCodec codec = DictKeyCodec::Build(table, query.group_by, rows);
  select.Stop();
  RunAggregates(table, query, codec, codec.encoded(), rows,
                codec.num_distinct(),
                ResolveLabel(label, query, codec.width_bits(), exec), exec,
                result);
  return result;
}

}  // namespace

FunctionCategory QueryCategory(const TableQuery& query) {
  FunctionCategory category = FunctionCategory::kDistributive;
  for (const AggregateSpec& spec : query.aggregates) {
    const FunctionCategory c = CategoryOf(spec.function);
    if (c == FunctionCategory::kHolistic) return FunctionCategory::kHolistic;
    if (c == FunctionCategory::kAlgebraic) category = c;
  }
  return category;
}

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
