// Typed execution front-end: declarative queries over columnar Tables.
//
// The engine's operator families all consume one fixed-width EncodedKey
// column plus an optional uint64_t measure column (core/engine.h). This
// layer is the bridge from real workload shapes to that surface:
//
//   TableQuery q;
//   q.group_by = {"l_returnflag", "l_linestatus"};
//   q.aggregates = {{AggregateFunction::kSum, "l_quantity", "sum_qty"},
//                   {AggregateFunction::kCount, "", "count_order"}};
//   TableQueryResult r = ExecuteTableQuery(table, q, "Hash_LP");
//
// Execution plan (the StatPhase each step is timed as in brackets):
//   1. [select] the selection vector: the ids of the rows the optional
//      filter (filter_column <= filter_max) keeps, or of every row;
//   2. [select] the group-by columns are packed into EncodedKeys by a
//      KeyCodec, one key column at a time — PackedKeyCodec when the
//      composite fits 63 bits, DictKeyCodec otherwise (data/key_codec.h);
//   3. [select] an optional Q7-style range on the leading key column
//      narrows the rows via the codec's contiguous encoded range
//      (order-preserving codecs only — aborts loudly otherwise);
//   4. one ExecuteCompositeQuery folds every aggregate in one build: a
//      CompositeAggregate (core/composite_aggregate.h) takes the selection
//      vector as its value column and reads each measure by row id, so no
//      measure column is copied (families, threading, and the adaptive
//      operator all work unchanged — they never learn the key was
//      composite or the aggregate several). The operator is sized to the
//      codec's group bound (PackedKeyCodec::max_groups(), 2 to the key
//      width, or DictKeyCodec's exact num_distinct()) capped at the rows
//      fed, instead of to the row count: the bound is proven, so no
//      operator is sized below its groups;
//   5. [assemble] the groups are sorted by encoded key (a key listed twice
//      aborts); with an order-preserving codec that order is the canonical
//      group order, otherwise the groups are sorted by decoded tuple. Keys
//      are decoded back to column values and each group's member values
//      read out of the composite's output.
//
// The result's QueryStats carries those phases, the run's setup, build and
// iterate, and the call's wall time; kUnattributed is what they leave out.
//
// The label may be "auto": the advisor picks it once per query from the
// query shape and the codec's key width (core/advisor.h). A serial label
// runs on one thread whatever the budget (ExecuteVectorQuery's thread
// rule), so the range branch's tree pick is valid at any thread count.
//
// Measure columns must be kU64 — aggregate states stay integer-exact, which
// is what makes golden-file validation byte-stable across every family and
// merge order (see data/lineitem.h).

#ifndef MEMAGG_CORE_TABLE_EXEC_H_
#define MEMAGG_CORE_TABLE_EXEC_H_

#include <string>
#include <vector>

#include "core/aggregate.h"
#include "core/concepts.h"
#include "data/key_codec.h"
#include "data/table.h"
#include "exec/executor.h"
#include "obs/query_stats.h"
#include "util/encoded_key.h"

namespace memagg {

/// One aggregate of a TableQuery: AGG(column) AS output_name.
struct AggregateSpec {
  AggregateFunction function = AggregateFunction::kCount;
  /// Measure column (must be kU64); ignored by COUNT (use "").
  std::string column;
  /// Result column name; defaults to "AGG(column)" when empty.
  std::string output_name;
};

/// A declarative aggregation query over a Table: multi-column GROUP BY,
/// several aggregates, an optional row filter, and an optional Q7-style
/// range over the leading group-by column.
struct TableQuery {
  std::vector<std::string> group_by;
  std::vector<AggregateSpec> aggregates;

  /// Row filter: keep rows with filter_column <= filter_max (the TPC-H Q1
  /// shipdate predicate shape). filter_column must be kU64.
  bool has_filter = false;
  std::string filter_column;
  uint64_t filter_max = 0;

  /// Range condition on the LEADING group-by column (inclusive bounds in
  /// the column's own domain). Requires an order-preserving codec: packed,
  /// with sorted string dictionaries.
  bool has_key_range = false;
  KeyFieldValue key_range_lo;
  KeyFieldValue key_range_hi;
};

/// Result rows in canonical group order (natural multi-column order), with
/// decoded keys and one output column per aggregate.
struct TableQueryResult {
  /// group_keys[g] is the decoded key of output row g, one KeyFieldValue
  /// per group-by column. string_views point into the source Table.
  std::vector<DecodedKey> group_keys;
  std::vector<std::string> aggregate_names;
  /// aggregate_columns[a][g]: value of aggregate a for output row g.
  std::vector<std::vector<double>> aggregate_columns;

  /// The label that actually ran ("auto" resolved).
  std::string label;
  /// Codec facts, surfaced for cost-model studies and the bench harness.
  int key_width_bits = 0;
  bool order_preserving = false;
  /// Rows that survived filtering and were fed to the operators.
  size_t rows_scanned = 0;

  QueryStats stats;
};

/// Decodes an encoded group-key column back into per-column values.
template <TableKeyCodec Codec>
std::vector<DecodedKey> DecodeKeyColumn(const Codec& codec,
                                        const std::vector<EncodedKey>& keys) {
  std::vector<DecodedKey> decoded;
  decoded.reserve(keys.size());
  for (const EncodedKey key : keys) decoded.push_back(codec.Decode(key));
  return decoded;
}

/// Bytes of column storage `query` touches in `table` (group-by, measure,
/// and filter columns) — the query's input working set, for cost models and
/// bench reports.
template <ColumnarTable T>
size_t QueryFootprintBytes(const T& table, const TableQuery& query) {
  size_t bytes = 0;
  for (const std::string& name : query.group_by) {
    bytes += table.ColumnAt(table.ColumnIndex(name)).MemoryBytes();
  }
  for (const AggregateSpec& spec : query.aggregates) {
    if (!NeedsValueColumn(spec.function)) continue;
    bytes += table.ColumnAt(table.ColumnIndex(spec.column)).MemoryBytes();
  }
  if (query.has_filter) {
    bytes += table.ColumnAt(table.ColumnIndex(query.filter_column))
                 .MemoryBytes();
  }
  return bytes;
}

/// Runs `query` end to end through the engine. `label` is any
/// MakeVectorAggregator label, or "auto" for the advisor's pick. Aborts
/// loudly on malformed queries (unknown columns, non-u64 measures, a range
/// condition without an order-preserving codec).
TableQueryResult ExecuteTableQuery(const Table& table, const TableQuery& query,
                                   const std::string& label,
                                   ExecutionContext exec = {});

}  // namespace memagg

#endif  // MEMAGG_CORE_TABLE_EXEC_H_
