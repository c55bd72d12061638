// Tests for the typed execution front-end (core/table_exec.h): composite
// group-bys over every operator family, filters, key ranges, advisor
// routing, and the adaptive operator on composite keys.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/concepts.h"
#include "core/engine.h"
#include "core/table_exec.h"
#include "data/key_codec.h"
#include "data/lineitem.h"
#include "data/table.h"
#include "obs/query_stats.h"

namespace memagg {
namespace {

// The concept pins for the data layer live next to the code they gate.
static_assert(ColumnarTable<Table>);
static_assert(TableKeyCodec<PackedKeyCodec>);
static_assert(TableKeyCodec<DictKeyCodec>);

/// The TPC-H Q1 query shape over the lineitem generator's columns.
TableQuery Q1Query() {
  TableQuery query;
  query.group_by = {"l_returnflag", "l_linestatus"};
  query.aggregates = {{AggregateFunction::kSum, "l_quantity", "sum_qty"},
                      {AggregateFunction::kSum, "l_extendedprice",
                       "sum_base_price"},
                      {AggregateFunction::kSum, "disc_price",
                       "sum_disc_price"},
                      {AggregateFunction::kCount, "", "count_order"}};
  query.has_filter = true;
  query.filter_column = "l_shipdate";
  query.filter_max = kLineitemQ1ShipdateCutoff;
  return query;
}

/// Engine-free Q1 reference straight off the columns.
std::map<std::tuple<std::string, std::string>, std::vector<uint64_t>>
ReferenceQ1(const Table& table) {
  std::map<std::tuple<std::string, std::string>, std::vector<uint64_t>> ref;
  const Column& flag = table.ColumnNamed("l_returnflag");
  const Column& status = table.ColumnNamed("l_linestatus");
  const auto& quantity = table.ColumnNamed("l_quantity").u64();
  const auto& extendedprice = table.ColumnNamed("l_extendedprice").u64();
  const auto& disc_price = table.ColumnNamed("disc_price").u64();
  const auto& shipdate = table.ColumnNamed("l_shipdate").u64();
  for (size_t i = 0; i < table.num_rows(); ++i) {
    if (shipdate[i] > kLineitemQ1ShipdateCutoff) continue;
    auto& sums = ref[{flag.dict().String(flag.codes()[i]),
                      status.dict().String(status.codes()[i])}];
    if (sums.empty()) sums.resize(4);
    sums[0] += quantity[i];
    sums[1] += extendedprice[i];
    sums[2] += disc_price[i];
    sums[3] += 1;
  }
  return ref;
}

void ExpectMatchesReference(const Table& table, const TableQueryResult& result,
                            const std::string& context) {
  const auto ref = ReferenceQ1(table);
  ASSERT_EQ(result.group_keys.size(), ref.size()) << context;
  size_t g = 0;
  // std::map iterates in lexicographic key order == canonical result order.
  for (const auto& [key, sums] : ref) {
    EXPECT_EQ(std::string(result.group_keys[g][0].text), std::get<0>(key))
        << context;
    EXPECT_EQ(std::string(result.group_keys[g][1].text), std::get<1>(key))
        << context;
    for (size_t a = 0; a < 4; ++a) {
      EXPECT_EQ(result.aggregate_columns[a][g], static_cast<double>(sums[a]))
          << context << " aggregate " << a << " group " << g;
    }
    ++g;
  }
}

TEST(TableExecTest, Q1MatchesReferenceAcrossAllSerialFamilies) {
  const Table table = GenerateLineitem(20000, 1);
  for (const std::string& label : SerialLabels()) {
    const TableQueryResult result = ExecuteTableQuery(table, Q1Query(), label);
    EXPECT_EQ(result.label, label);
    EXPECT_TRUE(result.order_preserving);
    ExpectMatchesReference(table, result, label);
  }
}

TEST(TableExecTest, Q1MatchesReferenceAcrossParallelFamilies) {
  const Table table = GenerateLineitem(20000, 2);
  for (const char* label :
       {"Hash_TBBSC", "Hash_LC", "Hash_PLocal", "Hash_Striped", "Hash_PRadix",
        "Sort_BI", "Sort_QSLB", "Hybrid"}) {
    const TableQueryResult result =
        ExecuteTableQuery(table, Q1Query(), label, /*num_threads=*/4);
    ExpectMatchesReference(table, result, label);
  }
}

TEST(TableExecTest, Q1ThroughAdaptiveOperatorSerialAndParallel) {
  const Table table = GenerateLineitem(20000, 3);
  for (const int threads : {1, 4}) {
    const TableQueryResult result =
        ExecuteTableQuery(table, Q1Query(), "Adaptive", threads);
    ExpectMatchesReference(table, result,
                           "Adaptive/" + std::to_string(threads));
    // The adaptive operator really ran (it reports its final strategy).
    EXPECT_GT(result.stats.Get(StatCounter::kAdaptiveStrategy), 0u);
  }
}

TEST(TableExecTest, WideCompositeKeyTakesDictFallback) {
  Table table;
  table.AddColumn("wide", Column::U64({~0ULL, 5, ~0ULL, 9}));
  table.AddColumn("more", Column::U64({1, 2, 1, 3}));
  table.AddColumn("v", Column::U64({10, 20, 30, 40}));
  TableQuery query;
  query.group_by = {"wide", "more"};
  query.aggregates = {{AggregateFunction::kSum, "v", "sum_v"},
                      {AggregateFunction::kCount, "", "n"}};
  const TableQueryResult result = ExecuteTableQuery(table, query, "Hash_LP");
  EXPECT_FALSE(result.order_preserving);
  ASSERT_EQ(result.group_keys.size(), 3u);
  // Canonical order sorts by decoded tuple: (5,2) < (9,3) < (~0,1).
  EXPECT_EQ(result.group_keys[0][0].u64, 5u);
  EXPECT_EQ(result.group_keys[1][0].u64, 9u);
  EXPECT_EQ(result.group_keys[2][0].u64, ~0ULL);
  EXPECT_EQ(result.aggregate_columns[0][2], 40.0);  // 10 + 30.
  EXPECT_EQ(result.aggregate_columns[1][2], 2.0);
}

TEST(TableExecTest, KeyRangeNarrowsLeadingColumn) {
  const Table table = GenerateLineitem(5000, 4);
  TableQuery query = Q1Query();
  query.has_filter = false;  // Range only, to isolate the effect.
  query.has_key_range = true;
  query.key_range_lo = {ColumnType::kString, 0, 0, "N"};
  query.key_range_hi = {ColumnType::kString, 0, 0, "R"};
  const TableQueryResult result = ExecuteTableQuery(table, query, "Btree");
  // Only N and R return flags survive; A is cut.
  ASSERT_GE(result.group_keys.size(), 1u);
  for (const DecodedKey& key : result.group_keys) {
    EXPECT_NE(std::string(key[0].text), "A");
  }
  // Count matches a straight scan.
  const Column& flag = table.ColumnNamed("l_returnflag");
  uint64_t expected_rows = 0;
  for (const uint32_t code : flag.codes()) {
    if (flag.dict().String(code) != "A") ++expected_rows;
  }
  EXPECT_EQ(result.rows_scanned, expected_rows);
}

TEST(TableExecTest, EmptyKeyRangeYieldsEmptyResult) {
  const Table table = GenerateLineitem(100, 5);
  TableQuery query = Q1Query();
  query.has_filter = false;
  query.has_key_range = true;
  query.key_range_lo = {ColumnType::kString, 0, 0, "X"};
  query.key_range_hi = {ColumnType::kString, 0, 0, "Z"};
  const TableQueryResult result = ExecuteTableQuery(table, query, "Hash_LP");
  EXPECT_EQ(result.group_keys.size(), 0u);
  EXPECT_EQ(result.rows_scanned, 0u);
}

TEST(TableExecTest, AutoLabelRoutesThroughAdvisor) {
  const Table table = GenerateLineitem(2000, 6);
  TableQuery query = Q1Query();
  const TableQueryResult serial = ExecuteTableQuery(table, query, "auto");
  // Distributive vector query, narrow packed key -> the hash pick.
  EXPECT_EQ(serial.label, "Hash_LP");
  ExpectMatchesReference(table, serial, "auto/serial");

  const TableQueryResult parallel =
      ExecuteTableQuery(table, query, "auto", /*num_threads=*/4);
  EXPECT_EQ(parallel.label, "Hash_TBBSC");
  ExpectMatchesReference(table, parallel, "auto/parallel");
}

// The advisor's range branch picks the serial ART at any thread budget; the
// query runs it on one thread and answers as the one-thread run does.
TEST(TableExecTest, AutoKeyRangeRunsTheSerialTreeAtFourThreads) {
  const Table table = GenerateLineitem(5000, 7);
  TableQuery query = Q1Query();
  query.has_key_range = true;
  query.key_range_lo = {ColumnType::kString, 0, 0, "N"};
  query.key_range_hi = {ColumnType::kString, 0, 0, "R"};
  const TableQueryResult serial = ExecuteTableQuery(table, query, "auto");
  const TableQueryResult parallel =
      ExecuteTableQuery(table, query, "auto", /*num_threads=*/4);
  EXPECT_EQ(serial.label, "ART");
  EXPECT_EQ(parallel.label, "ART");
  EXPECT_FALSE(serial.group_keys.empty());
  EXPECT_EQ(parallel.group_keys, serial.group_keys);
  EXPECT_EQ(parallel.aggregate_columns, serial.aggregate_columns);
}

TEST(TableExecTest, AutoLabelSeesKeyWidth) {
  // Holistic aggregate over a narrow key: byte-radix sort. Over a wide key:
  // the advisor flips to the comparison sort.
  Table narrow;
  narrow.AddColumn("k", Column::U64({1, 2, 3, 1}));
  narrow.AddColumn("v", Column::U64({5, 6, 7, 8}));
  TableQuery query;
  query.group_by = {"k"};
  query.aggregates = {{AggregateFunction::kMedian, "v", "med"}};
  EXPECT_EQ(ExecuteTableQuery(narrow, query, "auto").label, "Spreadsort");

  Table wide;
  wide.AddColumn("k", Column::U64({1ULL << 40, 2, 3, 1}));
  wide.AddColumn("v", Column::U64({5, 6, 7, 8}));
  EXPECT_EQ(ExecuteTableQuery(wide, query, "auto").label, "Introsort");
}

TEST(TableExecTest, StatsAccumulateAcrossAggregates) {
  const Table table = GenerateLineitem(2000, 8);
  const TableQueryResult result =
      ExecuteTableQuery(table, Q1Query(), "Hash_LP");
  // Four aggregate runs, each consuming every filtered row.
  EXPECT_EQ(result.stats.Get(StatCounter::kRowsBuilt),
            4 * result.rows_scanned);
  EXPECT_GT(result.stats.TotalCycles(), 0u);
}

TEST(TableExecDeathTest, RangeOverDictCodecAborts) {
  Table table;
  table.AddColumn("wide", Column::U64({~0ULL, 5}));
  table.AddColumn("more", Column::U64({1, 2}));
  table.AddColumn("v", Column::U64({1, 1}));
  TableQuery query;
  query.group_by = {"wide", "more"};
  query.aggregates = {{AggregateFunction::kCount, "", "n"}};
  query.has_key_range = true;
  query.key_range_lo = {ColumnType::kU64, 0, 0, {}};
  query.key_range_hi = {ColumnType::kU64, 5, 0, {}};
  EXPECT_DEATH(ExecuteTableQuery(table, query, "Hash_LP"),
               "order-preserving");
}

TEST(TableExecDeathTest, NonU64MeasureAborts) {
  Table table;
  table.AddColumn("k", Column::U64({1, 2}));
  table.AddColumn("v", Column::F64({1.0, 2.0}));
  TableQuery query;
  query.group_by = {"k"};
  query.aggregates = {{AggregateFunction::kSum, "v", "s"}};
  EXPECT_DEATH(ExecuteTableQuery(table, query, "Hash_LP"),
               "must be u64 fixed-point");
}

TEST(TableExecDeathTest, EmptyGroupByAborts) {
  Table table;
  table.AddColumn("k", Column::U64({1}));
  TableQuery query;
  query.aggregates = {{AggregateFunction::kCount, "", "n"}};
  EXPECT_DEATH(ExecuteTableQuery(table, query, "Hash_LP"),
               "at least one group-by column");
}

}  // namespace
}  // namespace memagg
