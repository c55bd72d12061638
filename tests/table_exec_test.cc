// Tests for the typed execution front-end (core/table_exec.h): composite
// group-bys over every operator family, filters, key ranges, advisor
// routing, and the adaptive operator on composite keys.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/concepts.h"
#include "core/engine.h"
#include "core/table_exec.h"
#include "data/key_codec.h"
#include "data/lineitem.h"
#include "data/table.h"
#include "obs/query_stats.h"
#include "test_util.h"
#include "util/rng.h"

namespace memagg {
namespace {

// The concept pins for the data layer live next to the code they gate.
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

// The four aggregates fold into one composite, so the query builds once:
// every filtered row is consumed once, and the operator emits each group
// once.
TEST(TableExecTest, OneBuildPerQuery) {
  const Table table = GenerateLineitem(2000, 8);
  const TableQueryResult result =
      ExecuteTableQuery(table, Q1Query(), "Hash_LP");
  EXPECT_EQ(result.stats.Get(StatCounter::kRowsBuilt), result.rows_scanned);
  EXPECT_EQ(result.stats.Get(StatCounter::kGroupsOut),
            result.group_keys.size());
  EXPECT_GT(result.stats.TotalCycles(), 0u);
}

// Q1's key packs into 3 bits (2 for 3 return flags, 1 for 2 line
// statuses), so its Hash_LP run gets a table for 8 groups, not one for the
// ~190k rows fed.
TEST(TableExecTest, Q1SizesEachOperatorToTheCodecGroupBound) {
  const Table table = GenerateLineitem(200000, 10);
  const TableQueryResult result =
      ExecuteTableQuery(table, Q1Query(), "Hash_LP");
  ExpectMatchesReference(table, result, "Hash_LP");
  EXPECT_LT(result.stats.Get(StatCounter::kArenaBytesReserved),
            uint64_t{64} * 1024);
}

KeyFieldValue FieldAt(const Column& column, size_t row) {
  KeyFieldValue field;
  field.type = column.type();
  if (column.type() == ColumnType::kString) {
    field.text = column.dict().String(column.codes()[row]);
  } else {
    field.u64 = column.u64()[row];
  }
  return field;
}

/// Engine-free answer to a query over u64/string key columns, its filter
/// and its key range: the groups in canonical (tuple) order and, per
/// aggregate, their values.
struct TableReference {
  std::vector<DecodedKey> group_keys;
  std::vector<VectorResult> columns;
};

TableReference ReferenceFor(const Table& table, const TableQuery& query) {
  std::vector<size_t> rows;
  std::map<DecodedKey, uint64_t> rank_of;
  std::vector<DecodedKey> row_keys;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    if (query.has_filter &&
        table.ColumnNamed(query.filter_column).u64()[row] > query.filter_max) {
      continue;
    }
    DecodedKey key;
    for (const std::string& name : query.group_by) {
      key.push_back(FieldAt(table.ColumnNamed(name), row));
    }
    if (query.has_key_range &&
        (key[0] < query.key_range_lo || query.key_range_hi < key[0])) {
      continue;
    }
    rank_of[key] = 0;
    rows.push_back(row);
    row_keys.push_back(std::move(key));
  }
  TableReference ref;
  for (auto& [key, rank] : rank_of) {
    rank = ref.group_keys.size();
    ref.group_keys.push_back(key);
  }
  // Ranking the tuples makes ReferenceVectorAggregate list the groups in
  // canonical order.
  std::vector<uint64_t> ranks;
  for (const DecodedKey& key : row_keys) ranks.push_back(rank_of.at(key));
  for (const AggregateSpec& spec : query.aggregates) {
    std::vector<uint64_t> values;
    if (NeedsValueColumn(spec.function)) {
      for (const size_t row : rows) {
        values.push_back(table.ColumnNamed(spec.column).u64()[row]);
      }
    }
    ref.columns.push_back(ReferenceVectorAggregate(ranks, values,
                                                   spec.function));
  }
  return ref;
}

/// Runs `query` under every label, at one thread and, for parallel labels,
/// at four, and compares each result with the reference.
void ExpectEveryLabelMatchesReference(const Table& table,
                                      const TableQuery& query,
                                      const std::string& name) {
  const TableReference ref = ReferenceFor(table, query);
  for (const LabelInfo& info : AllLabels()) {
    for (const int threads : {1, 4}) {
      if (threads > 1 && !info.parallel) continue;
      const std::string context =
          name + " " + info.name + "@" + std::to_string(threads);
      const TableQueryResult result =
          ExecuteTableQuery(table, query, info.name, threads);
      // One build: each selected row is consumed once.
      EXPECT_EQ(result.stats.Get(StatCounter::kRowsBuilt), result.rows_scanned)
          << context;
      ASSERT_EQ(result.group_keys, ref.group_keys) << context;
      ASSERT_EQ(result.aggregate_columns.size(), query.aggregates.size())
          << context;
      for (size_t a = 0; a < query.aggregates.size(); ++a) {
        ASSERT_EQ(result.aggregate_columns[a].size(), ref.columns[a].size())
            << context;
        for (size_t g = 0; g < ref.columns[a].size(); ++g) {
          EXPECT_EQ(result.aggregate_columns[a][g], ref.columns[a][g].value)
              << context << " aggregate " << a << " group " << g;
        }
      }
    }
  }
}

/// Groups (flag, bucket) that take every one of the codec's 2^(2 + 3) key
/// values, so the group bound the operators are sized to is exact.
TableQuery BoundFillingQuery(Table& table) {
  StringDict dict;
  const std::vector<uint32_t> codes = {dict.Intern("A"), dict.Intern("N"),
                                       dict.Intern("O"), dict.Intern("R")};
  std::vector<uint32_t> flags;
  std::vector<uint64_t> buckets;
  std::vector<uint64_t> values;
  Rng rng(Rng::kDefaultSeed + 21);
  for (int i = 0; i < 600; ++i) {
    flags.push_back(codes[rng.NextBounded(4)]);
    buckets.push_back(10 + rng.NextBounded(8));
    values.push_back(rng.NextBounded(1000));
  }
  // Every combination at least once.
  for (const uint32_t flag : codes) {
    for (uint64_t bucket = 10; bucket < 18; ++bucket) {
      flags.push_back(flag);
      buckets.push_back(bucket);
      values.push_back(rng.NextBounded(1000));
    }
  }
  table.AddColumn("flag", Column::String(std::move(dict), std::move(flags)));
  table.AddColumn("bucket", Column::U64(std::move(buckets)));
  table.AddColumn("v", Column::U64(std::move(values)));
  TableQuery query;
  query.group_by = {"flag", "bucket"};
  query.aggregates = {{AggregateFunction::kCount, "", "n"},
                      {AggregateFunction::kSum, "v", "sum_v"},
                      {AggregateFunction::kMin, "v", "min_v"},
                      {AggregateFunction::kMedian, "v", "median_v"}};
  return query;
}

/// Two wide u64 key columns: their bound (2^(25 + 31) keys) is far above
/// the 9 groups, so the operators are sized to the rows fed. Filtered, so
/// the measures are read through a selection vector with gaps.
TableQuery SparseWideKeyQuery(Table& table) {
  std::vector<uint64_t> a_values;
  std::vector<uint64_t> b_values;
  std::vector<uint64_t> v_values;
  std::vector<uint64_t> w_values;
  std::vector<uint64_t> f_values;
  const uint64_t a_keys[] = {0, uint64_t{1} << 24, (uint64_t{1} << 24) - 7};
  const uint64_t b_keys[] = {5, 5 + (uint64_t{1} << 30), 1000};
  Rng rng(Rng::kDefaultSeed + 22);
  for (int i = 0; i < 5000; ++i) {
    a_values.push_back(a_keys[rng.NextBounded(3)]);
    b_values.push_back(b_keys[rng.NextBounded(3)]);
    v_values.push_back(rng.NextBounded(100000));
    w_values.push_back(rng.NextBounded(20));
    f_values.push_back(rng.NextBounded(100));
  }
  table.AddColumn("a", Column::U64(std::move(a_values)));
  table.AddColumn("b", Column::U64(std::move(b_values)));
  table.AddColumn("v", Column::U64(std::move(v_values)));
  table.AddColumn("w", Column::U64(std::move(w_values)));
  table.AddColumn("f", Column::U64(std::move(f_values)));
  TableQuery query;
  query.group_by = {"a", "b"};
  query.aggregates = {{AggregateFunction::kMax, "v", "max_v"},
                      {AggregateFunction::kAverage, "w", "avg_w"},
                      {AggregateFunction::kMode, "w", "mode_w"},
                      {AggregateFunction::kSum, "v", "sum_v"}};
  query.has_filter = true;
  query.filter_column = "f";
  query.filter_max = 79;
  return query;
}

TEST(TableExecTest, EveryLabelMatchesTheReferenceWhenSizedToTheGroupBound) {
  Table filling;
  const TableQuery filling_query = BoundFillingQuery(filling);
  Table sparse;
  const TableQuery sparse_query = SparseWideKeyQuery(sparse);
  const std::pair<const Table*, const TableQuery*> cases[] = {
      {&filling, &filling_query}, {&sparse, &sparse_query}};
  for (const auto& [table, query] : cases) {
    const TableReference ref = ReferenceFor(*table, *query);
    ASSERT_EQ(ref.group_keys.size(), query == &filling_query ? 32u : 9u);
    const size_t bound =
        PackedKeyCodec::TryBuild(*table, query->group_by)->max_groups();
    ASSERT_EQ(bound, query == &filling_query ? size_t{32} : size_t{1} << 56);
    ExpectEveryLabelMatchesReference(*table, *query, query->group_by[0]);
  }
}

/// Keys (flag, bucket) in 4 × 6 groups over 3000 rows, measures x and y, and
/// a filter column f in [0, 100).
Table CompositeEdgeTable() {
  StringDict dict;
  const std::vector<uint32_t> codes = {dict.Intern("A"), dict.Intern("N"),
                                       dict.Intern("O"), dict.Intern("R")};
  std::vector<uint32_t> flags;
  std::vector<uint64_t> buckets;
  std::vector<uint64_t> x;
  std::vector<uint64_t> y;
  std::vector<uint64_t> f;
  Rng rng(Rng::kDefaultSeed + 23);
  for (int i = 0; i < 3000; ++i) {
    flags.push_back(codes[rng.NextBounded(4)]);
    buckets.push_back(100 + rng.NextBounded(6));
    x.push_back(rng.NextBounded(1000000));
    y.push_back(rng.NextBounded(7));
    f.push_back(rng.NextBounded(100));
  }
  Table table;
  table.AddColumn("flag", Column::String(std::move(dict), std::move(flags)));
  table.AddColumn("bucket", Column::U64(std::move(buckets)));
  table.AddColumn("x", Column::U64(std::move(x)));
  table.AddColumn("y", Column::U64(std::move(y)));
  table.AddColumn("f", Column::U64(std::move(f)));
  return table;
}

/// All seven functions in one query, several of them over one column.
TableQuery AllFunctionsQuery() {
  TableQuery query;
  query.group_by = {"flag", "bucket"};
  query.aggregates = {{AggregateFunction::kSum, "x", "sum_x"},
                      {AggregateFunction::kAverage, "x", "avg_x"},
                      {AggregateFunction::kMin, "x", "min_x"},
                      {AggregateFunction::kMax, "x", "max_x"},
                      {AggregateFunction::kMedian, "x", "median_x"},
                      {AggregateFunction::kMode, "y", "mode_y"},
                      {AggregateFunction::kCount, "", "n"}};
  query.has_filter = true;
  query.filter_column = "f";
  query.filter_max = 69;
  return query;
}

// The composite's edge cases through every operator family: holistic and
// fixed-word members sharing a column, a COUNT-only query, no filter (with
// exactly the fixed words a group holds inline), a filter that keeps no row,
// a key range, and one fixed word more than a group holds inline.
TEST(TableExecTest, EveryLabelFoldsEveryQueryShapeInOnePass) {
  const Table table = CompositeEdgeTable();
  ExpectEveryLabelMatchesReference(table, AllFunctionsQuery(),
                                   "all-functions");

  TableQuery count_only = AllFunctionsQuery();
  count_only.aggregates = {{AggregateFunction::kCount, "", "n"}};
  ExpectEveryLabelMatchesReference(table, count_only, "count-only");

  TableQuery unfiltered = AllFunctionsQuery();
  unfiltered.has_filter = false;
  unfiltered.aggregates = {{AggregateFunction::kMax, "y", "max_y"},
                           {AggregateFunction::kSum, "x", "sum_x"},
                           {AggregateFunction::kCount, "", "n"},
                           {AggregateFunction::kMin, "y", "min_y"}};
  ExpectEveryLabelMatchesReference(table, unfiltered, "unfiltered");

  TableQuery keeps_nothing = AllFunctionsQuery();
  keeps_nothing.filter_column = "bucket";
  keeps_nothing.filter_max = 99;  // Buckets start at 100.
  ExpectEveryLabelMatchesReference(table, keeps_nothing, "empty-filter");
  EXPECT_TRUE(ExecuteTableQuery(table, keeps_nothing, "Hash_LP")
                  .group_keys.empty());

  TableQuery ranged = AllFunctionsQuery();
  ranged.has_key_range = true;
  ranged.key_range_lo = {ColumnType::kString, 0, 0, "N"};
  ranged.key_range_hi = {ColumnType::kString, 0, 0, "O"};
  ExpectEveryLabelMatchesReference(table, ranged, "key-range");

  // Five distinct fixed words (four folds plus the row count), one more
  // than a group holds inline, so the groups keep row ids instead.
  TableQuery wide = AllFunctionsQuery();
  wide.aggregates = {{AggregateFunction::kSum, "x", "sum_x"},
                     {AggregateFunction::kSum, "y", "sum_y"},
                     {AggregateFunction::kMin, "x", "min_x"},
                     {AggregateFunction::kMax, "y", "max_y"},
                     {AggregateFunction::kCount, "", "n"}};
  ExpectEveryLabelMatchesReference(table, wide, "wide-words");
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
