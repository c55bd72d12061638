// bench_e2e: the end-to-end benchmark program (bench/e2e/README.md).
//
// One process runs one workload as a closed loop with a single client:
// queries go back to back, each timed around the public entry call a user
// makes (ExecuteTableQuery or ExecuteVectorQuery), so the time includes
// operator construction, cardinality estimation and the table front-end.
// Every result is checked against a reference computed in a forked child
// from a trivial std::map / sort implementation that shares no code with
// the engine. The process prints one JSON object on stdout; run.py turns it
// into the named metrics.
//
//   bench_e2e --workload=tpch_q1 --seed=1 --seconds=10 [--trace=1
//             --trace-out=bench_e2e_trace.json]
//   bench_e2e --workload=q3_median --scale=tiny --queries=3
//   bench_e2e --self-test
//
// With --trace=1 every other query is traced: its root span and the
// QueryStats phases under it are kept in memory, and the benchmark times
// sibling spans around public calls of each layer (key codec, operator
// factory, cardinality estimate). Nothing inside src/ is instrumented.

#include <time.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/advisor.h"
#include "core/engine.h"
#include "core/table_exec.h"
#include "data/dataset.h"
#include "data/key_codec.h"
#include "data/lineitem.h"
#include "exec/executor.h"
#include "mem/worker_arenas.h"
#include "obs/query_stats.h"
#include "sim/cache_model.h"
#include "sim/sim_tracer.h"
#include "sim/traced_engine.h"
#include "util/cli.h"
#include "util/macros.h"
#include "util/memory_tracker.h"

namespace memagg {
namespace {

// Data load is repeated this many times per process and setup_s is their
// median: one load of the large inputs is too short to time steadily.
constexpr int kSetupReps = 5;
// Discarded queries before measuring (first-touch page faults, pool spin-up).
constexpr int kWarmUpQueries = 2;
// --scale=tiny divides every input size and group count by this.
constexpr uint64_t kTinyDivisor = 100;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

// --- Result fingerprints --------------------------------------------------
//
// A result is reduced to a sum of per-group hashes (order-independent) plus
// a hash of the group count, so the reference child ships back one word and
// a wrong value, a missing group or an extra group all change it.

uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

uint64_t HashText(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a.
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t HashValue(uint64_t h, double value) {
  return Mix(h ^ Mix(std::bit_cast<uint64_t>(value)));
}

uint64_t CountTerm(uint64_t groups) { return Mix(groups ^ 0x9e3779b97f4a7c15ULL); }

uint64_t FingerprintOf(const VectorResult& result) {
  uint64_t sum = CountTerm(result.size());
  for (const GroupResult& group : result) {
    sum += HashValue(Mix(group.key), group.value);
  }
  return sum;
}

// --- Span log ---------------------------------------------------------------

struct Span {
  const char* name = "";
  uint64_t query = 0;
  int64_t parent = -1;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  std::string stats_json;  // Root spans only: the call's QueryStats.
};

class SpanLog {
 public:
  int64_t Add(const char* name, uint64_t query, int64_t parent,
              uint64_t start_ns, uint64_t end_ns) {
    spans_.push_back({name, query, parent, start_ns, end_ns, {}});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  void SetStats(int64_t span, std::string json) {
    spans_[static_cast<size_t>(span)].stats_json = std::move(json);
  }

  /// Writes every span as JSON; times are relative to the earliest span.
  bool Write(const std::string& path, const std::string& workload) const {
    FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    uint64_t origin = UINT64_MAX;
    for (const Span& span : spans_) origin = std::min(origin, span.start_ns);
    std::fprintf(file, "{\"spans\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(file,
                   "%s\n{\"id\":%zu,\"name\":\"%s\",\"workload\":\"%s\","
                   "\"query\":%" PRIu64 ",\"parent\":%" PRId64
                   ",\"start_ns\":%" PRIu64 ",\"end_ns\":%" PRIu64,
                   i == 0 ? "" : ",", i, s.name, workload.c_str(), s.query,
                   s.parent, s.start_ns - origin, s.end_ns - origin);
      if (!s.stats_json.empty()) {
        std::fprintf(file, ",\"stats\":%s", s.stats_json.c_str());
      }
      std::fprintf(file, "}");
    }
    std::fprintf(file, "\n]}\n");
    return std::fclose(file) == 0;
  }

 private:
  std::vector<Span> spans_;
};

/// Times `fn` as a sibling span of the query's root and returns its ms.
template <typename Fn>
double TimedSpan(SpanLog& log, const char* name, uint64_t query, Fn&& fn) {
  const uint64_t start = NowNs();
  fn();
  const uint64_t end = NowNs();
  log.Add(name, query, -1, start, end);
  return static_cast<double>(end - start) / 1e6;
}

// --- Workloads --------------------------------------------------------------

/// One timed entry call and what the check and the trace need from it.
struct QueryOutcome {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t fingerprint = 0;
  QueryStats stats;
  size_t rows_fed = 0;  ///< Rows handed to the operators.
  std::string label;    ///< The label that ran ("auto" resolved).

  double RootMs() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  virtual int threads() const = 0;
  virtual uint64_t input_rows() const = 0;

  /// Generates the inputs (the timed set-up), replacing earlier ones.
  virtual void Load(uint64_t seed, uint64_t divisor) = 0;

  /// Fingerprint of the correct result, from a reference that shares no
  /// code with the engine. Runs in a forked child.
  virtual uint64_t Reference() const = 0;

  /// Runs the entry call once, timed around that call alone.
  virtual QueryOutcome Query() const = 0;

  /// Times public calls of the layers under the entry call that produced
  /// `outcome` as sibling spans of its root and adds their milliseconds to
  /// `values`.
  virtual void TraceLayers(const QueryOutcome& outcome, uint64_t query,
                           SpanLog& log, LayerValues& values) const = 0;

  /// Runs the query's operator under the cache/TLB model once and stores
  /// the simulated counts; false when the workload has no traced operator
  /// (table front-end, parallel operators).
  virtual bool SimulateCache(CacheSimStats* stats) const {
    (void)stats;
    return false;
  }
};

// TPC-H Q1 through the table front-end: filter, key encoding, one engine run
// per aggregate, alignment and decode.
class TpchQ1Workload : public Workload {
 public:
  const char* name() const override { return "tpch_q1"; }
  int threads() const override { return 1; }
  uint64_t input_rows() const override { return table_.num_rows(); }

  void Load(uint64_t seed, uint64_t divisor) override {
    table_ = Table{};
    table_ = GenerateLineitem(kRows / divisor, seed);
  }

  uint64_t Reference() const override {
    const Column& flag = table_.ColumnNamed("l_returnflag");
    const Column& status = table_.ColumnNamed("l_linestatus");
    const std::vector<uint64_t>& shipdate =
        table_.ColumnNamed("l_shipdate").u64();
    const std::vector<uint64_t>& quantity =
        table_.ColumnNamed("l_quantity").u64();
    const std::vector<uint64_t>& price =
        table_.ColumnNamed("l_extendedprice").u64();
    const std::vector<uint64_t>& disc_price =
        table_.ColumnNamed("disc_price").u64();
    std::map<std::pair<std::string, std::string>, std::array<uint64_t, 4>>
        groups;
    for (size_t i = 0; i < table_.num_rows(); ++i) {
      if (shipdate[i] > kLineitemQ1ShipdateCutoff) continue;
      std::array<uint64_t, 4>& sums =
          groups[{flag.dict().String(flag.codes()[i]),
                  status.dict().String(status.codes()[i])}];
      sums[0] += quantity[i];
      sums[1] += price[i];
      sums[2] += disc_price[i];
      sums[3] += 1;
    }
    uint64_t sum = CountTerm(groups.size());
    for (const auto& [key, sums] : groups) {
      uint64_t h = HashText(key.first + "|" + key.second);
      for (const uint64_t value : sums) {
        h = HashValue(h, static_cast<double>(value));
      }
      sum += h;
    }
    return sum;
  }

  QueryOutcome Query() const override {
    QueryOutcome outcome;
    outcome.start_ns = NowNs();
    TableQueryResult result = ExecuteTableQuery(table_, Q1(), "auto", 1);
    outcome.end_ns = NowNs();
    outcome.stats = result.stats;
    outcome.rows_fed = result.rows_scanned;
    uint64_t sum = CountTerm(result.group_keys.size());
    for (size_t g = 0; g < result.group_keys.size(); ++g) {
      std::string text;
      for (const KeyFieldValue& field : result.group_keys[g]) {
        text += text.empty() ? "" : "|";
        text += field.ToString();
      }
      uint64_t h = HashText(text);
      for (const std::vector<double>& column : result.aggregate_columns) {
        h = HashValue(h, column[g]);
      }
      sum += h;
    }
    outcome.fingerprint = sum;
    outcome.label = result.label;
    return outcome;
  }

  void TraceLayers(const QueryOutcome& outcome, uint64_t query, SpanLog& log,
                   LayerValues& values) const override {
    const TableQuery q1 = Q1();
    std::vector<EncodedKey> keys;
    values["data.encode_ms"] = TimedSpan(log, "data.encode", query, [&] {
      const std::optional<PackedKeyCodec> codec =
          PackedKeyCodec::TryBuild(table_, q1.group_by);
      MEMAGG_CHECK(codec.has_value() && "the Q1 key fits a packed codec");
      keys = codec->EncodeAll();
    });
    // The entry call constructs one operator and estimates cardinality once
    // per aggregate; the spans repeat that work.
    values["engine.construct_ms"] =
        TimedSpan(log, "engine.construct", query, [&] {
          for (const AggregateSpec& spec : q1.aggregates) {
            StatsRegistry stats(1);
            WorkerArenas arenas(1);
            ExecutionContext exec(1);
            exec.stats = &stats;
            exec.arenas = &arenas;
            MakeVectorAggregator(outcome.label, spec.function, keys.size(),
                                 exec)
                .reset();
          }
        });
    values["engine.estimate_ms"] =
        TimedSpan(log, "engine.estimate", query, [&] {
          size_t estimate = 0;
          for (size_t a = 0; a < q1.aggregates.size(); ++a) {
            estimate += EstimateGroupCardinality(keys.data(), keys.size());
          }
          MEMAGG_CHECK(estimate > 0);
        });
  }

 private:
  static constexpr uint64_t kRows = 2'000'000;

  static TableQuery Q1() {
    TableQuery query;
    query.group_by = {"l_returnflag", "l_linestatus"};
    query.aggregates = {
        {AggregateFunction::kSum, "l_quantity", "sum_qty"},
        {AggregateFunction::kSum, "l_extendedprice", "sum_base_price"},
        {AggregateFunction::kSum, "disc_price", "sum_disc_price"},
        {AggregateFunction::kCount, "", "count_order"},
    };
    query.has_filter = true;
    query.filter_column = "l_shipdate";
    query.filter_max = kLineitemQ1ShipdateCutoff;
    return query;
  }

  Table table_;
};

/// Shape of one ExecuteVectorQuery workload.
struct VectorSpec {
  const char* name;
  const char* label;
  AggregateFunction function;
  Distribution distribution;
  uint64_t rows;
  uint64_t groups;
  int threads;
  bool simulated;  ///< Serial label with a cache-traced twin.
};

// One ExecuteVectorQuery over generated key (and value) columns.
class VectorWorkload : public Workload {
 public:
  explicit VectorWorkload(const VectorSpec& spec) : spec_(spec) {}

  const char* name() const override { return spec_.name; }
  int threads() const override { return spec_.threads; }
  uint64_t input_rows() const override { return keys_.size(); }

  void Load(uint64_t seed, uint64_t divisor) override {
    keys_ = {};
    values_ = {};
    DatasetSpec data;
    data.distribution = spec_.distribution;
    data.num_records = spec_.rows / divisor;
    data.cardinality = spec_.groups / divisor;
    data.seed = seed;
    keys_ = GenerateKeys(data);
    if (NeedsValueColumn(spec_.function)) {
      values_ = GenerateValues(data.num_records, 1000000, seed + 1);
    }
  }

  uint64_t Reference() const override {
    std::vector<std::pair<uint64_t, uint64_t>> rows(keys_.size());
    for (size_t i = 0; i < keys_.size(); ++i) {
      rows[i] = {keys_[i], values_.empty() ? 0 : values_[i]};
    }
    std::sort(rows.begin(), rows.end());
    uint64_t sum = 0;
    uint64_t groups = 0;
    for (size_t begin = 0; begin < rows.size();) {
      size_t end = begin;
      uint64_t total = 0;
      while (end < rows.size() && rows[end].first == rows[begin].first) {
        total += rows[end].second;
        ++end;
      }
      const size_t count = end - begin;
      double value = 0.0;
      switch (spec_.function) {
        case AggregateFunction::kCount:
          value = static_cast<double>(count);
          break;
        case AggregateFunction::kSum:
          value = static_cast<double>(total);
          break;
        case AggregateFunction::kMedian: {
          // The run is sorted by value; an even count averages the two
          // middle values (MedianAggregate::FinalizeRun semantics).
          const uint64_t upper = rows[begin + count / 2].second;
          const uint64_t lower = rows[begin + (count - 1) / 2].second;
          value = (static_cast<double>(lower) + static_cast<double>(upper)) /
                  2.0;
          break;
        }
        default:
          MEMAGG_CHECK(false && "no reference for this aggregate");
      }
      sum += HashValue(Mix(rows[begin].first), value);
      ++groups;
      begin = end;
    }
    return sum + CountTerm(groups);
  }

  QueryOutcome Query() const override {
    QueryOutcome outcome;
    outcome.start_ns = NowNs();
    VectorQueryExecution run = ExecuteVectorQuery(
        spec_.label, spec_.function, keys_.data(), ValuesOrNull(),
        keys_.size(), keys_.size(), ExecutionContext(spec_.threads));
    outcome.end_ns = NowNs();
    outcome.stats = run.stats;
    outcome.rows_fed = keys_.size();
    outcome.label = spec_.label;
    outcome.fingerprint = FingerprintOf(run.result);
    return outcome;
  }

  void TraceLayers(const QueryOutcome& outcome, uint64_t query, SpanLog& log,
                   LayerValues& values) const override {
    values["engine.construct_ms"] =
        TimedSpan(log, "engine.construct", query, [&] {
          StatsRegistry stats(spec_.threads);
          WorkerArenas arenas(spec_.threads);
          ExecutionContext exec(spec_.threads);
          exec.stats = &stats;
          exec.arenas = &arenas;
          MakeVectorAggregator(outcome.label, spec_.function, keys_.size(),
                               exec)
              .reset();
        });
    values["engine.estimate_ms"] =
        TimedSpan(log, "engine.estimate", query, [&] {
          MEMAGG_CHECK(EstimateGroupCardinality(keys_.data(), keys_.size()) >
                       0);
        });
  }

  bool SimulateCache(CacheSimStats* stats) const override {
    if (!spec_.simulated) return false;
    CacheModel model;
    {
      ScopedCacheSim bind(&model);
      std::unique_ptr<VectorAggregator> aggregator =
          MakeTracedVectorAggregator(spec_.label, spec_.function,
                                     keys_.size());
      aggregator->Build(keys_.data(), ValuesOrNull(), keys_.size());
      MEMAGG_CHECK(!aggregator->Iterate().empty());
    }
    *stats = model.stats();
    return true;
  }

 private:
  const uint64_t* ValuesOrNull() const {
    return values_.empty() ? nullptr : values_.data();
  }

  VectorSpec spec_;
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> values_;
};

// The workload catalogue (README.md explains each choice).
std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  static const VectorSpec kVectorSpecs[] = {
      {"q1_highcard", "Hash_LP", AggregateFunction::kCount,
       Distribution::kRseqShuffled, 4'000'000, 1'000'000, 1, true},
      {"q3_median", "Spreadsort", AggregateFunction::kMedian,
       Distribution::kZipf, 2'000'000, 100'000, 1, true},
      {"sum_parallel", "Adaptive", AggregateFunction::kSum,
       Distribution::kZipf, 4'000'000, 100'000, 4, false},
  };
  if (name == "tpch_q1") return std::make_unique<TpchQ1Workload>();
  for (const VectorSpec& spec : kVectorSpecs) {
    if (name == spec.name) return std::make_unique<VectorWorkload>(spec);
  }
  return nullptr;
}

const char* const kWorkloadNames[] = {"tpch_q1", "q1_highcard", "q3_median",
                                      "sum_parallel"};

// --- Per-layer values of one traced query -------------------------------

void AddQueryLayers(const Workload& workload, const QueryOutcome& q,
                    double cpu_ms, LayerValues& v) {
  const QueryStats& s = q.stats;
  const double root = q.RootMs();
  const double build = s.PhaseMillis(StatPhase::kBuild);
  const double iterate = s.PhaseMillis(StatPhase::kIterate);
  const double self = root - build - iterate;
  const bool table = std::string(workload.name()) == "tpch_q1";
  // Time outside the operators belongs to the outermost layer of the call:
  // the table front-end for table queries, the engine wrapper otherwise.
  v["table_exec.self_ms"] = table ? self : 0.0;
  v["table_exec.self_frac"] = table ? self / root : 0.0;
  v["engine.self_ms"] = table ? 0.0 : self;
  const double rows_built =
      static_cast<double>(s.Get(StatCounter::kRowsBuilt));
  v["table_exec.passes_per_row"] =
      rows_built / static_cast<double>(q.rows_fed);
  v["data.encode_ms"] = 0.0;  // Table workloads time their codec span.
  v["engine.build_ms"] = build;
  v["engine.iterate_ms"] = iterate;

  const double entries = static_cast<double>(s.Get(StatCounter::kHashEntries));
  const bool hashed = entries > 0;
  v["hash.build_ns_per_row"] = hashed ? build * 1e6 / rows_built : 0.0;
  v["hash.probe_avg"] =
      hashed ? static_cast<double>(s.Get(StatCounter::kProbeTotal)) / entries
             : 0.0;
  v["hash.probe_max"] = static_cast<double>(s.Get(StatCounter::kProbeMax));
  v["hash.rehashes"] = static_cast<double>(s.Get(StatCounter::kRehashes));

  const double sort = s.PhaseMillis(StatPhase::kSort);
  const double rows_sorted =
      static_cast<double>(s.Get(StatCounter::kRowsSorted));
  v["sort.sort_ms"] = sort;
  v["sort.ns_per_row"] = rows_sorted > 0 ? sort * 1e6 / rows_sorted : 0.0;

  v["exec.cpu_busy_frac"] = cpu_ms / (root * workload.threads());
  v["exec.morsels_claimed"] =
      static_cast<double>(s.Get(StatCounter::kMorselsClaimed));
  v["exec.workers_used"] =
      static_cast<double>(s.Get(StatCounter::kWorkersUsed));
  v["op.merge_ms"] = s.PhaseMillis(StatPhase::kMerge);
  v["op.partition_ms"] = s.PhaseMillis(StatPhase::kPartition);

  v["adaptive.switches"] =
      static_cast<double>(s.Get(StatCounter::kStrategySwitches));
  v["adaptive.migrated_frac"] =
      static_cast<double>(s.Get(StatCounter::kRowsMigrated)) / rows_built;

  const double reserved =
      static_cast<double>(s.Get(StatCounter::kArenaBytesReserved));
  const double groups = static_cast<double>(s.Get(StatCounter::kGroupsOut));
  v["mem.arena_reserved_mb"] = reserved / (1024.0 * 1024.0);
  v["mem.arena_bytes_per_group"] = groups > 0 ? reserved / groups : 0.0;
}

// Phase spans carry QueryStats durations; QueryStats keeps no timestamps,
// so each is placed at the root's start.
void AddPhaseSpans(SpanLog& log, uint64_t query, int64_t root,
                   const QueryOutcome& q) {
  static constexpr std::pair<StatPhase, const char*> kPhases[] = {
      {StatPhase::kBuild, "engine.build"},
      {StatPhase::kIterate, "engine.iterate"},
      {StatPhase::kSort, "sort.sort"},
      {StatPhase::kPartition, "op.partition"},
      {StatPhase::kMerge, "op.merge"},
  };
  for (const auto& [phase, name] : kPhases) {
    const double ms = q.stats.PhaseMillis(phase);
    if (ms <= 0.0) continue;
    log.Add(name, query, root, q.start_ns,
            q.start_ns + static_cast<uint64_t>(ms * 1e6));
  }
}

// --- One run ---------------------------------------------------------------

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int64_t queries = 0;  ///< > 0: run exactly this many instead of --seconds.
  bool trace = false;
  std::string trace_out = "bench_e2e_trace.json";
  uint64_t divisor = 1;
  bool plant_wrong_reference = false;
};

struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
};

void PrintList(const char* key, const std::vector<double>& values) {
  std::printf("\"%s\":[", key);
  for (size_t i = 0; i < values.size(); ++i) {
    std::printf("%s%.6f", i == 0 ? "" : ",", values[i]);
  }
  std::printf("]");
}

RunResult RunWorkload(const RunOptions& options) {
  std::unique_ptr<Workload> workload = MakeWorkload(options.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", options.workload.c_str());
    std::exit(2);
  }

  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const uint64_t start = NowNs();
    workload->Load(options.seed, options.divisor);
    WarmUpScheduler();
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }

  // The reference runs in a child so its structures never count towards
  // this process's peak RSS.
  uint64_t expected = 0;
  const uint64_t child_peak = MeasurePeakRssInChild(
      [&workload]() -> uint64_t { return workload->Reference(); }, &expected);
  MEMAGG_CHECK(child_peak > 0 && "reference child failed");
  if (options.plant_wrong_reference) expected ^= 1;
  TryResetPeakRss();

  for (int i = 0; i < kWarmUpQueries; ++i) (void)workload->Query();

  RunResult run;
  SpanLog log;
  std::vector<double> latency_ms;
  std::vector<double> traced_ms;
  std::map<std::string, std::vector<double>> layers;
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(options.seconds * 1e9);
  for (uint64_t query = 0;; ++query) {
    if (options.queries > 0 ? run.attempted >= options.queries
                            : NowNs() >= deadline && query >= 2) {
      break;
    }
    const bool traced = options.trace && query % 2 == 1;
    const double cpu_start = traced ? ProcessCpuMs() : 0.0;
    const QueryOutcome outcome = workload->Query();
    const double cpu_ms = traced ? ProcessCpuMs() - cpu_start : 0.0;
    ++run.attempted;
    if (outcome.fingerprint != expected) ++run.failed;
    if (!traced) {
      latency_ms.push_back(outcome.RootMs());
      continue;
    }
    traced_ms.push_back(outcome.RootMs());
    const int64_t root =
        log.Add("query", query, -1, outcome.start_ns, outcome.end_ns);
    log.SetStats(root, outcome.stats.ToJson());
    AddPhaseSpans(log, query, root, outcome);
    LayerValues values;
    AddQueryLayers(*workload, outcome, cpu_ms, values);
    workload->TraceLayers(outcome, query, log, values);
    for (const auto& [name, value] : values) layers[name].push_back(value);
  }
  const double peak_rss_mb =
      static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0);

  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64
              ",\"input_rows\":%" PRIu64
              ",\"threads\":%d,\"attempted\":%" PRId64 ",\"failed\":%" PRId64
              ",\"peak_rss_mb\":%.3f,",
              workload->name(), options.seed, workload->input_rows(),
              workload->threads(), run.attempted, run.failed, peak_rss_mb);
  PrintList("setup_s", setup_s);
  std::printf(",");
  PrintList("latency_ms", latency_ms);
  if (options.trace) {
    std::map<std::string, double> medians;
    for (const auto& [name, values] : layers) medians[name] = Median(values);
    CacheSimStats sim;
    const bool simulated = workload->SimulateCache(&sim);
    const double rows = static_cast<double>(workload->input_rows());
    medians["sim.llc_misses_per_row"] =
        simulated ? static_cast<double>(sim.llc_misses) / rows : 0.0;
    medians["sim.tlb_misses_per_row"] =
        simulated ? static_cast<double>(sim.tlb_misses) / rows : 0.0;
    medians["trace.overhead_frac"] =
        Median(traced_ms) / Median(latency_ms) - 1.0;
    std::printf(",\"layers\":{");
    bool first = true;
    for (const auto& [name, value] : medians) {
      std::printf("%s\"%s\":%.9g", first ? "" : ",", name.c_str(), value);
      first = false;
    }
    std::printf("}");
    if (!log.Write(options.trace_out, workload->name())) {
      std::fprintf(stderr, "cannot write %s\n", options.trace_out.c_str());
      std::exit(1);
    }
  }
  std::printf("}\n");
  std::fflush(stdout);
  return run;
}

int Main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  RunOptions options;
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  options.seconds = flags.GetDouble("seconds", 10.0);
  options.queries = flags.GetInt("queries", 0);
  options.trace = flags.GetInt("trace", 0) != 0;
  options.trace_out = flags.GetString("trace-out", options.trace_out);
  const std::string scale = flags.GetString("scale", "full");
  if (scale != "full" && scale != "tiny") {
    std::fprintf(stderr, "--scale must be full or tiny\n");
    return 2;
  }
  options.divisor = scale == "tiny" ? kTinyDivisor : 1;

  if (flags.GetBool("self-test", false)) {
    // A planted wrong reference must fail every query of every workload.
    options.divisor = kTinyDivisor;
    options.queries = 3;
    options.plant_wrong_reference = true;
    bool ok = true;
    for (const char* name : kWorkloadNames) {
      options.workload = name;
      const RunResult run = RunWorkload(options);
      if (run.attempted == 0 || run.failed != run.attempted) {
        std::fprintf(stderr, "self-test: %s missed a planted wrong result\n",
                     name);
        ok = false;
      }
    }
    std::printf("self-test %s\n", ok ? "passed" : "FAILED");
    return ok ? 0 : 1;
  }

  options.workload = flags.GetString("workload", "");
  const RunResult run = RunWorkload(options);
  return run.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace memagg

int main(int argc, char** argv) { return memagg::Main(argc, argv); }
