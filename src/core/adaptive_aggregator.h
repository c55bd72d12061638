// Adaptive aggregation operator: online strategy selection with mid-query
// switching.
//
// The Figure 12 advisor (core/advisor.h) picks a strategy before execution,
// but its decisive inputs — group cardinality, skew, working-set size versus
// the last-level cache — are only reliably known once data flows (the
// hash-vs-sort empirical study arXiv 2411.13245; Graefe's in-stream vs.
// sort-based merge analysis arXiv 2010.00152). This operator instead:
//
//   1. samples the first K morsels with the cheapest strategy (worker-local
//      tables — contention-free and trivially extractable);
//   2. at each chunk barrier feeds EstimateGroupCardinality plus an online
//      skew estimate into per-strategy cost models whose thresholds are
//      keyed to the detected L3 size (util/cpu_cache.h, shared with
//      sim/cache_model.h's detected hierarchy);
//   3. switches among local-partition/central-merge, local-partition/
//      tree-merge, radix-partition, shared-map, and the hash→sort fallback
//      by moving the partially built group state through the
//      MigratableAggregator interface (core/migratable.h) — consumed rows
//      are never reprocessed;
//   4. re-dispatches the remaining morsels of the same deterministic grid to
//      the new strategy (Executor::ParallelForMorsels).
//
// Chunks grow geometrically, so the barrier count is O(log morsels) and the
// decision overhead amortizes to nothing. Switch points, rows migrated, and
// the final strategy are recorded in QueryStats (kStrategySwitches,
// kRowsMigrated, kAdaptiveStrategy); switch_trace() exposes the full
// decision path for benchmark reports. Cost-model details and calibration
// notes live in docs/adaptive.md.

#ifndef MEMAGG_CORE_ADAPTIVE_AGGREGATOR_H_
#define MEMAGG_CORE_ADAPTIVE_AGGREGATOR_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>

#include "core/advisor.h"
#include "core/aggregate.h"
#include "core/concepts.h"
#include "core/group_store_aggregator.h"
#include "core/migratable.h"
#include "core/operator.h"
#include "core/parallel_aggregator.h"
#include "core/partitioned_aggregator.h"
#include "core/result.h"
#include "core/sort_aggregator.h"
#include "core/sorters.h"
#include "exec/executor.h"
#include "hash/linear_probing_map.h"
#include "obs/query_stats.h"
#include "util/cpu_cache.h"
#include "util/macros.h"

namespace memagg {

/// The adaptive operator's strategy inventory. kSerialHash is the
/// single-worker degenerate case; the parallel five are the classic
/// parallel-aggregation designs (Cieslewicz & Ross lineage).
enum class AggStrategy : int {
  kSerialHash = 0,  ///< GroupStoreAggregator<LinearProbingMap> (1 worker).
  kLocalCentral,    ///< Worker-local tables, serial central merge.
  kLocalTree,       ///< Worker-local tables, parallel pairwise-tree merge.
  kRadix,           ///< Incremental radix partitioning, per-partition tables.
  kSharedMap,       ///< One lock-striped shared table, no merge phase.
  kSort,            ///< Buffer + parallel sort + run scan (high-cardinality
                    ///< fallback: aggregation degenerates, sorting streams).
};
inline constexpr int kNumAggStrategies = 6;

/// Stable lowercase identifier (switch traces, bench JSON).
const char* AggStrategyName(AggStrategy strategy);

/// A set of strategies, one bit per AggStrategy. The default is the whole
/// inventory.
struct AggStrategySet {
  unsigned bits = (1u << kNumAggStrategies) - 1;

  static constexpr AggStrategySet Of(
      std::initializer_list<AggStrategy> members) {
    AggStrategySet set{0};
    for (AggStrategy s : members) set.bits |= 1u << static_cast<int>(s);
    return set;
  }
  constexpr bool Contains(AggStrategy s) const {
    return ((bits >> static_cast<int>(s)) & 1u) != 0;
  }
  constexpr bool Single() const { return std::has_single_bit(bits); }
};

/// The engine's "Hybrid" label (paper Section 5.5): hash — serial, or
/// worker-local at more than one worker — with the sort fallback.
inline constexpr AggStrategySet kHybridStrategies = AggStrategySet::Of(
    {AggStrategy::kSerialHash, AggStrategy::kLocalCentral, AggStrategy::kSort});

/// Tuning knobs; the defaults are the measured configuration. The test
/// hooks (a one-member strategy set, rotate, chunk_morsels) exist so
/// correctness tests can pin or exercise the switching machinery
/// deterministically.
struct AdaptiveOptions {
  size_t sample_morsels = 2;    ///< K: morsels consumed before first decision.
  size_t l3_bytes = 0;          ///< Cost-model LLC size; 0 = detect.
  AggStrategySet strategies;    ///< The strategies the operator may run; a
                                ///< one-member set pins it (never switches).
  bool rotate = false;          ///< Ignore the cost model; switch to the next
                                ///< applicable strategy at every barrier.
  size_t chunk_morsels = 0;     ///< Fixed chunk size; 0 = geometric doubling.
};

/// Cheap strided sample statistics over the key column (the online skew
/// estimate): fraction of the sample occupied by its most frequent key, the
/// fraction of sampled keys seen once, and the distinct count.
struct KeySampleStats {
  double top_frac = 0.0;
  double singleton_frac = 0.0;
  size_t distinct = 0;
  size_t sampled = 0;
};
KeySampleStats MeasureKeySample(const uint64_t* keys, size_t n);

/// Everything the cost models consume at a decision barrier.
struct StrategyCostInputs {
  double rows_remaining = 0;  ///< Rows not yet consumed.
  double rows_total = 0;      ///< n.
  double est_groups = 1;      ///< Estimated total distinct groups.
  double skew = 0;            ///< KeySampleStats::top_frac.
  int workers = 1;
  double l3_bytes = 0;        ///< Detected LLC size.
  double entry_bytes = 24;    ///< Estimated bytes per resident group entry.
};

/// True if `strategy` can run under `workers` workers at all.
bool StrategyApplicable(AggStrategy strategy, int workers);

/// Predicted cycles to finish the remaining rows with `strategy` (build +
/// its merge/finish obligations; excludes migration). +inf if inapplicable.
double EstimatedStrategyCost(AggStrategy strategy,
                             const StrategyCostInputs& in);

/// Cycles to move the current partial state into `to`. Free for the
/// central-merge ↔ tree-merge pair: they share the structure and differ only
/// in how the finish phase merges it.
double EstimatedMigrationCost(AggStrategy from, AggStrategy to,
                              const ProgressSnapshot& progress);

/// Switch hysteresis, a cost-model constant like those in
/// adaptive_aggregator.cc: switch only if the best strategy's predicted cost,
/// migration included, is below kSwitchMargin × the cost of staying.
inline constexpr double kSwitchMargin = 0.8;

/// argmin of EstimatedStrategyCost over the applicable members of `allowed`.
AggStrategy ChooseAggStrategy(const StrategyCostInputs& in,
                              AggStrategySet allowed);

/// The lowest-numbered member of `allowed` applicable under `workers`: the
/// strategy a run starts on. Aborts if no member is applicable.
AggStrategy FirstApplicableStrategy(AggStrategySet allowed, int workers);

/// Next applicable member of `allowed` after `current`, in cyclic enum
/// order (rotation hook).
AggStrategy NextApplicableStrategy(AggStrategy current, int workers,
                                   AggStrategySet allowed);

/// The adaptive operator. Registered in the engine as "Adaptive" (every
/// strategy) and "Hybrid" (kHybridStrategies); "auto" is the Figure 12
/// advisor's pick, never this operator.
template <MergeableAggregatePolicy Aggregate>
class AdaptiveAggregator final : public VectorAggregator {
 public:
  using State = typename Aggregate::State;
  using Partial = PartialAggState<Aggregate>;

  /// Tables are sized from the key sample inside Build, not from
  /// `expected_size`. Every strategy it starts holds a copy of `aggregate`.
  AdaptiveAggregator(size_t /*expected_size*/, ExecutionContext exec,
                     AdaptiveOptions options = {}, Aggregate aggregate = {})
      : VectorAggregator(exec),
        opt_(options),
        aggregate_(std::move(aggregate)) {
    if (opt_.l3_bytes == 0) opt_.l3_bytes = DetectedL3CacheBytes();
    // Calibration aid (docs/adaptive.md): log every barrier decision.
    debug_ = std::getenv("MEMAGG_ADAPTIVE_DEBUG") != nullptr;
  }

  void ReserveGroups(size_t expected_groups) override {
    reserve_hint_ = expected_groups;
  }

  /// The second driver of the consume protocol (core/operator.h). The
  /// first call samples the keys, starts the first strategy, and decides at
  /// every chunk barrier. A later call continues in the current strategy
  /// and consumes its whole batch in one chunk. Either ends with the
  /// strategy's EndBatch.
  void Build(const uint64_t* keys, const uint64_t* values, size_t n) override {
    Executor executor(exec());
    const int workers = executor.num_workers();
    const size_t grain = executor.MorselRows(n);
    const size_t num_morsels = NumMorselsFor(n, grain);
    const auto consume = [&](size_t first_morsel, size_t last_morsel) {
      executor.ParallelForMorsels(
          n, first_morsel, last_morsel,
          [&](const Morsel& m) { op_->ConsumeMorsel(keys, values, m); },
          grain);
    };
    if (op_ != nullptr) {
      consume(0, num_morsels);
      op_->EndBatch();
      return;
    }

    const AggStrategy first =
        FirstApplicableStrategy(opt_.strategies, workers);
    // One-time strided probes over the full (in-memory) column — O(4096)
    // each, independent of n — run *before* the first strategy exists: the
    // group estimate sizes its tables. Reserving for n rows (the fixed
    // operators' safe bound) would zero tens of MB inside the query.
    const KeySampleStats sample = MeasureKeySample(keys, n);
    const size_t estimated =
        n == 0 ? 1
               : (reserve_hint_ != 0 ? reserve_hint_
                                     : EstimateGroupCardinality(keys, n));
    const double est_groups =
        static_cast<double>(std::max<size_t>(1, estimated));
    StartStrategy(first, GroupCapacityFor(first, est_groups, n == 0 ? 1 : n),
                  n == 0 ? 1 : n);

    size_t next_morsel = 0;
    // Geometric mode starts with at least one morsel per worker, so the
    // sampling chunk already runs at full parallelism.
    size_t chunk = std::max<size_t>(
        1, opt_.chunk_morsels != 0
               ? opt_.chunk_morsels
               : std::max(opt_.sample_morsels, static_cast<size_t>(workers)));
    while (next_morsel < num_morsels) {
      const size_t until = std::min(num_morsels, next_morsel + chunk);
      consume(next_morsel, until);
      next_morsel = until;
      if (next_morsel >= num_morsels) break;
      if (opt_.strategies.Single()) {
        chunk = num_morsels;  // Pinned: consume the rest in one go.
        continue;
      }
      DecideAtBarrier(n, est_groups, sample, workers);
      if (opt_.chunk_morsels == 0) chunk *= 2;
    }
    op_->EndBatch();
  }

  /// Morsels go to the strategy Build started.
  void ConsumeMorsel(const uint64_t* keys, const uint64_t* values,
                     const Morsel& m) override {
    op_->ConsumeMorsel(keys, values, m);
  }

  VectorResult Iterate() override {
    if (op_ == nullptr) Build(nullptr, nullptr, 0);  // Starts a strategy.
    return op_->Iterate();
  }

  size_t NumGroups() const override {
    return op_ == nullptr ? 0 : op_->NumGroups();
  }

  size_t DataStructureBytes() const override {
    return op_ == nullptr ? 0 : op_->DataStructureBytes();
  }

  void CollectStats(QueryStats* stats) const override {
    stats->Merge(stats_);
    stats->MaxOf(StatCounter::kAdaptiveStrategy,
                 static_cast<uint64_t>(current_) + 1);
    // Only the strategy the query ended on still holds structures; the
    // stats of switched-away strategies died with them (their rows are
    // accounted by kRowsMigrated).
    if (op_ != nullptr) op_->CollectStats(stats);
  }

  /// Decision path, e.g. "local-central@0->radix@262144": strategy names
  /// joined by the row counts at which each switch happened.
  const std::string& switch_trace() const { return trace_; }

  AggStrategy current_strategy() const { return current_; }

  uint64_t strategy_switches() const {
    return stats_.Get(StatCounter::kStrategySwitches);
  }

 private:
  /// Table capacity for a strategy's constructor: twice the group estimate
  /// (headroom for the GEE error band — the maps rehash-grow past it), never
  /// more than the rows it could possibly hold. The per-worker designs
  /// (local tables, radix's worker copies of each partition) split the
  /// capacity across workers but every worker can meet every group on
  /// shuffled data, so their budget scales back up by the worker count.
  size_t GroupCapacityFor(AggStrategy strategy, double est_groups,
                          size_t max_rows) const {
    if (strategy == AggStrategy::kSort) return max_rows;  // Buffers rows.
    double capacity = std::max(64.0, 2.0 * est_groups);
    if (strategy == AggStrategy::kLocalCentral ||
        strategy == AggStrategy::kLocalTree ||
        strategy == AggStrategy::kRadix) {
      capacity *= Executor(exec()).num_workers();
    }
    return static_cast<size_t>(
        std::min(static_cast<double>(max_rows), capacity));
  }

  /// The iterate-time merge of a partitioned strategy.
  static MergeMode MergeModeOf(AggStrategy strategy) {
    return strategy == AggStrategy::kLocalTree ? MergeMode::kTree
                                               : MergeMode::kCentral;
  }

  void StartStrategy(AggStrategy strategy, size_t expected_groups,
                     size_t expected_rows) {
    const int workers = Executor(exec()).num_workers();
    switch (strategy) {
      case AggStrategy::kSerialHash:
        MEMAGG_CHECK(workers == 1);
        op_ = std::make_unique<
            GroupStoreAggregator<LinearProbingMap, Aggregate>>(
            expected_groups, aggregate_);
        break;
      case AggStrategy::kLocalCentral:
      case AggStrategy::kLocalTree:
      case AggStrategy::kRadix:
        op_ = std::make_unique<PartitionedAggregator<Aggregate>>(
            expected_groups, exec(),
            strategy == AggStrategy::kRadix ? RadixPartitions(exec()) : 1,
            aggregate_, MergeModeOf(strategy));
        break;
      case AggStrategy::kSharedMap:
        op_ = std::make_unique<StripedParallelAggregator<Aggregate>>(
            expected_groups, exec(), aggregate_);
        break;
      case AggStrategy::kSort: {
        BlockIndirectSorter sorter;
        sorter.num_threads = exec().num_threads;
        op_ = std::make_unique<
            SortVectorAggregator<BlockIndirectSorter, Aggregate>>(sorter,
                                                                  aggregate_);
        break;
      }
    }
    op_->BeginConsume(workers, expected_rows);
    current_ = strategy;
    if (trace_.empty()) {
      trace_ = std::string(AggStrategyName(strategy)) + "@0";
    }
  }

  void DecideAtBarrier(size_t n, double est_groups_full,
                       const KeySampleStats& sample, int workers) {
    const ProgressSnapshot progress = op_->Progress();
    const double rows_seen = static_cast<double>(progress.rows);
    const double rows_remaining =
        static_cast<double>(n) - std::min(static_cast<double>(n), rows_seen);
    if (rows_remaining <= 0) return;

    // Group estimate: before any data flowed, the strided column estimate
    // (GEE) is all there is — but its scale-up both overshoots mid-range
    // cardinalities and sits a sqrt(n/sample) band below the truth on
    // all-distinct data. Once rows flowed, the live structures carry a
    // strictly better signal: under a uniform draw from C groups the
    // expected distinct count after r rows is D = C(1 - e^(-r/C)) (coupon
    // collector), so the observed (r, D) pair inverts to C by bisection.
    // Worker-local tables count a global group once per worker that saw it,
    // which is exactly the discovery curve of r/workers draws — hence the
    // basis division. The sort strategy reports groups == 0 and keeps the
    // sample estimate.
    double est_groups = est_groups_full;
    if (progress.groups > 0) {
      const bool local_tables = current_ == AggStrategy::kLocalCentral ||
                                current_ == AggStrategy::kLocalTree;
      const double basis = local_tables ? workers : 1.0;
      const double d = static_cast<double>(progress.groups) / basis;
      const double r = rows_seen / basis;
      double live = static_cast<double>(n);
      if (d < 0.98 * r) {  // Any saturation signal yet?
        double lo = d;
        double hi = static_cast<double>(n);
        for (int it = 0; it < 40; ++it) {
          const double mid = 0.5 * (lo + hi);
          const double predicted = mid * (1.0 - std::exp(-r / mid));
          (predicted < d ? lo : hi) = mid;
        }
        live = 0.5 * (lo + hi);
      }
      est_groups =
          std::min(static_cast<double>(n), std::max(d, live));
    }

    StrategyCostInputs in;
    in.rows_remaining = rows_remaining;
    in.rows_total = static_cast<double>(n);
    in.est_groups = est_groups;
    in.skew = sample.top_frac;
    in.workers = workers;
    in.l3_bytes = static_cast<double>(opt_.l3_bytes);
    in.entry_bytes =
        static_cast<double>(sizeof(State)) + 16.0 +
        (BuffersValues() ? 8.0 * in.rows_total / est_groups : 0.0);

    AggStrategy best =
        opt_.rotate
            ? NextApplicableStrategy(current_, workers, opt_.strategies)
            : ChooseAggStrategy(in, opt_.strategies);
    const double stay = EstimatedStrategyCost(current_, in);
    const double migration = EstimatedMigrationCost(current_, best, progress);
    const double go = EstimatedStrategyCost(best, in) + migration;
    if (debug_) {
      std::fprintf(stderr,
                   "[adaptive] rows=%.0f/%zu est=%.0f (sample %.0f) "
                   "stay=%s %.3gMcy best=%s %.3gMcy(+mig)\n",
                   rows_seen, n, est_groups, est_groups_full,
                   AggStrategyName(current_), stay / 1e6,
                   AggStrategyName(best), go / 1e6);
    }
    if (best == current_) return;
    // The margin hedges against migration that the model got wrong; a free
    // migration has nothing to hedge, so any predicted gain is worth taking.
    const double margin = migration == 0.0 ? 1.0 : kSwitchMargin;
    if (!opt_.rotate && go >= margin * stay) return;
    SwitchTo(best, rows_remaining, est_groups, progress);
  }

  void SwitchTo(AggStrategy next, double rows_remaining, double est_groups,
                const ProgressSnapshot& progress) {
    const auto is_local = [](AggStrategy s) {
      return s == AggStrategy::kLocalCentral || s == AggStrategy::kLocalTree;
    };
    if (is_local(current_) && is_local(next)) {
      // Same structure, different finish: flip the merge mode in place.
      static_cast<PartitionedAggregator<Aggregate>*>(op_.get())
          ->set_merge_mode(MergeModeOf(next));
      current_ = next;
      stats_.Add(StatCounter::kStrategySwitches, 1);
      trace_ += "->";
      trace_ += AggStrategyName(next);
      trace_ += "@0";
      return;
    }
    Partial partial = op_->ExtractPartialState();
    const uint64_t moved = partial.rows;
    // Destroy the drained strategy before building its successor so peak
    // memory holds one structure plus the (compact) partial state.
    op_.reset();
    const size_t max_rows = static_cast<size_t>(rows_remaining) +
                            std::max<uint64_t>(moved, progress.groups);
    StartStrategy(next, GroupCapacityFor(next, est_groups, max_rows),
                  max_rows);
    op_->AbsorbPartialState(std::move(partial));
    stats_.Add(StatCounter::kStrategySwitches, 1);
    stats_.Add(StatCounter::kRowsMigrated, moved);
    trace_ += "->";
    trace_ += AggStrategyName(next);
    trace_ += "@";
    trace_ += std::to_string(moved);
  }

  /// True if the aggregate keeps a group's values (or row ids) until
  /// Finalize — the holistic policies, whose FinalizeRun evaluates a
  /// buffered run, and a composite with a holistic member — so its resident
  /// entries are fat, which the cost models must know.
  bool BuffersValues() const {
    if constexpr (requires { aggregate_.buffers_rows(); }) {
      return aggregate_.buffers_rows();
    } else {
      return requires(uint64_t* values, size_t count) {
        aggregate_.FinalizeRun(values, count);
      };
    }
  }

  AdaptiveOptions opt_;
  size_t reserve_hint_ = 0;
  std::unique_ptr<MigratableAggregator<Aggregate>> op_;  ///< Current strategy.
  AggStrategy current_ = AggStrategy::kSerialHash;
  bool debug_ = false;        ///< MEMAGG_ADAPTIVE_DEBUG decision logging.
  std::string trace_;
  QueryStats stats_;  ///< Switch accounting (merged in CollectStats).
  [[no_unique_address]] Aggregate aggregate_;
};

}  // namespace memagg

#endif  // MEMAGG_CORE_ADAPTIVE_AGGREGATOR_H_
