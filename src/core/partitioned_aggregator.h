// Partitioned parallel aggregation: worker-private tables, merged at iterate
// time (extension).
//
// The paper's Section 5.8/7 frames the key design question for parallel
// aggregation: should threads share one concurrent structure, or work
// independently and merge (Cieslewicz & Ross VLDB'07; Ye et al.'s PLAT)?
// The Table 8 operators and the locked tables of core/parallel_aggregator.h
// answer "share"; this operator answers "independent", so the two can be
// compared: each worker aggregates the morsels it claims into private
// linear-probing tables (no synchronization at all during the build), and
// the iterate phase merges them.
//
// The key space is split into P partitions by hash bits, and worker w keeps
// its table for partition p at tables_[w * P + p]:
//
//   * P = 1 (Hash_PLocal; the adaptive operator's local-central and
//     local-tree): one table per worker, each meeting every key. With few
//     groups the merge is negligible and local tables scale perfectly; with
//     many groups the merge re-processes every group once per worker.
//   * P = the thread budget rounded up to a power of two (Hash_PRadix; the
//     adaptive operator's radix strategy; RadixPartitions()): rows are
//     routed as they are consumed, so each table covers 1/P of the key space
//     and stays cache-resident, and the merges of the P partitions touch
//     disjoint tables, so they run in parallel.
//
// Identical keys always land in the same partition, and skew spreads
// uniformly over the partitions. Works for all aggregate categories —
// holistic states merge by buffer concatenation.

#ifndef MEMAGG_CORE_PARTITIONED_AGGREGATOR_H_
#define MEMAGG_CORE_PARTITIONED_AGGREGATOR_H_

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/aggregate.h"
#include "core/concepts.h"
#include "core/group_store_aggregator.h"
#include "core/migratable.h"
#include "core/operator.h"
#include "core/result.h"
#include "exec/executor.h"
#include "hash/hash_fn.h"
#include "hash/linear_probing_map.h"
#include "obs/query_stats.h"
#include "util/bits.h"
#include "util/encoded_key.h"
#include "util/macros.h"

namespace memagg {

/// The partition count of the radix designs (Hash_PRadix and the adaptive
/// operator's radix strategy): the thread budget rounded up to a power of
/// two.
inline size_t RadixPartitions(const ExecutionContext& exec) {
  return NextPowerOfTwo(static_cast<uint64_t>(std::max(1, exec.num_threads)));
}

/// How PartitionedAggregator folds the W worker copies of each partition
/// into worker 0's at iterate time. kCentral folds copies 1..W-1 into copy 0
/// in one merge phase (cheap when groups are few); kTree merges disjoint
/// pairs of copies in parallel rounds, halving the copy count per round
/// (ceil(log2 W) phases — wins when the per-table group count is large
/// enough that one thread's walk of W-1 tables dominates).
enum class MergeMode { kCentral, kTree };

/// Independent worker-private tables over P key partitions, merged at
/// iterate time — which is why the aggregate must be mergeable. Any
/// mergeable aggregate works, holistic ones included.
template <MergeableAggregatePolicy Aggregate>
class PartitionedAggregator final : public MigratableAggregator<Aggregate> {
 public:
  using State = typename Aggregate::State;
  using Partial = PartialAggState<Aggregate>;
  using Table = LinearProbingMap<State>;

  /// One table per (worker, partition); `num_partitions` is a power of two.
  /// The size hint is spread over all W x P tables, so together they hold
  /// `expected_size` groups before growing.
  PartitionedAggregator(size_t expected_size, ExecutionContext exec,
                        size_t num_partitions, Aggregate aggregate = {},
                        MergeMode merge_mode = MergeMode::kCentral)
      : MigratableAggregator<Aggregate>(exec),
        num_workers_(Executor(exec).num_workers()),
        num_partitions_(num_partitions),
        merge_mode_(merge_mode),
        rows_consumed_(num_workers_),
        aggregate_(std::move(aggregate)) {
    MEMAGG_CHECK(std::has_single_bit(num_partitions) &&
                 "the partition count must be a power of two");
    const size_t tables = static_cast<size_t>(num_workers_) * num_partitions_;
    tables_.reserve(tables);
    for (size_t t = 0; t < tables; ++t) {
      tables_.push_back(std::make_unique<Table>(expected_size / tables + 1));
    }
  }

  /// The merge mode only matters at iterate time, so the adaptive operator
  /// can flip it mid-build without touching the tables — a "switch" between
  /// the central-merge and tree-merge strategies migrates no state.
  void set_merge_mode(MergeMode merge_mode) { merge_mode_ = merge_mode; }

  void BeginConsume(int num_workers, size_t /*expected_rows*/) override {
    MEMAGG_CHECK(num_workers <= num_workers_ &&
                 "more workers than the tables were built for");
  }

  /// A worker folds every morsel it claims into its own tables, so no
  /// synchronization is needed.
  void ConsumeMorsel(const uint64_t* keys, const uint64_t* values,
                     const Morsel& m) override {
    if (num_partitions_ == 1) {
      ConsumeUnrouted(*tables_[m.worker], keys, values, m);
    } else {
      ConsumeRouted(static_cast<size_t>(m.worker) * num_partitions_, keys,
                    values, m);
    }
    rows_consumed_[m.worker] += m.end - m.begin;
  }

  /// Folds every worker's copy of each partition into worker 0's, per the
  /// merge mode, then walks worker 0's tables.
  VectorResult Iterate() override {
    {
      PhaseTimer merge_timer(&stats_, StatPhase::kMerge);
      if (merge_mode_ == MergeMode::kCentral) {
        MergeCentral();
      } else {
        MergeTree();
      }
    }
    VectorResult result;
    result.reserve(NumGroups());
    for (size_t p = 0; p < num_partitions_; ++p) {
      tables_[p]->ForEach(FinalizeInto(&result, aggregate_));
    }
    return result;
  }

  // --- MigratableAggregator (core/migratable.h) -----------------------------

  ProgressSnapshot Progress() const override {
    uint64_t rows = 0;
    for (int w = 0; w < rows_consumed_.size(); ++w) rows += rows_consumed_[w];
    return {rows, NumGroups(), DataStructureBytes()};
  }

  Partial ExtractPartialState() override {
    Partial out;
    for (int w = 0; w < rows_consumed_.size(); ++w) {
      out.rows += rows_consumed_[w];
      rows_consumed_[w] = 0;
    }
    // Keys present in several worker tables appear once per table; the
    // absorber's Merge recombines them, so no pre-merge pass is needed.
    out.partials.reserve(NumGroups());
    for (auto& table : tables_) DrainGroups(*table, &out);
    tables_.clear();
    return out;
  }

  void AbsorbPartialState(Partial&& partial) override {
    FoldGroups(
        partial,
        [this](EncodedKey key) -> State& {
          return TableOf(0, PartitionOf(key)).GetOrInsert(key);
        },
        aggregate_);
    rows_consumed_[0] += partial.rows;
  }

  /// Before the iterate-time merge this is an upper bound (a key counts once
  /// per worker that met it); exact after Iterate().
  size_t NumGroups() const override {
    size_t total = 0;
    for (const auto& table : tables_) total += table->size();
    return total;
  }

  size_t DataStructureBytes() const override {
    size_t total = 0;
    for (const auto& table : tables_) total += table->MemoryBytes();
    return total;
  }

  void CollectStats(QueryStats* stats) const override {
    stats->Merge(stats_);
    stats->Add(StatCounter::kPartitions, num_partitions_);
    // Each table owns a private arena, freed wholesale with the table.
    for (const auto& table : tables_) AddStoreStats<State>(*table, stats);
  }

 private:
  size_t PartitionOf(EncodedKey key) const {
    return (HashKey(key) >> 40) & (num_partitions_ - 1);
  }

  Table& TableOf(int worker, size_t partition) {
    return *tables_[static_cast<size_t>(worker) * num_partitions_ +
                    partition];
  }

  /// One partition: the worker's one table takes every row. Kept out of
  /// line, one call per morsel: inlined next to the routed loop, it shares
  /// that loop's register allocation, whose pressure spills a pointer this
  /// loop would then reload on every row.
  [[gnu::noinline]] void ConsumeUnrouted(Table& table, const uint64_t* keys,
                                         const uint64_t* values,
                                         const Morsel& m) {
    if constexpr (Aggregate::kNeedsValues) {
      for (size_t i = m.begin; i < m.end; ++i) {
        aggregate_.Update(table.GetOrInsert(keys[i]), values[i]);
      }
    } else {
      for (size_t i = m.begin; i < m.end; ++i) {
        aggregate_.Update(table.GetOrInsert(keys[i]), 0);
      }
    }
  }

  /// Routes each row to the table of its key's partition among the
  /// worker's tables, which start at slot `base`.
  void ConsumeRouted(size_t base, const uint64_t* keys, const uint64_t* values,
                     const Morsel& m) {
    for (size_t i = m.begin; i < m.end; ++i) {
      const uint64_t value = Aggregate::kNeedsValues ? values[i] : 0;
      Table& table = *tables_[base + PartitionOf(keys[i])];
      aggregate_.Update(table.GetOrInsert(keys[i]), value);
    }
  }

  /// Folds `from` into `into` and frees the merged-away table eagerly.
  /// Move-assignment releases the old table's slots and its arena chunks
  /// wholesale — one deallocation per table, not one per entry.
  void MergeInto(Table& into, Table& from) const {
    FoldGroups(from, into, aggregate_);
    from = Table(2);
  }

  /// Runs merge(i) for every i in [0, n), one item per morsel: the items of
  /// one merge phase touch disjoint tables.
  template <std::invocable<size_t> Merge>
  void ParallelMerges(size_t n, Merge merge) {
    Executor(this->exec())
        .ParallelFor(
            n,
            [&merge](const Morsel& m) {
              for (size_t i = m.begin; i < m.end; ++i) merge(i);
            },
            /*grain=*/1);
  }

  /// One phase: each partition's copies 1..W-1 fold into copy 0, the P
  /// partitions in parallel. A single partition folds on the caller.
  void MergeCentral() {
    if (num_workers_ > 1) stats_.Add(StatCounter::kMergeRounds, 1);
    const auto merge_partition = [this](size_t p) {
      for (int w = 1; w < num_workers_; ++w) {
        MergeInto(TableOf(0, p), TableOf(w, p));
      }
    };
    if (num_partitions_ == 1) {
      merge_partition(0);
    } else {
      ParallelMerges(num_partitions_, merge_partition);
    }
  }

  /// Round r merges copy t+stride into copy t of every partition; the
  /// merges of one round are disjoint, so each round runs in parallel.
  /// ceil(log2 W) rounds, versus W-1 serial table walks for kCentral.
  void MergeTree() {
    for (int stride = 1; stride < num_workers_; stride *= 2) {
      std::vector<int> into;  // The workers whose copies absorb this round.
      for (int t = 0; t + stride < num_workers_; t += 2 * stride) {
        into.push_back(t);
      }
      stats_.Add(StatCounter::kMergeRounds, 1);
      ParallelMerges(into.size() * num_partitions_, [&](size_t i) {
        const int t = into[i / num_partitions_];
        const size_t p = i % num_partitions_;
        MergeInto(TableOf(t, p), TableOf(t + stride, p));
      });
    }
  }

  int num_workers_;
  size_t num_partitions_;
  MergeMode merge_mode_;
  // Worker w's table for partition p at tables_[w * P + p].
  std::vector<std::unique_ptr<Table>> tables_;
  WorkerLocal<uint64_t> rows_consumed_;  ///< Rows consumed, per worker.
  QueryStats stats_;  // Merge-subphase timing and merge-phase counts.
  [[no_unique_address]] Aggregate aggregate_;
};

}  // namespace memagg

#endif  // MEMAGG_CORE_PARTITIONED_AGGREGATOR_H_
