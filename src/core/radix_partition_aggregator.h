// Radix-partitioned parallel aggregation (extension).
//
// The third classic parallel strategy from the paper's related work (Ye et
// al.'s PLAT lineage, §7): partition the key space so that partitions are
// disjoint, and aggregate each partition in private tables with no
// synchronization. Rows are routed incrementally: worker w aggregates the
// keys of partition p into its own table tables_[w * P + p], so each table
// covers 1/P of the key space and stays cache-resident. Unlike
// LocalPartitionAggregator, whose worker tables all overlap, the iterate
// phase merges only the W copies of each partition, and the P merges are
// disjoint, so they run in parallel.
//
// Partitions are assigned by hash bits, so identical keys always land in the
// same partition and skew spreads uniformly.

#ifndef MEMAGG_CORE_RADIX_PARTITION_AGGREGATOR_H_
#define MEMAGG_CORE_RADIX_PARTITION_AGGREGATOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/aggregate.h"
#include "core/concepts.h"
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

/// Partition-then-aggregate parallel operator. Any mergeable aggregate
/// works, holistic ones included (their buffers concatenate on Merge).
template <MergeableAggregatePolicy Aggregate>
class RadixPartitionAggregator final : public MigratableAggregator<Aggregate> {
 public:
  using State = typename Aggregate::State;
  using Partial = PartialAggState<Aggregate>;

  /// One table per (worker, partition). The size hint is spread over all
  /// W x P tables, so together they hold `expected_size` groups before
  /// growing.
  RadixPartitionAggregator(size_t expected_size, ExecutionContext exec,
                           Aggregate aggregate = {})
      : MigratableAggregator<Aggregate>(exec),
        num_workers_(Executor(exec).num_workers()),
        num_partitions_(NextPowerOfTwo(static_cast<uint64_t>(
            std::max(1, exec.num_threads)))),
        rows_consumed_(num_workers_),
        aggregate_(std::move(aggregate)) {
    const size_t tables = static_cast<size_t>(num_workers_) * num_partitions_;
    tables_.reserve(tables);
    for (size_t t = 0; t < tables; ++t) {
      tables_.push_back(std::make_unique<LinearProbingMap<State>>(
          expected_size / tables + 1));
    }
  }

  void BeginConsume(int num_workers, size_t /*expected_rows*/) override {
    MEMAGG_CHECK(num_workers <= num_workers_ &&
                 "more workers than the radix tables were built for");
  }

  void ConsumeMorsel(const uint64_t* keys, const uint64_t* values,
                     const Morsel& m) override {
    const size_t base = static_cast<size_t>(m.worker) * num_partitions_;
    for (size_t i = m.begin; i < m.end; ++i) {
      const uint64_t value = Aggregate::kNeedsValues ? values[i] : 0;
      LinearProbingMap<State>& table = *tables_[base + PartitionOf(keys[i])];
      aggregate_.Update(table.GetOrInsert(keys[i]), value);
    }
    rows_consumed_[m.worker] += m.end - m.begin;
  }

  /// Folds every worker's copy of partition p into worker 0's copy, the P
  /// merges in parallel (their key ranges are disjoint), then walks worker
  /// 0's tables.
  VectorResult Iterate() override {
    {
      PhaseTimer merge_timer(&stats_, StatPhase::kMerge);
      if (num_workers_ > 1) stats_.Add(StatCounter::kMergeRounds, 1);
      Executor(this->exec())
          .ParallelFor(
              num_partitions_,
              [&](const Morsel& m) {
                for (size_t p = m.begin; p < m.end; ++p) {
                  LinearProbingMap<State>& into = *tables_[p];
                  for (int w = 1; w < num_workers_; ++w) {
                    LinearProbingMap<State>& from = *tables_[Slot(w, p)];
                    from.ForEach([this, &into](EncodedKey key,
                                               const State& state) {
                      aggregate_.Merge(into.GetOrInsert(key),
                                       const_cast<State&>(state));
                    });
                    from = LinearProbingMap<State>(2);
                  }
                }
              },
              /*grain=*/1);
    }
    VectorResult result;
    result.reserve(NumGroups());
    for (size_t p = 0; p < num_partitions_; ++p) {
      tables_[p]->ForEach([this, &result](EncodedKey key,
                                          const State& state) {
        result.push_back(
            {key, aggregate_.Finalize(const_cast<State&>(state))});
      });
    }
    return result;
  }

  // --- MigratableAggregator (core/migratable.h) -----------------------------

  ProgressSnapshot Progress() const override {
    ProgressSnapshot snapshot;
    for (int w = 0; w < rows_consumed_.size(); ++w) {
      snapshot.rows += rows_consumed_[w];
    }
    snapshot.groups = NumGroups();
    snapshot.bytes = DataStructureBytes();
    return snapshot;
  }

  Partial ExtractPartialState() override {
    Partial out;
    for (int w = 0; w < rows_consumed_.size(); ++w) {
      out.rows += rows_consumed_[w];
      rows_consumed_[w] = 0;
    }
    for (auto& table : tables_) {
      table->ForEach([&out](EncodedKey key, const State& state) {
        out.partials.emplace_back(key, std::move(const_cast<State&>(state)));
      });
    }
    tables_.clear();
    return out;
  }

  void AbsorbPartialState(Partial&& partial) override {
    for (auto& [key, state] : partial.partials) {
      aggregate_.Merge(tables_[PartitionOf(key)]->GetOrInsert(key), state);
    }
    for (const auto& [key, value] : partial.records) {
      aggregate_.Update(tables_[PartitionOf(key)]->GetOrInsert(key), value);
    }
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
    for (const auto& table : tables_) {
      stats->Add(StatCounter::kHashEntries, table->size());
      stats->Add(StatCounter::kRehashes, table->rehashes());
      const auto probe = table->ComputeProbeStats();
      stats->Add(StatCounter::kProbeTotal, probe.total_probes);
      stats->MaxOf(StatCounter::kProbeMax, probe.max_probe);
      // Each table owns a private arena, freed wholesale with the table.
      AddAllocStats(stats, table->AllocatorStats());
    }
  }

 private:
  size_t PartitionOf(EncodedKey key) const {
    return (HashKey(key) >> 40) & (num_partitions_ - 1);
  }

  size_t Slot(int worker, size_t partition) const {
    return static_cast<size_t>(worker) * num_partitions_ + partition;
  }

  int num_workers_;
  size_t num_partitions_;
  // Worker w's table for partition p at tables_[w * P + p].
  std::vector<std::unique_ptr<LinearProbingMap<State>>> tables_;
  WorkerLocal<uint64_t> rows_consumed_;  ///< Rows consumed, per worker.
  QueryStats stats_;  // Merge-subphase timing and merge-round counts.
  [[no_unique_address]] Aggregate aggregate_;
};

}  // namespace memagg

#endif  // MEMAGG_CORE_RADIX_PARTITION_AGGREGATOR_H_
