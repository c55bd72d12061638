// Sort-based vector aggregation (paper Section 3.1).
//
// Build phase: copy the input into one row buffer (keys only, or
// (key, value) records when the aggregate reads values) and sort it by key,
// which places each group's records in one contiguous run. Iterate phase:
// scan the runs; distributive/algebraic aggregates fold each run into a
// state, and holistic aggregates evaluate directly over the run — the reason
// sorting wins on holistic queries (paper Sections 5.2 and 6): no per-group
// buffering is ever needed.

#ifndef MEMAGG_CORE_SORT_AGGREGATOR_H_
#define MEMAGG_CORE_SORT_AGGREGATOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/aggregate.h"
#include "core/concepts.h"
#include "core/migratable.h"
#include "core/operator.h"
#include "core/result.h"
#include "exec/executor.h"
#include "obs/query_stats.h"
#include "sort/sort_common.h"
#include "util/encoded_key.h"
#include "util/macros.h"
#include "util/tracer.h"

namespace memagg {

/// Vector aggregation via sorting. `SorterT` is a functor from
/// core/sorters.h modeling the Sorter concept; `Aggregate` is an aggregate
/// policy. `Tracer` reports the operator's row-buffer accesses (the sort
/// kernel itself is traced by wrapping the sorter's KeyOf — see
/// sim/traced_engine.h).
template <Sorter SorterT, MergeableAggregatePolicy Aggregate,
          MemoryTracer Tracer = NullTracer>
class SortVectorAggregator final : public MigratableAggregator<Aggregate> {
 public:
  using State = typename Aggregate::State;
  using Partial = PartialAggState<Aggregate>;
  /// A buffered row: the key alone when the aggregate ignores values, so
  /// COUNT keeps the paper's 8 B/row (Tables 6-7); else (key, value).
  using Row = std::conditional_t<Aggregate::kNeedsValues,
                                 std::pair<uint64_t, uint64_t>, uint64_t>;

  explicit SortVectorAggregator(SorterT sorter = SorterT{})
      : sorter_(std::move(sorter)) {}

  void BuildOwned(std::vector<uint64_t>&& keys,
                  std::vector<uint64_t>&& values) override {
    MEMAGG_CHECK(rows_.empty() && "BuildOwned runs once, on an empty operator");
    if constexpr (Aggregate::kNeedsValues) {
      // (key, value) records must be materialized, but the source columns
      // are released as soon as they are zipped.
      rows_.resize(keys.size());
      for (size_t i = 0; i < keys.size(); ++i) {
        rows_[i] = {keys[i], values[i]};
      }
      std::vector<uint64_t>().swap(keys);
      std::vector<uint64_t>().swap(values);
    } else {
      // In-place: adopt the caller's array and sort it directly — no copy,
      // the paper's memory-efficient sort path.
      rows_ = std::move(keys);
      values.clear();
    }
    EndBatch();
  }

  /// One worker appends straight to the buffer that gets sorted; more
  /// workers get private buffers, which EndBatch concatenates.
  void BeginConsume(int num_workers, size_t expected_rows) override {
    if (num_workers == 1) {
      rows_.reserve(rows_.size() + expected_rows);
      return;
    }
    MEMAGG_CHECK(worker_rows_ == nullptr && "BeginConsume is once-only");
    worker_rows_ = std::make_unique<WorkerLocal<std::vector<Row>>>(num_workers);
    const size_t per_worker =
        expected_rows / static_cast<size_t>(num_workers) + 1;
    worker_rows_->ForEach(
        [per_worker](std::vector<Row>& buf) { buf.reserve(per_worker); });
  }

  void ConsumeMorsel(const uint64_t* keys, const uint64_t* values,
                     const Morsel& m) override {
    std::vector<Row>& out =
        worker_rows_ == nullptr ? rows_ : (*worker_rows_)[m.worker];
    if constexpr (Aggregate::kNeedsValues) {
      for (size_t i = m.begin; i < m.end; ++i) {
        out.emplace_back(keys[i], values[i]);
        Tracer::OnAccess(&out.back(), sizeof(Row));
      }
    } else {
      const size_t old = out.size();
      out.insert(out.end(), keys + m.begin, keys + m.end);
      if constexpr (Tracer::kEnabled) {
        for (size_t i = old; i < out.size(); ++i) {
          Tracer::OnAccess(&out[i], sizeof(Row));
        }
      }
    }
  }

  /// Sorts the batch's rows and merges them into the sorted rows of earlier
  /// batches, so a first batch is one sort and the sort stays in the build
  /// phase. Absorbed partials sort by key for the run scan's merge-join.
  void EndBatch() override {
    if (worker_rows_ != nullptr) {
      size_t total = rows_.size();
      worker_rows_->ForEach(
          [&total](std::vector<Row>& buf) { total += buf.size(); });
      rows_.reserve(total);
      worker_rows_->ForEach([this](std::vector<Row>& buf) {
        rows_.insert(rows_.end(), buf.begin(), buf.end());
        std::vector<Row>().swap(buf);
      });
    }
    {
      PhaseTimer sort_timer(&stats_, StatPhase::kSort);
      sorter_(rows_.data() + sorted_, rows_.data() + rows_.size(), KeyOf{});
      std::inplace_merge(rows_.begin(), rows_.begin() + sorted_, rows_.end(),
                         KeyLess<KeyOf>{});
    }
    stats_.Add(StatCounter::kRowsSorted, rows_.size() - sorted_);
    sorted_ = rows_.size();
    std::sort(absorbed_.begin(), absorbed_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }

  VectorResult Iterate() override { return Scan(0, ~0ULL); }

  /// Sorted data admits range filtering by scanning the bounded subrange;
  /// exposed for completeness (the paper's Q7 focuses on trees).
  bool SupportsRange() const override { return true; }

  VectorResult IterateRange(uint64_t lo, uint64_t hi) override {
    return Scan(lo, hi);
  }

  // --- MigratableAggregator (core/migratable.h) -----------------------------
  // Consuming only buffers rows; a hash predecessor's partial states are
  // kept aside and merge-joined with the sorted runs by the scan (the
  // hash→sort spill).

  ProgressSnapshot Progress() const override {
    ProgressSnapshot snapshot;
    snapshot.rows = partial_rows_ + rows_.size();
    if (worker_rows_ != nullptr) {
      for (int w = 0; w < worker_rows_->size(); ++w) {
        snapshot.rows += (*worker_rows_)[w].size();
      }
    }
    snapshot.bytes = DataStructureBytes();
    snapshot.groups = 0;  // Unknown until the sort; 0 means "no estimate".
    return snapshot;
  }

  Partial ExtractPartialState() override {
    Partial out;
    const auto take = [&out](std::vector<Row>& rows) {
      for (const Row& row : rows) {
        out.records.emplace_back(KeyOf{}(row), ValueOf(row));
      }
      std::vector<Row>().swap(rows);
    };
    take(rows_);
    if (worker_rows_ != nullptr) worker_rows_->ForEach(take);
    sorted_ = 0;
    out.partials = std::move(absorbed_);
    absorbed_.clear();
    out.rows = out.records.size() + partial_rows_;
    partial_rows_ = 0;
    return out;
  }

  void AbsorbPartialState(Partial&& partial) override {
    for (const auto& [key, value] : partial.records) {
      if constexpr (Aggregate::kNeedsValues) {
        rows_.emplace_back(key, value);
      } else {
        rows_.push_back(key);
      }
    }
    partial_rows_ += partial.rows - partial.records.size();
    absorbed_.reserve(absorbed_.size() + partial.partials.size());
    for (auto& entry : partial.partials) {
      absorbed_.push_back(std::move(entry));
    }
  }

  /// Distinct keys across every row and partial state held. Counted on a
  /// key copy: rows consumed since the last EndBatch are unsorted, and a
  /// const call must not reorder them.
  size_t NumGroups() const override {
    std::vector<EncodedKey> keys;
    const auto add_keys = [&keys](const auto& rows) {
      for (const auto& row : rows) keys.push_back(KeyOf{}(row));
    };
    add_keys(rows_);
    if (worker_rows_ != nullptr) {
      for (int w = 0; w < worker_rows_->size(); ++w) {
        add_keys((*worker_rows_)[w]);
      }
    }
    for (const auto& entry : absorbed_) keys.push_back(entry.first);
    std::sort(keys.begin(), keys.end());
    return static_cast<size_t>(std::unique(keys.begin(), keys.end()) -
                               keys.begin());
  }

  size_t DataStructureBytes() const override {
    size_t bytes = rows_.capacity() * sizeof(Row) +
                   absorbed_.capacity() * sizeof(absorbed_[0]);
    if (worker_rows_ != nullptr) {
      for (int w = 0; w < worker_rows_->size(); ++w) {
        bytes += (*worker_rows_)[w].capacity() * sizeof(Row);
      }
    }
    return bytes;
  }

  void CollectStats(QueryStats* stats) const override {
    stats->Merge(stats_);
  }

 private:
  using KeyOf = std::conditional_t<Aggregate::kNeedsValues, PairFirstKey,
                                   IdentityKey>;

  static uint64_t ValueOf(const Row& row) {
    if constexpr (Aggregate::kNeedsValues) {
      return row.second;
    } else {
      return 0;
    }
  }

  /// The one run scan, behind Iterate and IterateRange: walks the sorted
  /// rows run by run, merge-joins the sorted absorbed partials, and emits
  /// the groups with keys in [lo, hi].
  VectorResult Scan(uint64_t lo, uint64_t hi) {
    VectorResult result;
    const size_t n = rows_.size();
    size_t run_begin = 0;
    size_t partial_begin = 0;
    while (run_begin < n || partial_begin < absorbed_.size()) {
      const bool from_rows =
          run_begin < n && (partial_begin == absorbed_.size() ||
                            KeyOf{}(rows_[run_begin]) <=
                                absorbed_[partial_begin].first);
      const EncodedKey key = from_rows ? KeyOf{}(rows_[run_begin])
                                       : absorbed_[partial_begin].first;
      size_t run_end = run_begin;
      while (run_end < n && KeyOf{}(rows_[run_end]) == key) {
        Tracer::OnAccess(&rows_[run_end], sizeof(Row));
        ++run_end;
      }
      size_t partial_end = partial_begin;
      while (partial_end < absorbed_.size() &&
             absorbed_[partial_end].first == key) {
        ++partial_end;
      }
      if (key > hi) break;
      if (key >= lo) {
        result.push_back(
            {key, AggregateGroup(run_begin, run_end, partial_begin,
                                 partial_end)});
      }
      run_begin = run_end;
      partial_begin = partial_end;
    }
    return result;
  }

  /// Aggregates one group: its run of rows plus any absorbed partials.
  /// Holistic aggregates with a FinalizeRun fast path evaluate a run that
  /// has no partial over its values in place; the rest fold through a state.
  double AggregateGroup(size_t run_begin, size_t run_end, size_t partial_begin,
                        size_t partial_end) {
    if constexpr (requires(uint64_t* v, size_t c) {
                    Aggregate::FinalizeRun(v, c);
                  }) {
      if (partial_begin == partial_end) {
        run_values_.resize(run_end - run_begin);
        for (size_t i = run_begin; i < run_end; ++i) {
          run_values_[i - run_begin] = ValueOf(rows_[i]);
        }
        return Aggregate::FinalizeRun(run_values_.data(), run_values_.size());
      }
    }
    State state{};
    for (size_t i = run_begin; i < run_end; ++i) {
      Aggregate::Update(state, ValueOf(rows_[i]));
    }
    for (size_t p = partial_begin; p < partial_end; ++p) {
      Aggregate::Merge(state, absorbed_[p].second);
    }
    return Aggregate::Finalize(state);
  }

  SorterT sorter_;
  std::vector<Row> rows_;  ///< Sorted in [0, sorted_); a batch appends after.
  size_t sorted_ = 0;
  /// Per-worker buffers, only when more than one worker consumes.
  std::unique_ptr<WorkerLocal<std::vector<Row>>> worker_rows_;
  std::vector<uint64_t> run_values_;  // Scratch for holistic runs.
  /// Partial states absorbed from a predecessor strategy, key-sorted at
  /// EndBatch.
  std::vector<std::pair<uint64_t, State>> absorbed_;
  uint64_t partial_rows_ = 0;  ///< Rows represented by absorbed_ partials.
  QueryStats stats_;           // Sort-kernel subphase + row counts.
};

}  // namespace memagg

#endif  // MEMAGG_CORE_SORT_AGGREGATOR_H_
