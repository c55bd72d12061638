// Aggregate-function framework (paper Section 2).
//
// Functions are classified into the three categories of Gray et al.'s data
// cube taxonomy:
//   * distributive (Count, Sum, Min, Max) — computable over partitions and
//     merged, so operators may aggregate eagerly during the build phase;
//   * algebraic (Average) — a fixed-size combination of distributive
//     aggregates (Sum + Count);
//   * holistic (Median, Mode) — need every value of a group together, so
//     hash/tree operators must buffer all values per group and sort-based
//     operators aggregate over contiguous runs.
//
// Each aggregate is a policy with a per-group State, an Update step applied
// during the build phase, and a Finalize step applied during the iterate
// phase. The aggregation operators are templated on these policies and hold
// one by value, calling every step through it: the seven policies below are
// empty, so they are [[no_unique_address]] members whose static steps
// compile to the same code as a call through the type, while a runtime
// policy — CompositeAggregate (core/composite_aggregate.h), which folds all
// of a query's aggregates in one pass — carries its members and columns.

#ifndef MEMAGG_CORE_AGGREGATE_H_
#define MEMAGG_CORE_AGGREGATE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "util/macros.h"

namespace memagg {

/// Gray et al.'s aggregate-function taxonomy.
enum class FunctionCategory { kDistributive, kAlgebraic, kHolistic };

/// The aggregate functions exercised by the Table 1 queries, plus the other
/// common distributive functions.
enum class AggregateFunction { kCount, kSum, kMin, kMax, kAverage, kMedian,
                               kMode };
inline constexpr size_t kNumAggregateFunctions = 7;

/// Category of `fn` per the taxonomy above.
inline FunctionCategory CategoryOf(AggregateFunction fn) {
  switch (fn) {
    case AggregateFunction::kCount:
    case AggregateFunction::kSum:
    case AggregateFunction::kMin:
    case AggregateFunction::kMax:
      return FunctionCategory::kDistributive;
    case AggregateFunction::kAverage:
      return FunctionCategory::kAlgebraic;
    case AggregateFunction::kMedian:
    case AggregateFunction::kMode:
      return FunctionCategory::kHolistic;
  }
  MEMAGG_CHECK(false);
  return FunctionCategory::kDistributive;
}

/// True if `fn` aggregates a measure column (COUNT(*) does not).
inline bool NeedsValueColumn(AggregateFunction fn) {
  return fn != AggregateFunction::kCount;
}

inline std::string AggregateFunctionName(AggregateFunction fn) {
  switch (fn) {
    case AggregateFunction::kCount:
      return "COUNT";
    case AggregateFunction::kSum:
      return "SUM";
    case AggregateFunction::kMin:
      return "MIN";
    case AggregateFunction::kMax:
      return "MAX";
    case AggregateFunction::kAverage:
      return "AVG";
    case AggregateFunction::kMedian:
      return "MEDIAN";
    case AggregateFunction::kMode:
      return "MODE";
  }
  MEMAGG_CHECK(false);
  return "";
}

// --- Aggregate policies -----------------------------------------------------

/// COUNT(*): distributive, ignores the value column.
struct CountAggregate {
  using State = uint64_t;
  static constexpr AggregateFunction kFunction = AggregateFunction::kCount;
  static constexpr bool kNeedsValues = false;
  static void Update(State& state, uint64_t /*value*/) { ++state; }
  static void Merge(State& into, const State& from) { into += from; }
  static double Finalize(const State& state) {
    return static_cast<double>(state);
  }
};

/// SUM(value): distributive.
struct SumAggregate {
  using State = uint64_t;
  static constexpr AggregateFunction kFunction = AggregateFunction::kSum;
  static constexpr bool kNeedsValues = true;
  static void Update(State& state, uint64_t value) { state += value; }
  static void Merge(State& into, const State& from) { into += from; }
  static double Finalize(const State& state) {
    return static_cast<double>(state);
  }
};

/// MIN(value): distributive.
struct MinAggregate {
  struct State {
    uint64_t min = ~0ULL;
  };
  static constexpr AggregateFunction kFunction = AggregateFunction::kMin;
  static constexpr bool kNeedsValues = true;
  static void Update(State& state, uint64_t value) {
    state.min = std::min(state.min, value);
  }
  static void Merge(State& into, const State& from) {
    into.min = std::min(into.min, from.min);
  }
  static double Finalize(const State& state) {
    return static_cast<double>(state.min);
  }
};

/// MAX(value): distributive.
struct MaxAggregate {
  struct State {
    uint64_t max = 0;
  };
  static constexpr AggregateFunction kFunction = AggregateFunction::kMax;
  static constexpr bool kNeedsValues = true;
  static void Update(State& state, uint64_t value) {
    state.max = std::max(state.max, value);
  }
  static void Merge(State& into, const State& from) {
    into.max = std::max(into.max, from.max);
  }
  static double Finalize(const State& state) {
    return static_cast<double>(state.max);
  }
};

/// AVG(value): algebraic — the composition of SUM and COUNT (paper Section 2).
struct AverageAggregate {
  struct State {
    uint64_t sum = 0;
    uint64_t count = 0;
  };
  static constexpr AggregateFunction kFunction = AggregateFunction::kAverage;
  static constexpr bool kNeedsValues = true;
  static void Update(State& state, uint64_t value) {
    state.sum += value;
    ++state.count;
  }
  static void Merge(State& into, const State& from) {
    into.sum += from.sum;
    into.count += from.count;
  }
  static double Finalize(const State& state) {
    return state.count == 0
               ? 0.0
               : static_cast<double>(state.sum) /
                     static_cast<double>(state.count);
  }
};

/// Median of a mutable run of values: the canonical even/odd definition
/// (mean of the two middle values for even counts). Reorders `values`.
inline double MedianOfRun(uint64_t* values, size_t count) {
  MEMAGG_CHECK(count > 0);
  const size_t mid = count / 2;
  std::nth_element(values, values + mid, values + count);
  const uint64_t upper = values[mid];
  if (count % 2 == 1) return static_cast<double>(upper);
  const uint64_t lower = *std::max_element(values, values + mid);
  return (static_cast<double>(lower) + static_cast<double>(upper)) / 2.0;
}

/// MEDIAN(value): holistic — hash/tree operators must buffer every value of
/// the group; sort operators evaluate it over the group's contiguous run.
struct MedianAggregate {
  using State = std::vector<uint64_t>;
  static constexpr AggregateFunction kFunction = AggregateFunction::kMedian;
  static constexpr bool kNeedsValues = true;
  static void Update(State& state, uint64_t value) { state.push_back(value); }
  static void Merge(State& into, State& from) {
    into.insert(into.end(), from.begin(), from.end());
  }
  static double Finalize(State& state) {
    return MedianOfRun(state.data(), state.size());
  }
  /// Sort-based fast path: aggregate directly over the group's run.
  static double FinalizeRun(uint64_t* values, size_t count) {
    return MedianOfRun(values, count);
  }
};

/// P-th percentile of a mutable run of values (nearest-rank definition);
/// P = 50 matches MedianOfRun for odd counts. Reorders `values`.
inline double PercentileOfRun(uint64_t* values, size_t count, int percent) {
  MEMAGG_CHECK(count > 0);
  MEMAGG_CHECK(percent >= 0 && percent <= 100);
  size_t rank = static_cast<size_t>(
      (static_cast<unsigned __int128>(count) * percent + 99) / 100);
  if (rank > 0) --rank;  // Nearest-rank is 1-based; clamp to [0, count).
  std::nth_element(values, values + rank, values + count);
  return static_cast<double>(values[rank]);
}

/// QUANTILE(value, P): holistic, nearest-rank P-th percentile. A
/// compile-time-parameterized generalization of MEDIAN (the paper lists
/// Quantile with Median and Rank as the canonical holistic functions,
/// Section 2). Use directly with the operator templates, e.g.
/// HashVectorAggregator<LinearProbingMap, QuantileAggregate<90>>.
template <int P>
struct QuantileAggregate {
  static_assert(P >= 0 && P <= 100, "percentile must be within [0, 100]");
  using State = std::vector<uint64_t>;
  static constexpr bool kNeedsValues = true;
  static void Update(State& state, uint64_t value) { state.push_back(value); }
  static void Merge(State& into, State& from) {
    into.insert(into.end(), from.begin(), from.end());
  }
  static double Finalize(State& state) {
    return PercentileOfRun(state.data(), state.size(), P);
  }
  static double FinalizeRun(uint64_t* values, size_t count) {
    return PercentileOfRun(values, count, P);
  }
};

/// MODE(value): holistic — most frequent value; ties break to the smallest.
struct ModeAggregate {
  using State = std::vector<uint64_t>;
  static constexpr AggregateFunction kFunction = AggregateFunction::kMode;
  static constexpr bool kNeedsValues = true;
  static void Update(State& state, uint64_t value) { state.push_back(value); }
  static void Merge(State& into, State& from) {
    into.insert(into.end(), from.begin(), from.end());
  }
  static double Finalize(State& state) {
    return FinalizeRun(state.data(), state.size());
  }
  static double FinalizeRun(uint64_t* values, size_t count) {
    MEMAGG_CHECK(count > 0);
    std::sort(values, values + count);
    uint64_t best = values[0];
    size_t best_run = 1;
    size_t run = 1;
    for (size_t i = 1; i < count; ++i) {
      run = values[i] == values[i - 1] ? run + 1 : 1;
      if (run > best_run) {
        best_run = run;
        best = values[i];
      }
    }
    return static_cast<double>(best);
  }
};

}  // namespace memagg

#endif  // MEMAGG_CORE_AGGREGATE_H_
