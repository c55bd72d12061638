// Composite aggregate: every aggregate of a query folded in one pass.
//
// The paper's operators fold a distributive or algebraic aggregate into its
// group's state as each row arrives (Sections 2 and 3.2), and Do, Graefe &
// Naughton (arXiv 2010.00152) keep all of a group's aggregates in one state
// record. CompositeAggregate is that record as an aggregate policy: a
// runtime value, built per query, that carries the query's members and
// their measure columns, so any operator family answers a multi-aggregate
// query in one build (core/table_exec.h).
//
// Its value column is the query's selection vector: a row's value is its
// row id, and Update reads each member's measure at that row. A group's
// state is either
//   * fixed words, one per distinct (fold, column): a row count shared by
//     COUNT and AVG, a sum per SUM/AVG column, a max per MAX column and a
//     max of complements per MIN column (so an all-zero state is empty); or
//   * the group's row ids, when a member is holistic (MEDIAN, MODE) or the
//     words do not fit; every member is then evaluated over them.
//
// Finalize hands back every member's value for the group: it appends them
// to the caller's CompositeOutput and returns the group's row there, which
// the operator emits as the group's value. Every family's Iterate is
// serial, so the output needs no lock. Update and Merge only read the
// policy, so concurrent workers may share one.

#ifndef MEMAGG_CORE_COMPOSITE_AGGREGATE_H_
#define MEMAGG_CORE_COMPOSITE_AGGREGATE_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/aggregate.h"

namespace memagg {

/// One member of a composite: AGG(column). `column` is indexed by row id;
/// it is null for COUNT.
struct CompositeMember {
  AggregateFunction function = AggregateFunction::kCount;
  const uint64_t* column = nullptr;
};

/// What a composite's Finalize hands back: row g holds the member values of
/// the group whose emitted value is g, in member order.
struct CompositeOutput {
  size_t num_members = 0;
  std::vector<double> values;  ///< Row-major: group × member.

  size_t num_groups() const {
    return num_members == 0 ? 0 : values.size() / num_members;
  }
  double Value(size_t group, size_t member) const {
    return values[group * num_members + member];
  }
};

/// The composite aggregate policy; see the header comment.
class CompositeAggregate {
 public:
  /// Words a group's state holds inline; a query that needs more keeps row
  /// ids instead. Four fit the TPC-H Q1 that bench_tpch_q1 and bench/e2e
  /// run (three sums and a row count); raise this only with a workload that
  /// folds more.
  static constexpr size_t kMaxWords = 4;

  struct State {
    std::array<uint64_t, kMaxWords> words{};
    std::vector<uint64_t> rows;  ///< Row ids, when buffers_rows().
  };
  static constexpr bool kNeedsValues = true;  // The row ids.

  /// `output` receives the member values of every finalized group and must
  /// outlive the operators that hold this policy.
  CompositeAggregate(std::vector<CompositeMember> members,
                     CompositeOutput* output);

  /// True if groups keep their row ids rather than fixed words.
  bool buffers_rows() const { return buffers_rows_; }

  size_t num_words() const { return num_words_; }

  /// What word `w` folds in for `row`: 1 for the row count, else the
  /// column's value (complemented for MIN).
  uint64_t WordInput(size_t w, uint64_t row) const {
    const Word& word = words_[w];
    return word.column == nullptr ? 1 : word.column[row] ^ word.flip;
  }

  /// True if word `w` folds by adding (counts, sums), false by max.
  bool WordAdds(size_t w) const { return words_[w].adds; }

  void Update(State& state, uint64_t row) const {
    if (buffers_rows_) {
      state.rows.push_back(row);
      return;
    }
    for (size_t w = 0; w < num_words_; ++w) {
      uint64_t& acc = state.words[w];
      const uint64_t input = WordInput(w, row);
      acc = WordAdds(w) ? acc + input : std::max(acc, input);
    }
  }

  void Merge(State& into, State& from) const {
    if (buffers_rows_) {
      into.rows.insert(into.rows.end(), from.rows.begin(), from.rows.end());
      return;
    }
    for (size_t w = 0; w < num_words_; ++w) {
      uint64_t& acc = into.words[w];
      acc = WordAdds(w) ? acc + from.words[w] : std::max(acc, from.words[w]);
    }
  }

  /// Hands back the group's member values (see the header comment).
  double Finalize(State& state) const {
    return buffers_rows_ ? FinalizeRun(state.rows.data(), state.rows.size())
                         : FinalizeWords(state.words);
  }

  /// Hands back the member values of the group whose folded words are
  /// `words` (word mode only).
  double FinalizeWords(const std::array<uint64_t, kMaxWords>& words) const;

  /// Hands back the member values of the group made of rows `rows[0,
  /// count)`, in either mode: sort-based operators evaluate a group's run
  /// of row ids directly.
  double FinalizeRun(const uint64_t* rows, size_t count) const;

  /// The most demanding Gray category among the members.
  FunctionCategory category() const;

 private:
  struct Word {
    const uint64_t* column = nullptr;  ///< Null: the row count.
    uint64_t flip = 0;                 ///< ~0 for MIN's complement.
    bool adds = true;
  };
  /// Where member m's value lives in word mode: its word and, for AVG, the
  /// row-count word it divides by.
  struct Slot {
    size_t word = 0;
    size_t count_word = 0;
  };

  /// Index of the word folding (`column`, `flip`, `adds`), adding it if new;
  /// kMaxWords when the words are full.
  size_t WordFor(const uint64_t* column, uint64_t flip, bool adds);

  std::vector<CompositeMember> members_;
  CompositeOutput* output_ = nullptr;
  bool buffers_rows_ = false;
  size_t num_words_ = 0;
  std::array<Word, kMaxWords> words_{};
  std::vector<Slot> slots_;  ///< Per member, word mode only.
};

}  // namespace memagg

#endif  // MEMAGG_CORE_COMPOSITE_AGGREGATE_H_
