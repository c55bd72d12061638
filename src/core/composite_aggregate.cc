#include "core/composite_aggregate.h"

#include <utility>

#include "util/macros.h"

namespace memagg {
namespace {

/// `Aggregate` folded over `values` through its own policy, so a member
/// evaluated over row ids answers exactly as a one-aggregate run does.
template <typename Aggregate>
double FoldValues(const std::vector<uint64_t>& values) {
  typename Aggregate::State state{};
  for (const uint64_t value : values) Aggregate::Update(state, value);
  return Aggregate::Finalize(state);
}

}  // namespace

CompositeAggregate::CompositeAggregate(std::vector<CompositeMember> members,
                                       CompositeOutput* output)
    : members_(std::move(members)), output_(output) {
  MEMAGG_CHECK(output_ != nullptr && "a composite needs an output");
  output_->num_members = members_.size();
  constexpr uint64_t kComplement = ~0ULL;
  for (const CompositeMember& member : members_) {
    MEMAGG_CHECK((member.column != nullptr) ==
                     NeedsValueColumn(member.function) &&
                 "a composite member has a column iff it reads values");
    Slot slot;
    switch (member.function) {
      case AggregateFunction::kCount:
        slot.word = WordFor(nullptr, 0, /*adds=*/true);
        break;
      case AggregateFunction::kSum:
        slot.word = WordFor(member.column, 0, /*adds=*/true);
        break;
      case AggregateFunction::kMin:
        slot.word = WordFor(member.column, kComplement, /*adds=*/false);
        break;
      case AggregateFunction::kMax:
        slot.word = WordFor(member.column, 0, /*adds=*/false);
        break;
      case AggregateFunction::kAverage:
        slot.word = WordFor(member.column, 0, /*adds=*/true);
        slot.count_word = WordFor(nullptr, 0, /*adds=*/true);
        break;
      case AggregateFunction::kMedian:
      case AggregateFunction::kMode:
        buffers_rows_ = true;
        break;
    }
    if (slot.word == kMaxWords || slot.count_word == kMaxWords) {
      buffers_rows_ = true;
    }
    slots_.push_back(slot);
  }
  if (buffers_rows_) {
    num_words_ = 0;
    slots_.clear();
  }
}

size_t CompositeAggregate::WordFor(const uint64_t* column, uint64_t flip,
                                   bool adds) {
  for (size_t w = 0; w < num_words_; ++w) {
    const Word& word = words_[w];
    if (word.column == column && word.flip == flip && word.adds == adds) {
      return w;
    }
  }
  if (num_words_ == kMaxWords) return kMaxWords;
  words_[num_words_] = {column, flip, adds};
  return num_words_++;
}

double CompositeAggregate::FinalizeWords(
    const std::array<uint64_t, kMaxWords>& words) const {
  MEMAGG_CHECK(!buffers_rows_);
  const size_t group = output_->num_groups();
  for (size_t m = 0; m < members_.size(); ++m) {
    const uint64_t word = words[slots_[m].word];
    double value = 0.0;
    switch (members_[m].function) {
      case AggregateFunction::kCount:
        value = CountAggregate::Finalize(word);
        break;
      case AggregateFunction::kSum:
        value = SumAggregate::Finalize(word);
        break;
      case AggregateFunction::kMin:
        value = MinAggregate::Finalize({~word});
        break;
      case AggregateFunction::kMax:
        value = MaxAggregate::Finalize({word});
        break;
      case AggregateFunction::kAverage:
        value = AverageAggregate::Finalize({word, words[slots_[m].count_word]});
        break;
      case AggregateFunction::kMedian:
      case AggregateFunction::kMode:
        MEMAGG_CHECK(false && "holistic members buffer row ids");
        break;
    }
    output_->values.push_back(value);
  }
  return static_cast<double>(group);
}

double CompositeAggregate::FinalizeRun(const uint64_t* rows,
                                       size_t count) const {
  MEMAGG_CHECK(count > 0);
  if (!buffers_rows_) {
    State state;
    for (size_t i = 0; i < count; ++i) Update(state, rows[i]);
    return FinalizeWords(state.words);
  }
  const size_t group = output_->num_groups();
  std::vector<uint64_t> values;
  for (const CompositeMember& member : members_) {
    double value = static_cast<double>(count);  // COUNT.
    if (member.column != nullptr) {
      values.resize(count);
      for (size_t i = 0; i < count; ++i) values[i] = member.column[rows[i]];
    }
    switch (member.function) {
      case AggregateFunction::kCount:
        break;
      case AggregateFunction::kSum:
        value = FoldValues<SumAggregate>(values);
        break;
      case AggregateFunction::kMin:
        value = FoldValues<MinAggregate>(values);
        break;
      case AggregateFunction::kMax:
        value = FoldValues<MaxAggregate>(values);
        break;
      case AggregateFunction::kAverage:
        value = FoldValues<AverageAggregate>(values);
        break;
      case AggregateFunction::kMedian:
        value = MedianAggregate::FinalizeRun(values.data(), count);
        break;
      case AggregateFunction::kMode:
        value = ModeAggregate::FinalizeRun(values.data(), count);
        break;
    }
    output_->values.push_back(value);
  }
  return static_cast<double>(group);
}

FunctionCategory CompositeAggregate::category() const {
  FunctionCategory category = FunctionCategory::kDistributive;
  for (const CompositeMember& member : members_) {
    const FunctionCategory c = CategoryOf(member.function);
    if (c == FunctionCategory::kHolistic) return c;
    if (c == FunctionCategory::kAlgebraic) category = c;
  }
  return category;
}

}  // namespace memagg
