// astlint fixture: planted FIXED AGGREGATOR construction outside the
// sanctioned factories. Direct construction pins the operator choice at the
// call site; the engine routes it through MakeVectorAggregator or
// AdaptiveAggregator so strategy selection stays in one place.
//
// Expected: exactly two fixed-aggregator-construction violations — the heap
// construction and the stack-constructed object. Naming an aggregator type
// in a pointer parameter or a static_cast constructs nothing and is clean.

namespace std {
template <typename T>
struct unique_ptr {
  T* ptr;
};
template <typename T, typename... Args>
unique_ptr<T> make_unique(Args&&... args);
}  // namespace std

template <typename Agg>
struct SortedAggregator {
  Agg state;
};

struct CountAggregate {
  unsigned long count = 0;
};

auto MakeHardcodedOperator() {
  return std::make_unique<SortedAggregator<CountAggregate>>();  // planted
}

struct ExecutionContext {
  int num_threads = 1;
};

template <typename Agg>
struct PartitionedAggregator {
  PartitionedAggregator(unsigned long expected_size, ExecutionContext exec);
  void Build(const unsigned long* keys, unsigned long n);
};

struct VectorAggregator {};

void UseOperator(PartitionedAggregator<CountAggregate>* op);  // clean

void BuildOnTheStack(ExecutionContext exec) {
  PartitionedAggregator<CountAggregate> agg(64, exec);  // planted
  agg.Build(nullptr, 0);
}

void Downcast(VectorAggregator* base) {
  auto* op = static_cast<PartitionedAggregator<CountAggregate>*>(
      static_cast<void*>(base));  // clean
  UseOperator(op);
}
