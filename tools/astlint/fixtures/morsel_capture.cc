// astlint fixture: planted morsel-capture lifetime violations (Tier 6).
//
// Three by-reference captures are handed to task groups that are never
// joined in a scope that dominates the captured frame: a default [&]
// capture, a named &counter capture, and an unjoined call into a helper
// whose requires-join summary says the caller must Wait(). The fourth is a
// default [&] capture that a Wait() does follow: a bare [&] names no local
// to check against the join, so the rule reports it anyway. FanOutBody's own
// recursive Submit is clean (the summary charges the root call site), and
// FanOutJoined / JoinedRefCapture / ValueCapture / UnsubmittedRefLambda show
// the joined, by-value and never-submitted shapes the rule must not flag.

namespace memagg {

struct TaskGroup {
  template <typename F>
  void Submit(F f) {
    (void)f;
  }
  void Wait() {}
};

void FanOutBody(TaskGroup& group, int* data, int count) {
  if (count < 2) return;
  int half = count / 2;
  group.Submit([&group, data, half] {  // clean: summary, root site joins
    FanOutBody(group, data, half);
  });
  FanOutBody(group, data + half, count - half);
}

void FanOutJoined(int* data, int count) {
  TaskGroup group;
  FanOutBody(group, data, count);  // clean: Wait() below
  group.Wait();
}

void FanOutLeaky(int* data, int count) {
  TaskGroup group;
  FanOutBody(group, data, count);  // planted: requires-join, never joined
}

void DefaultRefCapture(TaskGroup& group) {
  int counter = 0;
  group.Submit([&] { counter++; });  // planted: [&] into caller's group
}

void NamedRefCapture() {
  TaskGroup group;
  int counter = 0;
  group.Submit([&counter] { counter++; });  // planted: unjoined &counter
}

void JoinedDefaultRefCapture(TaskGroup& group) {
  int counter = 0;
  group.Submit([&] { counter++; });  // planted: [&] even though joined
  group.Wait();
}

void JoinedRefCapture() {
  TaskGroup group;
  int counter = 0;
  group.Submit([&counter] { counter++; });  // clean: Wait() below
  group.Wait();
}

void ValueCapture() {
  TaskGroup group;
  int seed = 42;
  group.Submit([seed] { (void)seed; });  // clean: by-value capture
}

void UnsubmittedRefLambda() {
  int counter = 0;
  auto body = [&] { counter++; };  // clean: called here, never submitted
  body();
}

}  // namespace memagg
