std::atomic<Widget*> g_widget{nullptr};
constexpr int g_limit = 3;
void f() { local::g_widget = nullptr; }
