void f() { unsigned n = std::thread::hardware_concurrency();
  std::this_thread::yield(); (void)n; }
