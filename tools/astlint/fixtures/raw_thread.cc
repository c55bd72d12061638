void f() { std::thread t([]{}); t.join(); }
