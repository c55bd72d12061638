int f() { return std::rand(); }
