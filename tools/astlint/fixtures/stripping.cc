// std::thread in a comment
const char* s = "std::rand()";
