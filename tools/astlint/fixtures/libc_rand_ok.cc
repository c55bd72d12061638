int f(Rng& rng) { return rng.Next(); }  // NextBounded(rand_max)
