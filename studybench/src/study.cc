#include "study.h"

#include <iostream>

#include "util/rng.h"

namespace studybench {

void
Report::fail(const std::string &why)
{
    correct = false;
    std::cerr << "study_bench: FAILED: " << why << '\n';
}

void
Report::gate(const RunConfig &cfg, const std::string &key,
             const std::string &digest, uint64_t operations)
{
    if (cfg.refs && cfg.refs->matches(key, digest))
        return;
    failed += operations;
    fail("digest " + key + " is " + digest + ", reference is '" +
         (cfg.refs ? cfg.refs->expected(key) : std::string()) + "'");
}

std::string
refKey(const RunConfig &cfg, const std::string &name)
{
    return cfg.tiny ? "tiny/" + name : name;
}

std::vector<size_t>
permutation(size_t n, uint64_t seed)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    tsp::util::Rng rng(seed);
    for (size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBelow(i)]);
    return order;
}

} // namespace studybench
