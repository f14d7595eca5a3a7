#include "stats.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace studybench {

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

double
maxOf(const std::vector<double> &samples)
{
    return samples.empty()
        ? 0.0
        : *std::max_element(samples.begin(), samples.end());
}

std::optional<double>
percentile(std::vector<double> samples, double q)
{
    if (q <= 0.0 || q >= 100.0)
        return std::nullopt;
    double n = static_cast<double>(samples.size());
    if (n * (100.0 - q) < 100.0 * kMinSamplesBeyond - 1e-9)
        return std::nullopt;
    std::sort(samples.begin(), samples.end());
    double rank = (q / 100.0) * (n - 1.0);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, samples.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double
requirePercentile(const std::vector<double> &samples, double q,
                  const char *what)
{
    std::optional<double> p = percentile(samples, q);
    if (!p) {
        throw std::runtime_error(
            std::string(what) + ": p" + std::to_string(int(q)) +
            " needs " + std::to_string(int(kMinSamplesBeyond)) +
            " samples beyond it, have " +
            std::to_string(samples.size()) + " samples");
    }
    return *p;
}

} // namespace studybench
