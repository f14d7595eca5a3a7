/**
 * @file
 * Order statistics for the study benchmark. Timings are reported as a
 * median plus, where the sample is large enough, a higher percentile:
 * a percentile is only reported when at least ten samples lie beyond
 * it, so a p90 needs 100 samples and a p50 needs 20.
 */

#ifndef STUDYBENCH_STATS_H
#define STUDYBENCH_STATS_H

#include <cstddef>
#include <optional>
#include <vector>

namespace studybench {

/** Fewest samples that must lie beyond a reported percentile. */
constexpr double kMinSamplesBeyond = 10.0;

/** Median of @p samples (0 when empty). */
double median(std::vector<double> samples);

/** Largest sample (0 when empty). */
double maxOf(const std::vector<double> &samples);

/**
 * The @p q-th percentile (0 < q < 100, linear interpolation between
 * closest ranks), or nullopt when fewer than kMinSamplesBeyond samples
 * lie beyond it: n * (1 - q/100) < 10.
 */
std::optional<double> percentile(std::vector<double> samples, double q);

/**
 * percentile(), throwing std::runtime_error when the sample is too
 * small: a workload that promises the percentile must hold enough
 * samples, and a run that does not is a failed run.
 */
double requirePercentile(const std::vector<double> &samples, double q,
                         const char *what);

} // namespace studybench

#endif // STUDYBENCH_STATS_H
