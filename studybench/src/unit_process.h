/**
 * @file
 * Runs one unit of a workload in a forked process and brings its
 * times, report and spans back over a pipe. The parent process stays
 * small and single-threaded, so every unit starts from the same
 * state, and the largest unit's resident set is the run's peak.
 */

#ifndef STUDYBENCH_UNIT_PROCESS_H
#define STUDYBENCH_UNIT_PROCESS_H

#include <vector>

#include "spans.h"
#include "study.h"

namespace studybench {

/** What a unit's process sends back. */
struct UnitResult
{
    double setupSeconds = 0.0;  //!< fork to studyBegins()
    double studySeconds = 0.0;  //!< studyBegins() to studyEnds()
    double studyCpuSeconds = 0.0;  //!< CPU time of the study
    Report report;
    std::vector<Span> spans;    //!< empty unless traced
};

/**
 * Fork, run @p fn as unit @p index (with tracing on when @p traced;
 * only its set-up when @p setupOnly), and collect its result. Throws
 * std::runtime_error when the unit's process fails, dies, or runs past
 * @p timeoutSeconds (it is then killed); the process is always reaped
 * before returning.
 */
UnitResult runUnitProcess(UnitFn fn, const RunConfig &cfg, int index,
                          bool traced, bool setupOnly,
                          double timeoutSeconds);

/** Largest resident set of any reaped unit process, in MB. */
double peakUnitRssMb();

} // namespace studybench

#endif // STUDYBENCH_UNIT_PROCESS_H
