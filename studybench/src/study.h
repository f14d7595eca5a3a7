/**
 * @file
 * What the four workloads of the study benchmark share: run settings,
 * the report they fill, and the unit each workload is made of.
 *
 * A unit is one study as a user runs it: a fresh process sets up from
 * scratch (trace generation, analysis, probes, plans, store, daemon;
 * timed as one set-up sample) and then runs the study (timed as one
 * study sample). Each unit runs in its own forked process, so no
 * process-wide cache, heap state or thread carries over from one unit
 * to the next. Units repeat until the studies have used the run's
 * measurement budget, and at least 3 times. Set-up-only units (the
 * process exits at studyBegins()) run between them until the run has
 * kSetupSamples set-up samples, whose median is the reported set-up.
 */

#ifndef STUDYBENCH_STUDY_H
#define STUDYBENCH_STUDY_H

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "digest.h"

namespace studybench {

/** Settings of one benchmark invocation. */
struct RunConfig
{
    uint64_t seed = 1;
    double seconds = 10.0;  //!< study time to accumulate
    bool tiny = false;      //!< self-test sizes
    std::string workdir;    //!< scratch space for result stores
    const References *refs = nullptr;
};

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What a unit (and then the run) reports. */
struct Report
{
    std::map<std::string, Metric> metrics;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool correct = true;

    void set(const std::string &name, double value,
             const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }

    /** Record a correctness failure (also printed to stderr). */
    void fail(const std::string &why);

    /**
     * Gate @p digest against the reference @p key; on mismatch the
     * run is incorrect and @p operations more operations failed.
     */
    void gate(const RunConfig &cfg, const std::string &key,
              const std::string &digest, uint64_t operations);
};

/** Wall seconds since @p t0. */
inline double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Marks the study inside a unit: everything before studyBegins() is
 * set-up, everything after studyEnds() is checking and teardown, and
 * is not timed.
 */
struct UnitClock
{
    using Clock = std::chrono::steady_clock;

    /**
     * Ends set-up. Returns false for a set-up-only unit: the unit
     * function then returns at once, without running the study.
     */
    [[nodiscard]] bool studyBegins()
    {
        cpuBegin = processCpuSeconds();
        begin = Clock::now();
        return !setupOnly;
    }
    void studyEnds()
    {
        end = Clock::now();
        cpuEnd = processCpuSeconds();
    }

    /** The study's wall time (valid after studyEnds()). */
    double studySeconds() const
    {
        return std::chrono::duration<double>(end - begin).count();
    }

    /** CPU seconds the process (all threads) spent in the study. */
    double studyCpuSeconds() const { return cpuEnd - cpuBegin; }

    Clock::time_point begin, end;
    double cpuBegin = 0.0, cpuEnd = 0.0;
    bool setupOnly = false;

  private:
    static double processCpuSeconds()
    {
        struct timespec ts {};
        clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
        return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
    }
};

/**
 * One unit of a workload: set up, call clock.studyBegins() (and return
 * if it says so), run the study, call clock.studyEnds(), then check
 * the outputs into @p report.
 * When tracing is on it also runs the workload's decomposition checks
 * and sets the workload's own per-layer metrics.
 */
using UnitFn = void (*)(const RunConfig &cfg, int index, UnitClock &clock,
                        Report &report);

void paperMatrixUnit(const RunConfig &cfg, int index, UnitClock &clock,
                     Report &report);
void scaleSweepUnit(const RunConfig &cfg, int index, UnitClock &clock,
                    Report &report);
void serviceColdUnit(const RunConfig &cfg, int index, UnitClock &clock,
                     Report &report);
void serviceWarmUnit(const RunConfig &cfg, int index, UnitClock &clock,
                     Report &report);

/**
 * Print the reference digest lines of each workload (reference.txt
 * form), computed with in-process Lab::run and exact simulation.
 */
void paperMatrixReferences(bool tiny);
void scaleSweepReferences(bool tiny);
void serviceReferences(bool tiny);

/** Key of a workload's reference digest: tiny runs have their own. */
std::string refKey(const RunConfig &cfg, const std::string &name);

/**
 * A seed-chosen order of @p n canonical items: position i runs item
 * order[i]. Results are folded back into canonical order, so the order
 * moves timing only, never a digest.
 */
std::vector<size_t> permutation(size_t n, uint64_t seed);

} // namespace studybench

#endif // STUDYBENCH_STUDY_H
