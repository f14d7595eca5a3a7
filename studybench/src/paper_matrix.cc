/**
 * @file
 * paper-matrix: the paper's Figs 2-5 / Table 4 study. Every
 * (application x figureAlgorithms() x standardSweep) cell of the 14
 * Table 1 applications on the flat-1994 machine, run through
 * ParallelRunner at pool width 1 after set-up has materialized every
 * application's traces, static analysis and coherence probe.
 *
 * With at most 16 processors the scheduler's O(P) scan is cheap, so
 * the time sits in the memory-system path, placement and the runner:
 * the workload a scheduler change should leave unmoved.
 */

#include <chrono>
#include <iostream>
#include <memory>

#include "experiment/parallel.h"
#include "sim/machine.h"
#include "spans.h"
#include "study.h"

namespace studybench {

using namespace tsp;
using experiment::Lab;
using experiment::RunJob;
using experiment::RunResult;

namespace {

/**
 * Workload scale divisor. 64 keeps one study near 5 s on a 2 GHz
 * x86-64 vCPU; at the paper-scale default of 8 it takes about 33 s.
 */
constexpr uint32_t kScale = 64;
constexpr uint32_t kTinyScale = 512;

std::vector<workload::AppId>
apps(bool tiny)
{
    if (tiny)
        return {workload::AppId::Water, workload::AppId::FFT};
    return workload::allApps();
}

/** Every cell, in canonical (app, algorithm, point) order. */
std::vector<RunJob>
canonicalJobs(bool tiny)
{
    std::vector<RunJob> jobs;
    for (workload::AppId app : apps(tiny))
        for (placement::Algorithm alg : placement::figureAlgorithms())
            for (const auto &point : experiment::standardSweep(
                     workload::profile(app).threads))
                jobs.push_back({app, alg, point});
    return jobs;
}

/** Set-up: a fresh Lab with every application's inputs materialized. */
std::unique_ptr<Lab>
setUp(bool tiny)
{
    auto lab = std::make_unique<Lab>(tiny ? kTinyScale : kScale);
    for (workload::AppId app : apps(tiny)) {
        {
            Tracer::Scope s("workload.gen");
            lab->traces(app);
        }
        {
            Tracer::Scope s("analysis.static");
            lab->analysis(app);
        }
        {
            Tracer::Scope s("sim.probe");
            lab->coherenceStats(app);
        }
    }
    return lab;
}

/** What the study returns: canonical results and the runner's times. */
struct StudyResult
{
    std::vector<RunResult> results;
    double runnerSeconds = 0.0;  //!< ParallelRunner::runAll wall time
    double cellSeconds = 0.0;    //!< sum of the cells' Lab::run times
};

/** The study: every cell through ParallelRunner, canonical results. */
StudyResult
study(Lab &lab, const std::vector<RunJob> &jobs,
      const std::vector<size_t> &order)
{
    std::vector<RunJob> ordered;
    for (size_t i : order)
        ordered.push_back(jobs[i]);
    std::vector<double> cellMillis;
    experiment::SweepOptions options;
    options.jobs = 1;
    options.batch = 1;
    options.cellMillisOut = &cellMillis;
    experiment::ParallelRunner runner(lab, options);
    StudyResult out;
    std::vector<RunResult> results;
    auto t0 = std::chrono::steady_clock::now();
    {
        Tracer::Scope s("experiment.runner");
        results = runner.runAll(ordered);
    }
    out.runnerSeconds = secondsSince(t0);
    for (double ms : cellMillis)
        out.cellSeconds += ms / 1e3;
    out.results.resize(jobs.size());
    for (size_t i = 0; i < order.size(); ++i)
        out.results[order[i]] = std::move(results[i]);
    return out;
}

/**
 * The decomposed path: placement and simulation called one by one.
 * Returns the number of cells whose result differs from @p expected.
 */
uint64_t
decomposedMismatches(Lab &lab, const std::vector<RunJob> &jobs,
                     const std::vector<RunResult> &expected)
{
    uint64_t bad = 0;
    for (size_t i = 0; i < jobs.size(); ++i) {
        const RunJob &job = jobs[i];
        placement::PlacementMap place;
        {
            Tracer::Scope s("core.place");
            place = lab.placementFor(job.app, job.alg,
                                     job.point.processors);
        }
        sim::SimConfig cfg = lab.configFor(job.app, job.point);
        sim::SimStats stats;
        {
            Tracer::Scope s("sim.run");
            stats = sim::simulate(cfg, lab.traces(job.app), place);
            s.arg("procs", job.point.processors);
            s.arg("refs", double(stats.totalMemRefs()));
            s.arg("misses", double(stats.totalMisses()));
            s.arg("invalidations",
                  double(stats.totalInvalidationsSent()));
        }
        const RunResult &want = expected[i];
        bool same = recordOf(stats) == recordOf(want) &&
                    stats.executionTime() == want.executionTime &&
                    stats.totalMemRefs() == want.stats.totalMemRefs() &&
                    stats.totalUpgrades() == want.stats.totalUpgrades() &&
                    place.assignment() == want.placement.assignment();
        bad += same ? 0 : 1;
    }
    return bad;
}

} // namespace

void
paperMatrixUnit(const RunConfig &cfg, int index, UnitClock &clock,
                Report &report)
{
    const std::vector<RunJob> jobs = canonicalJobs(cfg.tiny);
    std::unique_ptr<Lab> lab = setUp(cfg.tiny);
    std::vector<size_t> order =
        permutation(jobs.size(), cfg.seed * 1000003u + uint64_t(index));

    if (!clock.studyBegins())
        return;
    StudyResult pass;
    {
        Tracer::Scope s("bench.phase.paper-matrix");
        pass = study(*lab, jobs, order);
    }
    clock.studyEnds();
    const std::vector<RunResult> &results = pass.results;

    report.attempted += jobs.size();
    report.gate(cfg, refKey(cfg, "paper-matrix"), digestOf(results),
                jobs.size());
    uint64_t refs = 0;
    for (const RunResult &r : results)
        refs += r.stats.totalMemRefs();
    report.set("paper-matrix.sim_refs_per_s",
               double(refs) / clock.studySeconds(), "1/s");

    // The cells' own Lab::run times (placement and simulation) come
    // from the same runAll as the runner's: the rest is the runner's
    // overhead, and the cells' share of the study is the coverage.
    report.set("experiment.overhead_s",
               pass.runnerSeconds - pass.cellSeconds, "s");
    report.set("paper-matrix.coverage_pct",
               100.0 * pass.cellSeconds / clock.studySeconds(), "%");

    if (Tracer::instance().enabled()) {
        Tracer::Scope s("bench.check.paper-matrix");
        uint64_t bad = decomposedMismatches(*lab, jobs, results);
        if (bad) {
            report.failed += bad;
            report.fail(std::to_string(bad) +
                        " paper-matrix cells differ between "
                        "ParallelRunner and placementFor+simulate");
        }
    }
}

void
paperMatrixReferences(bool tiny)
{
    std::unique_ptr<Lab> lab = setUp(tiny);
    std::vector<RunJob> jobs = canonicalJobs(tiny);
    std::vector<RunResult> results;
    for (const RunJob &job : jobs)
        results.push_back(lab->run(job.app, job.alg, job.point));
    RunConfig cfg;
    cfg.tiny = tiny;
    std::cout << refKey(cfg, "paper-matrix") << ' ' << digestOf(results)
              << '\n';
}

} // namespace studybench
