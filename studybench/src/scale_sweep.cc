/**
 * @file
 * scale-sweep: the synthetic scalable workload at 64, 256 and 1024
 * processors, one thread per processor, simulated exactly. This is
 * where sharing grows with the core count and where the simulator's
 * per-event scheduler scan, O(P) per event, dominates host time.
 *
 * Beside the sweep runs one sampling cell in the sampler's working
 * regime: MP3D at paper scale with 16x longer threads, simulated
 * exactly and estimated from a SamplePlan built during set-up (20000-
 * reference windows, 4 phases). The estimate misses the exact run by
 * about 1% (scale-sweep.sample_err_pct). The sweep's own machine sizes
 * are not sampled: at the thread lengths this workload can afford
 * there, windows are too short and estimates miss by 20-125%.
 *
 * The profile seeds come from the benchmark seed, folded onto
 * kVariants profiles so that every input the benchmark can generate
 * has a reference digest in reference.txt.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>

#include "experiment/sampling_study.h"
#include "sample/sampler.h"
#include "sim/machine.h"
#include "spans.h"
#include "study.h"
#include "workload/generator.h"
#include "workload/stream.h"
#include "workload/suite.h"

namespace studybench {

using namespace tsp;

namespace {

constexpr uint64_t kVariants = 8;

/**
 * One machine size of the sweep. Per-thread length shrinks as the
 * machine grows so every point simulates a similar number of
 * references (0.5-0.9 M).
 */
struct PointSpec
{
    uint32_t procs;
    uint64_t meanLength;  //!< per-thread length of the synthetic profile
};

std::vector<PointSpec>
points(bool tiny)
{
    if (tiny)
        return {{64, 2'000}, {256, 400}};
    return {{64, 40'000}, {256, 8'000}, {1024, 1'600}};
}

/** The sampling cell: workload scale, length multiplier, window. */
struct SampledSpec
{
    uint32_t scale;
    uint64_t lengthMult;
    uint64_t windowRefs;
};

SampledSpec
sampledSpec(bool tiny)
{
    if (tiny)
        return {512, 1, 500};
    return {8, 16, 20'000};
}

/** A simulated cell: its inputs and, if sampled, its set-up plan. */
struct Cell
{
    uint32_t procs = 0;
    workload::AppProfile profile;
    sim::SimConfig cfg;
    placement::PlacementMap identity;
    std::unique_ptr<workload::AppStreamFactory> factory;
    std::optional<sample::SamplePlan> plan;  //!< built in set-up
};

Cell
makeCell(const workload::AppProfile &profile, uint64_t cacheBytes)
{
    Cell c;
    c.procs = profile.threads;
    c.profile = profile;
    c.cfg.processors = profile.threads;
    c.cfg.contexts = 1;
    c.cfg.cacheBytes = cacheBytes;
    std::vector<uint32_t> assign(profile.threads);
    std::iota(assign.begin(), assign.end(), 0u);
    c.identity = placement::PlacementMap(profile.threads, assign);
    c.factory = std::make_unique<workload::AppStreamFactory>(profile, 1);
    return c;
}

/** The sweep's cells and the sampling cell, set up for one variant. */
struct Inputs
{
    std::vector<Cell> sweep;
    Cell sampled;
};

Inputs
setUp(bool tiny, uint64_t variant)
{
    Inputs in;
    for (const PointSpec &spec : points(tiny)) {
        workload::AppProfile profile =
            experiment::syntheticScaleProfile(spec.procs, spec.meanLength);
        profile.seed = 1000 + variant;
        in.sweep.push_back(makeCell(profile, profile.cacheBytes));
    }

    // The sampling cell, sized as samplingStudy sizes it.
    const SampledSpec spec = sampledSpec(tiny);
    workload::AppProfile mp3d = workload::profile(workload::AppId::MP3D);
    mp3d.meanLength = mp3d.meanLength / spec.scale * spec.lengthMult;
    mp3d.seed += variant;
    in.sampled = makeCell(
        mp3d, std::max<uint64_t>(4096, mp3d.cacheBytes / spec.scale));
    sample::SampleOptions so;
    so.windowRefs = spec.windowRefs;
    so.clusters = 4;
    so.warmupWindows = 1;
    {
        Tracer::Scope s("sample.plan");
        in.sampled.plan.emplace(sample::buildSamplePlan(
            *in.sampled.factory, so, in.sampled.cfg.blockBytes));
    }
    return in;
}

/** Exact streaming simulation of @p c, as a sim.run span. */
sim::SimStats
simulateExact(Cell &c, bool perSize)
{
    Tracer::Scope s("sim.run");
    sim::SimStats stats =
        sim::simulateStreaming(c.cfg, *c.factory, c.identity);
    // The per-size ns/ref figures group spans by "procs"; the sampling
    // cell (8 processors, a Table 1 application) is left out of them.
    if (perSize)
        s.arg("procs", c.procs);
    s.arg("refs", double(stats.totalMemRefs()));
    s.arg("misses", double(stats.totalMisses()));
    s.arg("invalidations", double(stats.totalInvalidationsSent()));
    return stats;
}

/**
 * One pass's results, in canonical order: the sweep's exact cells,
 * then the sampling cell exact and sampled.
 */
struct PassResult
{
    std::vector<CellRecord> cells;
    uint64_t simulatedRefs = 0;  //!< exact refs + sampledRefs
    double sampledFrac = 0.0;    //!< sampledRefs / fullRefs
    double errPct = 0.0;         //!< of the sampled exec time
};

PassResult
study(Inputs &in)
{
    PassResult r;
    for (Cell &c : in.sweep) {
        sim::SimStats exact = simulateExact(c, true);
        r.cells.push_back(recordOf(exact));
        r.simulatedRefs += exact.totalMemRefs();
    }
    Cell &c = in.sampled;
    sim::SimStats exact = simulateExact(c, false);
    sample::SampleEstimate est;
    {
        Tracer::Scope s("sample.estimate");
        est = sample::sampleSimulate(c.cfg, *c.factory, c.identity,
                                     *c.plan);
    }
    r.cells.push_back(recordOf(exact));
    r.cells.push_back(recordOf(est));
    r.simulatedRefs += exact.totalMemRefs() + est.sampledRefs;
    r.sampledFrac = est.sampledFraction();
    double actual = double(exact.executionTime());
    r.errPct = actual > 0
        ? std::abs(double(est.execTime) - actual) / actual * 100.0
        : 0.0;
    return r;
}

/** Generation only: drain every thread's producer of every cell. */
void
drainStreams(Inputs &in)
{
    std::vector<trace::TraceEvent> buf;
    std::vector<Cell *> cells;
    for (Cell &c : in.sweep)
        cells.push_back(&c);
    cells.push_back(&in.sampled);
    for (Cell *c : cells) {
        Tracer::Scope s("workload.stream");
        for (uint32_t tid = 0; tid < c->factory->threadCount(); ++tid) {
            auto producer = c->factory->openProducer(tid);
            while (producer->produce(buf))
                buf.clear();
        }
    }
}

std::string
variantKey(const RunConfig &cfg, uint64_t variant)
{
    return refKey(cfg, "scale-sweep/" + std::to_string(variant));
}

} // namespace

void
scaleSweepUnit(const RunConfig &cfg, int, UnitClock &clock, Report &report)
{
    const uint64_t variant = cfg.seed % kVariants;
    Inputs in = setUp(cfg.tiny, variant);

    if (!clock.studyBegins())
        return;
    PassResult pass;
    {
        Tracer::Scope s("bench.phase.scale-sweep");
        pass = study(in);
    }
    clock.studyEnds();

    report.attempted += pass.cells.size();
    report.gate(cfg, variantKey(cfg, variant), digestOf(pass.cells),
                pass.cells.size());
    report.set("scale-sweep.sim_refs_per_s",
               double(pass.simulatedRefs) / clock.studySeconds(), "1/s");
    report.set("scale-sweep.sample_err_pct", pass.errPct, "%");
    report.set("sample.sampled_frac", pass.sampledFrac, "ratio");

    if (Tracer::instance().enabled()) {
        std::vector<Span> spans = Tracer::instance().spans();
        for (const Span &s : spans)
            if (s.name == "bench.phase.scale-sweep")
                report.set("scale-sweep.coverage_pct",
                           100.0 * layerCoverage(spans, s), "%");
        Tracer::Scope s("bench.check.scale-sweep");
        drainStreams(in);
    }
}

void
scaleSweepReferences(bool tiny)
{
    RunConfig cfg;
    cfg.tiny = tiny;
    for (uint64_t v = 0; v < kVariants; ++v) {
        Inputs in = setUp(tiny, v);
        // The exact references run over materialized traces
        // (sim::simulate), independently of the streaming path the
        // workload times.
        auto exact = [](const Cell &c) {
            trace::TraceSet traces = workload::generateTraces(c.profile, 1);
            return sim::simulate(c.cfg, traces, c.identity);
        };
        std::vector<CellRecord> cells;
        for (const Cell &c : in.sweep)
            cells.push_back(recordOf(exact(c)));
        sim::SimStats full = exact(in.sampled);
        sample::SampleEstimate est = sample::sampleSimulate(
            in.sampled.cfg, *in.sampled.factory, in.sampled.identity,
            *in.sampled.plan);
        cells.push_back(recordOf(full));
        cells.push_back(recordOf(est));
        std::cerr << "scale-sweep/" << v << ": sampled "
                  << est.execTime << " vs exact " << full.executionTime()
                  << " cycles, " << 100.0 * est.sampledFraction()
                  << "% of refs simulated\n";
        std::cout << variantKey(cfg, v) << ' ' << digestOf(cells) << '\n';
    }
}

} // namespace studybench
