/**
 * @file
 * study_bench: the study-level benchmark binary.
 *
 *   study_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *               --workdir <dir> --reference <file> [--trace-out <file>]
 *               [--tiny]
 *   study_bench --selftest
 *   study_bench --write-references [--tiny]
 *
 * Untraced, one workload runs for the measurement budget and the last
 * stdout line is the end-to-end result. Traced, every workload runs
 * one unit untraced and one traced (spans around the calls into each
 * layer), the spans are written as a Chrome trace, and the last line
 * carries the per-layer metrics. See studybench/README.md.
 */


#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "experiment/lab.h"
#include "spans.h"
#include "stats.h"
#include "study.h"
#include "unit_process.h"

namespace studybench {

namespace {

/** Fewest units per run. */
constexpr int kMinUnits = 3;

/** Set-up samples per run, topped up with set-up-only units. */
constexpr size_t kSetupSamples = 15;

/** Stop starting units after this long, well inside the run limit. */
constexpr double kRunWallCap = 110.0;

/** A unit process running longer than this is killed. */
constexpr double kUnitTimeout = 90.0;

const std::map<std::string, UnitFn> &
workloads()
{
    static const std::map<std::string, UnitFn> table = {
        {"paper-matrix", paperMatrixUnit},
        {"scale-sweep", scaleSweepUnit},
        {"service-cold", serviceColdUnit},
        {"service-warm", serviceWarmUnit},
    };
    return table;
}

/** Add a unit's counts to the run's. */
void
absorbCounts(Report &run, const Report &unit)
{
    run.attempted += unit.attempted;
    run.failed += unit.failed;
    run.correct = run.correct && unit.correct;
}

/**
 * Untraced run: units until the study time reaches the budget, then
 * set-up-only units until there are kSetupSamples set-up samples. The
 * end-to-end metrics are the same for every workload.
 */
Report
untracedRun(UnitFn fn, const RunConfig &cfg)
{
    Report run;
    std::vector<double> setup, study;
    double studyTotal = 0;
    int index = 0;
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kMinUnits || studyTotal < cfg.seconds; ++i) {
        if (i > 0 && secondsSince(start) > kRunWallCap)
            break;
        UnitResult u =
            runUnitProcess(fn, cfg, index++, false, false, kUnitTimeout);
        absorbCounts(run, u.report);
        std::fprintf(stderr,
                     "study_bench: unit %d set-up %.4f s, study %.4f s "
                     "(%.4f s CPU)\n",
                     i, u.setupSeconds, u.studySeconds, u.studyCpuSeconds);
        setup.push_back(u.setupSeconds);
        study.push_back(u.studySeconds);
        studyTotal += u.studySeconds;
    }
    while (setup.size() < kSetupSamples && secondsSince(start) < kRunWallCap)
        setup.push_back(
            runUnitProcess(fn, cfg, index++, false, true, kUnitTimeout)
                .setupSeconds);
    std::fprintf(stderr, "study_bench: set-up samples");
    for (double x : setup)
        std::fprintf(stderr, " %.4f", x);
    std::fprintf(stderr, "\n");
    run.set("setup_s", median(setup), "s");
    run.set("study_s", median(study), "s");
    run.set("requests_per_s", double(run.attempted) / studyTotal, "1/s");
    run.set("peak_rss_mb", peakUnitRssMb(), "MB");
    std::fprintf(stderr,
                 "study_bench: %zu units, %zu set-up samples, %llu "
                 "requests, %.3f s of study\n",
                 study.size(), setup.size(),
                 (unsigned long long)run.attempted, studyTotal);
    return run;
}

/**
 * Traced run: for every workload (the named one first), one untraced
 * unit and one traced unit. The traced units' spans and workload
 * metrics make the per-layer result; the difference of the two units'
 * study times is printed as the tracing overhead.
 */
Report
tracedRun(const std::string &first, const RunConfig &cfg,
          std::vector<Span> &spans)
{
    std::vector<std::string> order = {first};
    for (const auto &[name, fn] : workloads())
        if (name != first)
            order.push_back(name);
    Report run;
    uint64_t idBase = 0;
    for (const std::string &name : order) {
        UnitFn fn = workloads().at(name);
        UnitResult plain =
            runUnitProcess(fn, cfg, 0, false, false, kUnitTimeout);
        UnitResult traced =
            runUnitProcess(fn, cfg, 1, true, false, kUnitTimeout);
        absorbCounts(run, plain.report);
        absorbCounts(run, traced.report);
        for (const auto &[metric, m] : traced.report.metrics) {
            if (m.unit == "count")
                run.metrics[metric].value += m.value;  // both services
            else
                run.metrics[metric].value = m.value;
            run.metrics[metric].unit = m.unit;
        }
        // Span ids restart in every unit process: rebase them.
        uint64_t maxId = 0;
        for (Span &s : traced.spans) {
            maxId = std::max(maxId, s.id);
            s.id += idBase;
            if (s.parent)
                s.parent += idBase;
            spans.push_back(std::move(s));
        }
        idBase += maxId;
        std::fprintf(stderr,
                     "study_bench: %s tracing overhead %+.4f s "
                     "(traced %.4f s - untraced %.4f s)\n",
                     name.c_str(),
                     traced.studySeconds - plain.studySeconds,
                     traced.studySeconds, plain.studySeconds);
    }
    return run;
}

/** Per-layer metrics derived from the recorded spans. */
void
spanMetrics(const std::vector<Span> &spans, Report &report)
{
    std::vector<double> self = selfSeconds(spans);
    std::map<std::string, double> selfByName;
    std::map<std::string, std::vector<double>> msByName;
    std::map<uint32_t, std::pair<double, double>> simByProcs;  // s, refs
    double refs = 0, misses = 0, invals = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        selfByName[s.name] += self[i];
        msByName[s.name].push_back(s.seconds() * 1e3);
        if (s.name == "sim.run") {
            uint32_t procs = uint32_t(s.arg("procs"));
            simByProcs[procs].first += s.seconds();
            simByProcs[procs].second += s.arg("refs");
            refs += s.arg("refs");
            misses += s.arg("misses");
            invals += s.arg("invalidations");
        }
    }
    auto total = [&](const char *name) { return selfByName[name]; };

    report.set("workload.gen_s", total("workload.gen"), "s");
    report.set("workload.stream_s", total("workload.stream"), "s");
    report.set("analysis.static_s", total("analysis.static"), "s");
    report.set("sim.probe_s", total("sim.probe"), "s");
    report.set("core.place_s", total("core.place"), "s");
    report.set("core.place_ms.max", maxOf(msByName["core.place"]), "ms");
    report.set("sim.run_s", total("sim.run"), "s");
    for (uint32_t p : {2u, 4u, 8u, 16u, 64u, 256u, 1024u}) {
        auto [sec, n] = simByProcs[p];
        report.set("sim.ns_per_ref.p" + std::to_string(p),
                   n > 0 ? sec * 1e9 / n : 0.0, "ns");
    }
    report.set("sim.refs", refs, "count");
    report.set("sim.misses", misses, "count");
    report.set("sim.invalidations", invals, "count");
    report.set("sample.plan_s", total("sample.plan"), "s");
    report.set("sample.estimate_s", total("sample.estimate"), "s");
    report.set("experiment.runner_s", total("experiment.runner"), "s");
    report.set("experiment.cell_s", total("experiment.cell"), "s");
    report.set("svc.store.put_s", total("svc.store.put"), "s");
    report.set("svc.store.put_ms.p50",
               requirePercentile(msByName["svc.store.put"], 50, "put_ms"),
               "ms");
    report.set("svc.store.put_ms.max", maxOf(msByName["svc.store.put"]),
               "ms");
    std::vector<double> lookupUs;
    for (double ms : msByName["svc.store.lookup"])
        lookupUs.push_back(ms * 1e3);
    report.set("svc.store.lookup_us.p50",
               requirePercentile(lookupUs, 50, "lookup_us"), "us");

    double p16 = report.metrics["sim.ns_per_ref.p16"].value;
    double p1024 = report.metrics["sim.ns_per_ref.p1024"].value;
    double put = total("svc.store.put");
    std::fprintf(stderr,
                 "study_bench: ns/ref p1024 / p16 = %.1f; store put share "
                 "of cold simulate+publish = %.1f%%\n",
                 p16 > 0 ? p1024 / p16 : 0.0,
                 100.0 * put / (put + total("experiment.cell")));
}

int
selftest()
{
    int failures = 0;
    auto expect = [&](bool ok, const char *what) {
        if (!ok) {
            ++failures;
            std::cerr << "selftest FAILED: " << what << '\n';
        }
    };

    // Percentiles: at least ten samples beyond, or refused.
    std::vector<double> s99(99, 1.0), s100(100, 1.0), s19(19, 1.0),
        s20(20, 1.0);
    expect(!percentile(s99, 90), "p90 of 99 samples refused");
    expect(percentile(s100, 90).has_value(), "p90 of 100 samples given");
    expect(!percentile(s19, 50), "p50 of 19 samples refused");
    expect(percentile(s20, 50).has_value(), "p50 of 20 samples given");
    bool threw = false;
    try {
        requirePercentile(s99, 90, "selftest");
    } catch (const std::runtime_error &) {
        threw = true;
    }
    expect(threw, "requirePercentile throws on a short sample");
    std::vector<double> ramp;
    for (int i = 0; i <= 100; ++i)
        ramp.push_back(i);
    expect(std::abs(*percentile(ramp, 90) - 90.0) < 1e-9,
           "p90 of 0..100 is 90");

    // The digest gate trips on one perturbed cycle count.
    tsp::experiment::Lab lab(512);
    tsp::experiment::RunResult r = lab.run(
        tsp::workload::AppId::Water, tsp::placement::Algorithm::LoadBal,
        {2, 4});
    std::vector<CellRecord> cells = {recordOf(r), recordOf(r)};
    std::string good = digestOf(cells);
    std::istringstream refText("# selftest\nselftest " + good + "\n");
    References refs(refText);
    RunConfig cfg;
    cfg.refs = &refs;
    Report clean;
    clean.gate(cfg, "selftest", good, 2);
    expect(clean.correct && clean.failed == 0, "gate passes the reference");
    tsp::experiment::RunResult bad = r;
    bad.executionTime += 1;
    cells[1] = recordOf(bad);
    Report perturbed;
    std::cerr << "selftest: expecting one gate failure below\n";
    perturbed.gate(cfg, "selftest", digestOf(cells), 2);
    expect(!perturbed.correct && perturbed.failed == 2,
           "gate trips on one perturbed cycle count");
    Report missing;
    std::cerr << "selftest: expecting one gate failure below\n";
    missing.gate(cfg, "no-such-key", good, 1);
    expect(!missing.correct, "gate fails a workload without a reference");

    // Self time and coverage.
    Span parent{"bench.phase.x", 1, 0, 1, 0, 10'000'000, {}};
    Span child{"sim.run", 2, 1, 1, 2'000'000, 6'000'000, {}};
    Span other{"svc.request", 3, 0, 2, 5'000'000, 9'000'000, {}};
    std::vector<Span> spans = {parent, child, other};
    std::vector<double> self = selfSeconds(spans);
    expect(std::abs(self[0] - 0.006) < 1e-12, "parent self time");
    expect(std::abs(layerCoverage(spans, parent) - 0.7) < 1e-12,
           "coverage counts overlapping spans once");

    std::cerr << (failures ? "selftest FAILED\n" : "selftest ok\n");
    return failures ? 1 : 0;
}

void
printResult(const Report &report)
{
    uint64_t failed = std::min(report.failed, report.attempted);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                report.correct && failed == 0 ? "true" : "false",
                (unsigned long long)report.attempted,
                (unsigned long long)failed);
    bool first = true;
    for (const auto &[name, m] : report.metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), m.value,
                    m.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace
} // namespace studybench

int
main(int argc, char **argv)
{
    using namespace studybench;
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--selftest" || a == "--write-references" || a == "--tiny")
            args[a] = "1";
        else if (a.rfind("--", 0) == 0 && i + 1 < argc)
            args[a] = argv[++i];
        else {
            std::cerr << "study_bench: bad argument '" << a << "'\n";
            return 2;
        }
    }
    try {
        bool tiny = args.count("--tiny") > 0;
        if (args.count("--selftest"))
            return selftest();
        if (args.count("--write-references")) {
            paperMatrixReferences(tiny);
            scaleSweepReferences(tiny);
            serviceReferences(tiny);
            return 0;
        }
        for (const char *required :
             {"--workload", "--seed", "--seconds", "--trace", "--workdir",
              "--reference"}) {
            if (!args.count(required)) {
                std::cerr << "study_bench: missing " << required << '\n';
                return 2;
            }
        }
        References refs(args["--reference"]);
        RunConfig cfg;
        cfg.seed = std::stoull(args["--seed"]);
        cfg.seconds = std::stod(args["--seconds"]);
        cfg.tiny = tiny;
        cfg.workdir = args["--workdir"];
        cfg.refs = &refs;
        std::filesystem::create_directories(cfg.workdir);
        bool traced = args["--trace"] == "1";
        std::string workload = args["--workload"];

        auto it = workloads().find(workload);
        if (it == workloads().end()) {
            std::cerr << "study_bench: unknown workload '" << workload
                      << "'\n";
            return 2;
        }
        Tracer::instance();  // one span epoch for every unit process
        Report report;
        if (!traced) {
            report = untracedRun(it->second, cfg);
        } else {
            std::vector<Span> spans;
            report = tracedRun(workload, cfg, spans);
            spanMetrics(spans, report);
            if (args.count("--trace-out"))
                writeChromeTrace(spans, args["--trace-out"]);
        }
        printResult(report);
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "study_bench: error: " << e.what() << '\n';
        return 1;
    }
}
