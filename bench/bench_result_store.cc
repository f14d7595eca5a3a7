/**
 * @file
 * Persistence throughput of the TSPS result store (google-benchmark):
 * cells persisted per second into a fresh svc::ResultStore.
 *
 * BM_ResultStorePut/N opens an empty store and puts N distinct cells,
 * each carrying the same real RunResult (a Water cell at scale 64,
 * about 1 KB encoded), so the timed region is persistence only: key
 * encoding, framing, the advisory lock and the file write. It reports
 * items_per_second = cells persisted per second over the whole fill,
 * which is what a cold study of N cells pays to publish its results.
 * A store whose put cost grows with its size shows up as a rate that
 * falls with N.
 *
 * Run:
 *   build/bench/bench_result_store --benchmark_filter=BM_ResultStorePut
 * The store lives in $TMPDIR (default /tmp) and is removed after each
 * fill; the 10^5 leg writes about 100 MB.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <unistd.h>

#include "experiment/lab.h"
#include "svc/result_store.h"

namespace {

using namespace tsp;

constexpr uint32_t kScale = 64;

const experiment::RunResult &
sampleResult()
{
    static const experiment::RunResult result = [] {
        experiment::Lab lab(kScale);
        return lab.run(workload::AppId::Water,
                       placement::Algorithm::LoadBal, {4, 2}, false);
    }();
    return result;
}

std::string
storePath()
{
    const char *dir = std::getenv("TMPDIR");
    return std::string(dir && *dir ? dir : "/tmp") +
           "/bench_result_store." + std::to_string(::getpid()) +
           ".tsps";
}

void
removeStore(const std::string &path)
{
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
    std::remove((path + ".tmp").c_str());
}

void
BM_ResultStorePut(benchmark::State &state)
{
    const auto cells = static_cast<uint32_t>(state.range(0));
    const experiment::RunResult &result = sampleResult();
    const std::string path = storePath();
    for (auto _ : state) {
        state.PauseTiming();
        removeStore(path);
        state.ResumeTiming();
        svc::ResultStore store(path, kScale);
        for (uint32_t i = 0; i < cells; ++i) {
            // Distinct content addresses: the processor count is part
            // of the key and the store does not interpret it.
            experiment::RunJob job{workload::AppId::Water,
                                   placement::Algorithm::LoadBal,
                                   {i + 1, 2}, false};
            benchmark::DoNotOptimize(store.put(job, result));
        }
    }
    removeStore(path);
    state.SetItemsProcessed(int64_t(state.iterations()) * cells);
}
BENCHMARK(BM_ResultStorePut)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

} // namespace
