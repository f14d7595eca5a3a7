/**
 * @file
 * Golden-digest pins for the paper's studies. Each test runs a full
 * study at the figure scale and CRCs its observable outputs (cycle
 * counts, miss-component counts) in row order. The pinned digests were
 * recorded from the pre-optimization simulator core, so these tests
 * prove the hot-path work (flat hash state, allocation-free
 * transactions, the merged event loop — see docs/performance.md)
 * changed nothing observable: any behavioural drift in the simulator,
 * workload generators or placement algorithms fails here first.
 *
 * If a digest changes INTENTIONALLY (a modelling fix, a new workload
 * default), re-record it and say why in the commit message; these
 * constants are the repo's bit-exactness contract.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/algorithms.h"
#include "core/placement_map.h"
#include "experiment/lab.h"
#include "experiment/studies.h"
#include "sim/machine.h"
#include "util/checksum.h"
#include "workload/generator.h"
#include "workload/suite.h"

namespace tsp::experiment {
namespace {

/** Feed one value into a running CRC as 8 little-endian bytes. */
void
feed64(uint32_t &crc, uint64_t v)
{
    uint8_t b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<uint8_t>(v >> (8 * i));
    crc = util::crc32(b, 8, crc);
}

uint32_t
execTimeDigest(Lab &lab, workload::AppId app)
{
    uint32_t crc = 0;
    auto pts =
        execTimeStudy(lab, app, placement::figureAlgorithms(), 2u);
    EXPECT_FALSE(pts.empty());
    for (const auto &pt : pts) {
        feed64(crc, static_cast<uint64_t>(pt.alg));
        feed64(crc, pt.point.processors);
        feed64(crc, pt.point.contexts);
        feed64(crc, pt.cycles);
    }
    return crc;
}

uint32_t
missComponentDigest(Lab &lab, workload::AppId app)
{
    uint32_t crc = 0;
    auto rows =
        missComponentStudy(lab, app, placement::figureAlgorithms(), 2u);
    EXPECT_FALSE(rows.empty());
    for (const auto &row : rows) {
        feed64(crc, static_cast<uint64_t>(row.alg));
        feed64(crc, row.point.processors);
        feed64(crc, row.point.contexts);
        feed64(crc, row.compulsory);
        feed64(crc, row.intraConflict);
        feed64(crc, row.interConflict);
        feed64(crc, row.invalidation);
        feed64(crc, row.refs);
    }
    return crc;
}

TEST(GoldenDigest, ExecTimeWater)
{
    Lab lab(16);
    EXPECT_EQ(execTimeDigest(lab, workload::AppId::Water), 0x2ca477a7u);
}

TEST(GoldenDigest, MissComponentsWater)
{
    Lab lab(16);
    EXPECT_EQ(missComponentDigest(lab, workload::AppId::Water),
              0x8fedf0c7u);
}

TEST(GoldenDigest, ExecTimeFFT)
{
    Lab lab(16);
    EXPECT_EQ(execTimeDigest(lab, workload::AppId::FFT), 0xe080a6c9u);
}

// ------------------------------------------------- machine-scale cells
//
// The studies above stop at 16 processors. These pin the event order
// above that: the synthetic scale profile of tests/sim_scale_test.cc
// at 256 and 1024 processors, two contexts each (so context switches
// interleave), once free-running and once barrier-phased (so barrier
// releases reschedule hundreds of processors at one instant). Any
// change to which processor the scheduler picks next, or to the chain
// horizon, moves these digests. They were recorded from the linear-
// scan scheduler that sim::EventTree replaced.

workload::AppProfile
scaleProfile(uint32_t threads, uint64_t meanLength, bool barriers)
{
    workload::AppProfile p;
    p.name = "scale-test";
    p.threads = threads;
    p.meanLength = meanLength;
    p.lengthDevPct = 20.0;
    p.phases = 4;
    p.barriers = barriers;
    p.globalFrac = 0.5;
    p.neighborFrac = 0.2;
    p.mailboxFrac = 0.1;
    p.sliceFrac = 0.2;
    p.globalWriteMode = workload::GlobalWriteMode::Migratory;
    p.seed = 29;
    return p;
}

/** One scale cell: 2 threads per processor, round-robin placement. */
sim::SimStats
scaleCell(uint32_t procs, uint64_t meanLength, bool barriers)
{
    const uint32_t threads = 2 * procs;
    sim::SimConfig cfg;
    cfg.processors = procs;
    cfg.contexts = 2;
    cfg.cacheBytes = 16 * 1024;
    cfg.blockBytes = 32;
    std::vector<uint32_t> assign(threads);
    for (uint32_t t = 0; t < threads; ++t)
        assign[t] = t % procs;
    placement::PlacementMap place(procs, assign);
    trace::TraceSet traces = workload::generateTraces(
        scaleProfile(threads, meanLength, barriers), /*scale=*/1);
    return sim::simulate(cfg, traces, place);
}

uint32_t
scaleExecTimeDigest(uint32_t procs, uint64_t meanLength)
{
    uint32_t crc = 0;
    for (bool barriers : {false, true}) {
        sim::SimStats s = scaleCell(procs, meanLength, barriers);
        feed64(crc, s.executionTime());
        for (const sim::ProcessorStats &ps : s.procs) {
            feed64(crc, ps.finishTime);
            feed64(crc, ps.busyCycles);
            feed64(crc, ps.switchCycles);
            feed64(crc, ps.idleCycles);
            feed64(crc, ps.barrierCycles);
        }
    }
    return crc;
}

uint32_t
scaleMissComponentDigest(uint32_t procs, uint64_t meanLength)
{
    uint32_t crc = 0;
    for (bool barriers : {false, true}) {
        sim::SimStats s = scaleCell(procs, meanLength, barriers);
        for (const sim::ProcessorStats &ps : s.procs) {
            feed64(crc, ps.memRefs);
            for (uint64_t m : ps.misses)
                feed64(crc, m);
            feed64(crc, ps.upgrades);
            feed64(crc, ps.invalidationsSent);
            feed64(crc, ps.writebacks);
        }
        feed64(crc, s.sharingCompulsoryMisses);
    }
    return crc;
}

TEST(GoldenDigest, ExecTimeScale256)
{
    EXPECT_EQ(scaleExecTimeDigest(256, 4'000), 0xd0079333u);
}

TEST(GoldenDigest, MissComponentsScale256)
{
    EXPECT_EQ(scaleMissComponentDigest(256, 4'000), 0xc89170c2u);
}

TEST(GoldenDigest, ExecTimeScale1024)
{
    EXPECT_EQ(scaleExecTimeDigest(1024, 1'500), 0x28f35f18u);
}

TEST(GoldenDigest, MissComponentsScale1024)
{
    EXPECT_EQ(scaleMissComponentDigest(1024, 1'500), 0x94e124deu);
}

} // namespace
} // namespace tsp::experiment
