/**
 * @file
 * Machine-scale tests for the 64-1024 processor range.
 *
 * Three contracts: (1) above the 128-processor inline width of
 * sim::SharerSet the simulation must behave exactly as below it —
 * streaming and materialized runs stay bit-identical through the
 * spill; (2) a streaming run, whose directory and history tables
 * start empty and rehash many times mid-run, must match the
 * materialized run whose tables are reserved exactly up front, scalar
 * and batched; (3) a 1024-processor streaming run must keep
 * trace.resident_bytes bounded by the chunk windows, far below the
 * materialized trace footprint, which is what lets billion-reference
 * runs fit in RAM.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/placement_map.h"
#include "sim/batch_machine.h"
#include "sim/machine.h"
#include "sim/sharer_set.h"
#include "trace/chunk_source.h"
#include "workload/generator.h"
#include "workload/stream.h"

namespace tsp::sim {
namespace {

using placement::PlacementMap;

workload::AppProfile
scaleProfile(uint32_t threads, uint64_t meanLength)
{
    workload::AppProfile p;
    p.name = "scale-test";
    p.threads = threads;
    p.meanLength = meanLength;
    p.lengthDevPct = 20.0;
    p.phases = 4;
    p.globalFrac = 0.5;
    p.neighborFrac = 0.2;
    p.mailboxFrac = 0.1;
    p.sliceFrac = 0.2;
    p.globalWriteMode = workload::GlobalWriteMode::Migratory;
    p.seed = 29;
    return p;
}

SimConfig
scaleConfig(uint32_t procs)
{
    SimConfig cfg;
    cfg.processors = procs;
    cfg.contexts = 1;
    cfg.cacheBytes = 16 * 1024;
    cfg.blockBytes = 32;
    return cfg;
}

PlacementMap
identity(uint32_t threads)
{
    std::vector<uint32_t> assign(threads);
    for (uint32_t t = 0; t < threads; ++t)
        assign[t] = t;
    return PlacementMap(threads, assign);
}

void
expectIdenticalStats(const SimStats &a, const SimStats &b)
{
    ASSERT_EQ(a.procs.size(), b.procs.size());
    for (size_t p = 0; p < a.procs.size(); ++p) {
        const ProcessorStats &x = a.procs[p];
        const ProcessorStats &y = b.procs[p];
        EXPECT_EQ(x.busyCycles, y.busyCycles) << "proc " << p;
        EXPECT_EQ(x.switchCycles, y.switchCycles) << "proc " << p;
        EXPECT_EQ(x.idleCycles, y.idleCycles) << "proc " << p;
        EXPECT_EQ(x.finishTime, y.finishTime) << "proc " << p;
        EXPECT_EQ(x.instructions, y.instructions) << "proc " << p;
        EXPECT_EQ(x.memRefs, y.memRefs) << "proc " << p;
        EXPECT_EQ(x.hits, y.hits) << "proc " << p;
        EXPECT_EQ(x.misses, y.misses) << "proc " << p;
        EXPECT_EQ(x.upgrades, y.upgrades) << "proc " << p;
        EXPECT_EQ(x.invalidationsSent, y.invalidationsSent)
            << "proc " << p;
        EXPECT_EQ(x.invalidationsReceived, y.invalidationsReceived)
            << "proc " << p;
        EXPECT_EQ(x.writebacks, y.writebacks) << "proc " << p;
        EXPECT_EQ(x.barrierCycles, y.barrierCycles) << "proc " << p;
    }
    EXPECT_EQ(a.executionTime(), b.executionTime());
    EXPECT_EQ(a.sharingCompulsoryMisses, b.sharingCompulsoryMisses);
    EXPECT_EQ(a.networkTransactions, b.networkTransactions);
    ASSERT_EQ(a.coherencePairs.size(), b.coherencePairs.size());
    size_t pairMismatches = 0;
    for (size_t i = 0; i < a.coherencePairs.size(); ++i) {
        for (size_t j = 0; j < a.coherencePairs.size(); ++j)
            pairMismatches +=
                a.coherencePairs.get(i, j) != b.coherencePairs.get(i, j);
    }
    EXPECT_EQ(pairMismatches, 0u);
}

// 160 processors crosses the SharerSet inline/spill boundary mid-run:
// the materialized and streaming paths must agree bit-for-bit, and the
// sharing monitor must profile toucher ids above 128 correctly.
TEST(SimScale, SpillParityStreamingVsMaterialized)
{
    const uint32_t threads = 160;
    workload::AppProfile p = scaleProfile(threads, 6'000);
    SimConfig cfg = scaleConfig(threads);
    cfg.profileSharing = true;
    PlacementMap place = identity(threads);

    trace::TraceSet traces = workload::generateTraces(p, /*scale=*/1);
    SimStats eager = simulate(cfg, traces, place);

    workload::AppStreamFactory factory(p, /*scale=*/1);
    SimStats streamed = simulateStreaming(cfg, factory, place);

    expectIdenticalStats(eager, streamed);
    EXPECT_GT(eager.totalMemRefs(), 0u);
    ASSERT_TRUE(eager.profiledSharing);
    EXPECT_GT(eager.sharingProfile.sharedBlocks, 0u);
    EXPECT_EQ(eager.sharingProfile.sharedBlocks,
              streamed.sharingProfile.sharedBlocks);
    EXPECT_EQ(eager.sharingProfile.migratoryShared,
              streamed.sharingProfile.migratoryShared);
}

// Streaming runs take no touched-block census, so the directory and
// the departure histories start empty and rehash many times while
// every cache frame holds a cached directory-entry handle. Paranoid
// mode checks each handle before evicting through it, so a handle
// left stale by a rehash fails loudly instead of corrupting state;
// the statistics must equal the materialized run, which reserves its
// tables exactly and never rehashes.
TEST(SimScale, GrowthParityStreamingVsReservedMaterialized)
{
    for (uint32_t threads : {256u, 1024u}) {
        SCOPED_TRACE("processors " + std::to_string(threads));
        workload::AppProfile p = scaleProfile(threads, 3'000);
        SimConfig cfg = scaleConfig(threads);
        cfg.paranoidEvery = 1 << 15;
        PlacementMap place = identity(threads);

        trace::TraceSet traces = workload::generateTraces(p, /*scale=*/1);
        SimStats reserved = simulate(cfg, traces, place);

        workload::AppStreamFactory factory(p, /*scale=*/1);
        trace::SharedTraceStream stream(factory, /*lanes=*/1);
        Machine machine(cfg, stream.lane(0), place);
        SimStats grown = machine.run();

        expectIdenticalStats(reserved, grown);
        EXPECT_GT(reserved.totalMisses(), 0u);
        // From the 16-slot initial table to this size takes at least
        // seven doublings, each one mid-run.
        EXPECT_GT(machine.directoryEntries(), 1'000u);
    }
}

// The same through the batched engine: two lanes of different machine
// sizes grow their own tables over one shared stream.
TEST(SimScale, GrowthParityBatchedStreamingLanes)
{
    const uint32_t threads = 256;
    workload::AppProfile p = scaleProfile(threads, 3'000);
    auto lanesFor = [&] {
        std::vector<BatchLane> lanes;
        SimConfig wide = scaleConfig(threads);
        wide.paranoidEvery = 1 << 15;
        lanes.push_back({wide, identity(threads)});
        SimConfig narrow = scaleConfig(threads / 2);
        narrow.contexts = 2;
        narrow.paranoidEvery = 1 << 15;
        std::vector<uint32_t> assign(threads);
        for (uint32_t t = 0; t < threads; ++t)
            assign[t] = t / 2;
        lanes.push_back({narrow, PlacementMap(threads / 2, assign)});
        return lanes;
    };

    trace::TraceSet traces = workload::generateTraces(p, /*scale=*/1);
    workload::AppStreamFactory factory(p, /*scale=*/1);
    trace::SharedTraceStream stream(factory, /*lanes=*/2,
                                    /*chunkEvents=*/512);
    BatchMachine batch(lanesFor(), stream);
    std::vector<LaneResult> results = batch.run();

    std::vector<BatchLane> lanes = lanesFor();
    ASSERT_EQ(results.size(), lanes.size());
    for (size_t i = 0; i < lanes.size(); ++i) {
        SCOPED_TRACE("lane " + std::to_string(i));
        ASSERT_TRUE(results[i].ok) << results[i].error;
        expectIdenticalStats(
            simulate(lanes[i].cfg, traces, lanes[i].placement),
            results[i].stats);
    }
}

// The full 1024-processor machine: the run completes, and the
// streaming window keeps resident trace memory bounded — a fixed
// number of chunks per thread, several times smaller than the
// materialized trace would be (the gap widens with trace length).
TEST(SimScale, BoundedResidentBytesAt1024Procs)
{
    const uint32_t threads = sim::kMaxProcessors;  // 1024
    const size_t chunkEvents = 512;
    workload::AppProfile p = scaleProfile(threads, 20'000);
    SimConfig cfg = scaleConfig(threads);
    PlacementMap place = identity(threads);

    // Producer batches smaller than the chunk target: a refill cuts
    // chunks at chunkEvents plus at most one batch of overshoot.
    workload::AppStreamFactory factory(p, /*scale=*/1,
                                       /*stepsPerBatch=*/128);
    size_t residentBytes = 0;
    SimStats stats = simulateStreaming(cfg, factory, place,
                                       chunkEvents, &residentBytes);

    EXPECT_EQ(stats.procs.size(), threads);
    EXPECT_GT(stats.executionTime(), 0u);
    EXPECT_GT(stats.totalMemRefs(), 1'000'000u);
    for (const ProcessorStats &ps : stats.procs)
        EXPECT_GT(ps.instructions, 0u);

    // Hard bound: at most a few chunks resident per thread at the
    // high-water mark, independent of trace length. Each resident
    // chunk holds at most chunkEvents plus one producer batch of
    // overshoot, and a single lane keeps at most two chunks per
    // thread alive (the one being consumed and the one just pulled).
    EXPECT_GT(residentBytes, 0u);
    EXPECT_LE(residentBytes, static_cast<size_t>(threads) * 4 *
                                 chunkEvents *
                                 sizeof(trace::TraceEvent));

    // Relative bound: well below what materializing the traces would
    // take. Data references alone (one packed event each) are a lower
    // bound on the materialized footprint.
    size_t materializedFloor =
        stats.totalMemRefs() * sizeof(trace::TraceEvent);
    EXPECT_LT(residentBytes * 2, materializedFloor);
}

} // namespace
} // namespace tsp::sim
