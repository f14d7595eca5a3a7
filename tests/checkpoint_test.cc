/**
 * @file
 * Tests of the crash-safe checkpoint journal: full-fidelity
 * record/replay of run results, recovery from mid-record truncation
 * (the signature of a killed sweep), corrupt-record isolation, and
 * end-to-end sweep resume running only the missing cells.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "experiment/checkpoint.h"
#include "experiment/lab.h"
#include "experiment/parallel.h"
#include "fault/fault.h"
#include "util/error.h"

namespace tsp::experiment {
namespace {

using placement::Algorithm;
using workload::AppId;

constexpr uint32_t kScale = 64;

std::string
tempJournal(const std::string &name)
{
    std::string path = testing::TempDir() + "/" + name + ".tspc";
    std::remove(path.c_str());
    return path;
}

std::string
readAll(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

void
writeAll(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
}

void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.executionTime, b.executionTime);
    EXPECT_EQ(a.loadImbalance, b.loadImbalance);
    EXPECT_EQ(a.placement.assignment(), b.placement.assignment());
    ASSERT_EQ(a.stats.procs.size(), b.stats.procs.size());
    for (size_t i = 0; i < a.stats.procs.size(); ++i) {
        EXPECT_EQ(a.stats.procs[i].busyCycles,
                  b.stats.procs[i].busyCycles);
        EXPECT_EQ(a.stats.procs[i].hits, b.stats.procs[i].hits);
        EXPECT_EQ(a.stats.procs[i].misses, b.stats.procs[i].misses);
        EXPECT_EQ(a.stats.procs[i].finishTime,
                  b.stats.procs[i].finishTime);
    }
    EXPECT_EQ(a.stats.coherencePairs.total(),
              b.stats.coherencePairs.total());
    EXPECT_EQ(a.stats.sharingCompulsoryMisses,
              b.stats.sharingCompulsoryMisses);
    EXPECT_EQ(a.stats.networkTransactions, b.stats.networkTransactions);
}

TEST(Checkpoint, RecordedResultsReplayBitIdentically)
{
    std::string path = tempJournal("roundtrip");
    Lab lab(kScale);
    RunJob job{AppId::Water, Algorithm::ShareRefs, {4, 2}, false};
    RunResult fresh =
        lab.run(job.app, job.alg, job.point, job.infiniteCache);

    {
        Checkpoint cp(path, kScale);
        EXPECT_EQ(cp.size(), 0u);
        EXPECT_FALSE(cp.lookup(job).has_value());
        cp.record(job, fresh);
        EXPECT_EQ(cp.size(), 1u);
    }

    // A new process opening the same journal sees the exact result.
    Checkpoint cp(path, kScale);
    EXPECT_EQ(cp.size(), 1u);
    EXPECT_EQ(cp.droppedBytes(), 0u);
    auto replayed = cp.lookup(job);
    ASSERT_TRUE(replayed.has_value());
    expectSameResult(*replayed, fresh);
}

TEST(Checkpoint, RecordIsIdempotent)
{
    std::string path = tempJournal("idempotent");
    Lab lab(kScale);
    RunJob job{AppId::Water, Algorithm::LoadBal, {2, 4}, false};
    RunResult r = lab.run(job.app, job.alg, job.point, false);

    Checkpoint cp(path, kScale);
    cp.record(job, r);
    size_t bytes = readAll(path).size();
    cp.record(job, r);
    EXPECT_EQ(cp.size(), 1u);
    EXPECT_EQ(readAll(path).size(), bytes);
}

TEST(Checkpoint, ScaleMismatchIsFatal)
{
    std::string path = tempJournal("scale");
    {
        Checkpoint cp(path, kScale);
        Lab lab(kScale);
        RunJob job{AppId::Water, Algorithm::Random, {2, 4}, false};
        cp.record(job, lab.run(job.app, job.alg, job.point, false));
    }
    EXPECT_THROW(Checkpoint(path, kScale * 2), util::FatalError);
}

TEST(Checkpoint, GarbageFileIsFatal)
{
    std::string path = tempJournal("garbage");
    writeAll(path, "definitely not a TSPC journal");
    EXPECT_THROW(Checkpoint(path, kScale), util::FatalError);
}

TEST(Checkpoint, TruncatedTailRecordIsDroppedAndRewritable)
{
    std::string path = tempJournal("truncated");
    Lab lab(kScale);
    RunJob first{AppId::Water, Algorithm::Random, {2, 4}, false};
    RunJob second{AppId::Water, Algorithm::ShareRefs, {4, 2}, false};
    RunResult r1 = lab.run(first.app, first.alg, first.point, false);
    RunResult r2 =
        lab.run(second.app, second.alg, second.point, false);
    {
        Checkpoint cp(path, kScale);
        cp.record(first, r1);
        cp.record(second, r2);
    }

    // Kill simulation: chop 7 bytes off the tail, mid-record.
    std::string bytes = readAll(path);
    ASSERT_GT(bytes.size(), 7u);
    writeAll(path, bytes.substr(0, bytes.size() - 7));

    Checkpoint cp(path, kScale);
    EXPECT_EQ(cp.size(), 1u);
    EXPECT_GT(cp.droppedBytes(), 0u);
    ASSERT_TRUE(cp.lookup(first).has_value());
    EXPECT_FALSE(cp.lookup(second).has_value());
    expectSameResult(*cp.lookup(first), r1);

    // The dropped cell can be journaled again and survives reopen.
    cp.record(second, r2);
    Checkpoint reopened(path, kScale);
    EXPECT_EQ(reopened.size(), 2u);
    EXPECT_EQ(reopened.droppedBytes(), 0u);
    expectSameResult(*reopened.lookup(second), r2);
}

TEST(Checkpoint, CorruptMiddleRecordDropsTheTail)
{
    std::string path = tempJournal("bitrot");
    Lab lab(kScale);
    RunJob first{AppId::Water, Algorithm::Random, {2, 4}, false};
    RunJob second{AppId::Water, Algorithm::LoadBal, {4, 2}, false};
    {
        Checkpoint cp(path, kScale);
        cp.record(first, lab.run(first.app, first.alg, first.point,
                                 false));
        cp.record(second, lab.run(second.app, second.alg,
                                  second.point, false));
    }

    // Flip one byte inside the first record's payload: its CRC frame
    // no longer matches, so it and everything after it are dropped.
    std::string bytes = readAll(path);
    size_t target = 12 + 8 + 4;  // header + frame + a payload byte
    ASSERT_LT(target, bytes.size());
    bytes[target] = static_cast<char>(bytes[target] ^ 0xFF);
    writeAll(path, bytes);

    Checkpoint cp(path, kScale);
    EXPECT_EQ(cp.size(), 0u);
    EXPECT_GT(cp.droppedBytes(), 0u);
}

TEST(Checkpoint, ResumesBitIdenticallyAfterInjectedAppendFailure)
{
    std::string path = tempJournal("fault_append");
    Lab lab(kScale);
    RunJob first{AppId::Water, Algorithm::Random, {2, 4}, false};
    RunJob second{AppId::Water, Algorithm::ShareRefs, {4, 2}, false};
    RunResult r1 = lab.run(first.app, first.alg, first.point, false);
    RunResult r2 =
        lab.run(second.app, second.alg, second.point, false);

    Checkpoint cp(path, kScale);
    cp.record(first, r1);
    std::string journalBefore = readAll(path);
    ASSERT_FALSE(journalBefore.empty());

    // Every append now fails: the bounded retry exhausts and the
    // append surfaces the injected error to the caller.
    fault::arm("checkpoint.append:1+:error");
    EXPECT_THROW(cp.record(second, r2), std::runtime_error);
    fault::disarm();

    // The failed append wrote nothing: the journal on disk is exactly
    // the pre-failure journal, not a torn half-append.
    EXPECT_EQ(readAll(path), journalBefore);

    // A fresh process resumes from the surviving journal: the first
    // cell replays bit-identically, the failed one is simply absent
    // and can be journaled again.
    Checkpoint resumed(path, kScale);
    EXPECT_EQ(resumed.size(), 1u);
    EXPECT_EQ(resumed.droppedBytes(), 0u);
    ASSERT_TRUE(resumed.lookup(first).has_value());
    expectSameResult(*resumed.lookup(first), r1);
    EXPECT_FALSE(resumed.lookup(second).has_value());

    resumed.record(second, r2);
    Checkpoint reopened(path, kScale);
    EXPECT_EQ(reopened.size(), 2u);
    ASSERT_TRUE(reopened.lookup(second).has_value());
    expectSameResult(*reopened.lookup(second), r2);
}

TEST(Checkpoint, SweepResumesRunningOnlyMissingCells)
{
    std::string path = tempJournal("resume");
    std::vector<RunJob> jobs = {
        {AppId::Water, Algorithm::Random, {2, 4}, false},
        {AppId::Water, Algorithm::LoadBal, {2, 4}, false},
        {AppId::Water, Algorithm::ShareRefs, {4, 2}, false},
        {AppId::Water, Algorithm::MinShare, {4, 2}, false},
    };

    // A clean, checkpoint-free run for the bit-identical baseline.
    Lab baselineLab(kScale);
    auto baseline = ParallelRunner(baselineLab, 1).runAll(jobs);

    // First sweep is killed after two cells: only they get journaled.
    {
        Lab lab(kScale);
        Checkpoint cp(path, kScale);
        SweepOptions options;
        options.jobs = 2;
        options.checkpoint = &cp;
        std::vector<RunJob> firstHalf(jobs.begin(), jobs.begin() + 2);
        ParallelRunner(lab, options).runAll(firstHalf);
        EXPECT_EQ(cp.size(), 2u);
    }

    // The resumed sweep replays those two and simulates the rest.
    Lab lab(kScale);
    Checkpoint cp(path, kScale);
    SweepStats stats;
    SweepOptions options;
    options.jobs = 2;
    options.checkpoint = &cp;
    options.statsOut = &stats;
    auto resumed = ParallelRunner(lab, options).runAll(jobs);

    EXPECT_EQ(stats.total, jobs.size());
    EXPECT_EQ(stats.unique, jobs.size());
    EXPECT_EQ(stats.fromCheckpoint, 2u);
    EXPECT_EQ(stats.executed, 2u);
    EXPECT_EQ(stats.failed, 0u);

    ASSERT_EQ(resumed.size(), baseline.size());
    for (size_t i = 0; i < resumed.size(); ++i)
        expectSameResult(resumed[i], baseline[i]);

    // A third pass is all replay.
    Lab thirdLab(kScale);
    Checkpoint cp2(path, kScale);
    SweepStats stats2;
    SweepOptions options2;
    options2.jobs = 2;
    options2.checkpoint = &cp2;
    options2.statsOut = &stats2;
    auto third = ParallelRunner(thirdLab, options2).runAll(jobs);
    EXPECT_EQ(stats2.fromCheckpoint, jobs.size());
    EXPECT_EQ(stats2.executed, 0u);
    for (size_t i = 0; i < third.size(); ++i)
        expectSameResult(third[i], baseline[i]);
}

} // namespace
} // namespace tsp::experiment
