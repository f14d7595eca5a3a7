/**
 * @file
 * The crash-safe content-addressed result store (svc::ResultStore):
 * bit-identical roundtrips through the TSPS format, idempotent puts,
 * restart recovery, truncated/corrupt-tail dropping, scale binding,
 * and the store.put fault site healing under bounded retry.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "experiment/run_codec.h"
#include "fault/fault.h"
#include "svc/result_store.h"
#include "util/error.h"

namespace tsp::svc {
namespace {

using experiment::MachinePoint;
using experiment::RunJob;
using experiment::RunResult;

constexpr uint32_t kScale = 64;

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "/" + name;
}

RunJob
jobAt(placement::Algorithm alg, uint32_t processors,
      bool infinite = false)
{
    return {workload::AppId::Water, alg,
            MachinePoint{processors, 4}, infinite};
}

/** Compute a real result once; cells are cheap at scale 64. */
RunResult
computedResult(const RunJob &job)
{
    static experiment::Lab lab(kScale);
    return lab.run(job.app, job.alg, job.point, job.infiniteCache);
}

/** Canonical bytes of a result, for bit-identity assertions. */
std::string
bytesOf(const RunResult &result)
{
    experiment::codec::ByteWriter w;
    experiment::codec::writeRunResult(w, result);
    return w.bytes();
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
    return bytes;
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
}

TEST(ResultStore, PutLookupRoundtripIsBitIdentical)
{
    std::string path = tempPath("store_roundtrip.tsps");
    std::remove(path.c_str());
    ResultStore store(path, kScale);

    RunJob job = jobAt(placement::Algorithm::LoadBal, 4);
    RunResult result = computedResult(job);
    EXPECT_TRUE(store.put(job, result));
    EXPECT_EQ(store.size(), 1u);

    auto cached = store.lookup(job);
    ASSERT_TRUE(cached.has_value());
    EXPECT_EQ(bytesOf(*cached), bytesOf(result));
    std::remove(path.c_str());
}

TEST(ResultStore, DuplicatePutIsIdempotent)
{
    std::string path = tempPath("store_dup.tsps");
    std::remove(path.c_str());
    ResultStore store(path, kScale);

    RunJob job = jobAt(placement::Algorithm::ShareRefs, 4);
    RunResult result = computedResult(job);
    EXPECT_TRUE(store.put(job, result));
    size_t fileSize = readFile(path).size();
    EXPECT_FALSE(store.put(job, result));
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(readFile(path).size(), fileSize);
    std::remove(path.c_str());
}

TEST(ResultStore, MissIsEmptyAndDistinctKeysCoexist)
{
    std::string path = tempPath("store_keys.tsps");
    std::remove(path.c_str());
    ResultStore store(path, kScale);

    RunJob a = jobAt(placement::Algorithm::LoadBal, 4);
    RunJob b = jobAt(placement::Algorithm::LoadBal, 4, true);
    EXPECT_NE(ResultStore::digestOf(a, kScale),
              ResultStore::digestOf(b, kScale));
    EXPECT_NE(ResultStore::digestOf(a, kScale),
              ResultStore::digestOf(a, kScale / 2));

    EXPECT_FALSE(store.lookup(a).has_value());
    store.put(a, computedResult(a));
    EXPECT_TRUE(store.lookup(a).has_value());
    EXPECT_FALSE(store.lookup(b).has_value());
    std::remove(path.c_str());
}

TEST(ResultStore, RestartServesPersistedResultsBitIdentically)
{
    std::string path = tempPath("store_restart.tsps");
    std::remove(path.c_str());
    RunJob jobs[] = {jobAt(placement::Algorithm::LoadBal, 4),
                     jobAt(placement::Algorithm::ShareRefs, 4),
                     jobAt(placement::Algorithm::LoadBal, 8)};
    {
        ResultStore store(path, kScale);
        for (const RunJob &job : jobs)
            store.put(job, computedResult(job));
    }

    ResultStore reopened(path, kScale);
    EXPECT_EQ(reopened.size(), 3u);
    EXPECT_EQ(reopened.droppedBytes(), 0u);
    for (const RunJob &job : jobs) {
        auto cached = reopened.lookup(job);
        ASSERT_TRUE(cached.has_value());
        EXPECT_EQ(bytesOf(*cached), bytesOf(computedResult(job)));
    }
    EXPECT_EQ(readFile(path).substr(0, 4), "TSPS");
    std::remove(path.c_str());
}

TEST(ResultStore, WrongScaleIsRejected)
{
    std::string path = tempPath("store_scale.tsps");
    std::remove(path.c_str());
    {
        ResultStore store(path, kScale);
        RunJob job = jobAt(placement::Algorithm::LoadBal, 4);
        store.put(job, computedResult(job));
    }
    EXPECT_THROW(ResultStore(path, kScale / 2), util::FatalError);
    std::remove(path.c_str());
}

TEST(ResultStore, ForeignFileIsRejected)
{
    std::string path = tempPath("store_foreign.tsps");
    writeFile(path, "definitely not a TSPS store");
    EXPECT_THROW(ResultStore(path, kScale), util::FatalError);
    std::remove(path.c_str());
}

TEST(ResultStore, TruncatedTailIsDroppedSurvivorsIntact)
{
    std::string path = tempPath("store_truncated.tsps");
    std::remove(path.c_str());
    RunJob first = jobAt(placement::Algorithm::LoadBal, 4);
    RunJob second = jobAt(placement::Algorithm::ShareRefs, 4);
    {
        ResultStore store(path, kScale);
        store.put(first, computedResult(first));
        store.put(second, computedResult(second));
    }

    // Chop into the last record: a kill -9 mid-write shape.
    std::string bytes = readFile(path);
    writeFile(path, bytes.substr(0, bytes.size() - 7));

    // Records sit in arrival order, so the chop tears the second put;
    // the test only pins that exactly one survives, intact.
    ResultStore recovered(path, kScale);
    EXPECT_EQ(recovered.size(), 1u);
    EXPECT_GT(recovered.droppedBytes(), 0u);
    auto survivorFirst = recovered.lookup(first);
    auto survivorSecond = recovered.lookup(second);
    ASSERT_NE(survivorFirst.has_value(), survivorSecond.has_value());
    if (survivorFirst.has_value())
        EXPECT_EQ(bytesOf(*survivorFirst),
                  bytesOf(computedResult(first)));
    else
        EXPECT_EQ(bytesOf(*survivorSecond),
                  bytesOf(computedResult(second)));

    // The recovered store keeps accepting new records: re-putting
    // both restores the full pair (the survivor dedups).
    recovered.put(first, computedResult(first));
    recovered.put(second, computedResult(second));
    ResultStore reopened(path, kScale);
    EXPECT_EQ(reopened.size(), 2u);
    EXPECT_EQ(reopened.droppedBytes(), 0u);
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
}

TEST(ResultStore, CorruptTailCrcIsDropped)
{
    std::string path = tempPath("store_corrupt.tsps");
    std::remove(path.c_str());
    RunJob first = jobAt(placement::Algorithm::LoadBal, 4);
    RunJob second = jobAt(placement::Algorithm::ShareRefs, 4);
    {
        ResultStore store(path, kScale);
        store.put(first, computedResult(first));
        store.put(second, computedResult(second));
    }

    std::string bytes = readFile(path);
    bytes.back() = static_cast<char>(bytes.back() ^ 0x5a);
    writeFile(path, bytes);

    // Exactly one record survives the flipped tail CRC (arrival
    // order: the second put sits at the tail).
    ResultStore recovered(path, kScale);
    EXPECT_EQ(recovered.size(), 1u);
    EXPECT_GT(recovered.droppedBytes(), 0u);
    EXPECT_NE(recovered.lookup(first).has_value(),
              recovered.lookup(second).has_value());
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
}

TEST(ResultStore, TransientPutFaultHealsUnderRetry)
{
    std::string path = tempPath("store_fault.tsps");
    std::remove(path.c_str());
    ResultStore store(path, kScale);
    RunJob job = jobAt(placement::Algorithm::LoadBal, 4);

    fault::arm("store.put:1:error");
    EXPECT_TRUE(store.put(job, computedResult(job)));  // retry heals
    fault::disarm();

    ResultStore reopened(path, kScale);
    EXPECT_EQ(reopened.size(), 1u);
    std::remove(path.c_str());
}

TEST(ResultStore, PersistentPutFaultThrowsButRecordStaysServable)
{
    std::string path = tempPath("store_fault2.tsps");
    std::remove(path.c_str());
    ResultStore store(path, kScale);
    RunJob first = jobAt(placement::Algorithm::LoadBal, 4);
    RunJob second = jobAt(placement::Algorithm::ShareRefs, 4);

    fault::arm("store.put:1+:error");
    EXPECT_THROW(store.put(first, computedResult(first)),
                 std::runtime_error);
    fault::disarm();

    // Failed to persist, but stays resident and served...
    EXPECT_TRUE(store.lookup(first).has_value());
    // ...and stays pending: the next successful put appends both.
    EXPECT_TRUE(store.put(second, computedResult(second)));
    ResultStore reopened(path, kScale);
    EXPECT_EQ(reopened.size(), 2u);
    std::remove(path.c_str());
}

TEST(ResultStore, LoadFaultSiteFires)
{
    std::string path = tempPath("store_loadfault.tsps");
    std::remove(path.c_str());
    fault::arm("store.load:1:error");
    EXPECT_THROW(ResultStore(path, kScale), std::runtime_error);
    fault::disarm();
    EXPECT_NO_THROW(ResultStore(path, kScale));
}

// --------------------------------------------- multi-process safety

TEST(ResultStore, LockFaultHealsUnderRetry)
{
    std::string path = tempPath("store_lockfault.tsps");
    std::remove(path.c_str());
    ResultStore store(path, kScale);
    RunJob job = jobAt(placement::Algorithm::LoadBal, 4);

    fault::arm("store.lock:1:error");
    EXPECT_TRUE(store.put(job, computedResult(job)));  // retry heals
    fault::disarm();
    ResultStore reopened(path, kScale);
    EXPECT_EQ(reopened.size(), 1u);
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
}

TEST(ResultStore, ForkedWritersBothLandEveryRecord)
{
    std::string path = tempPath("store_forked.tsps");
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());

    // Two disjoint record sets, computed in the parent BEFORE the
    // fork so the children only exercise store I/O, not simulation.
    std::vector<std::pair<RunJob, RunResult>> mine, theirs;
    for (uint32_t p : {2u, 4u, 8u}) {
        RunJob a = jobAt(placement::Algorithm::LoadBal, p);
        RunJob b = jobAt(placement::Algorithm::ShareRefs, p);
        mine.emplace_back(a, computedResult(a));
        theirs.emplace_back(b, computedResult(b));
    }

    auto writeAll =
        [&](const std::vector<std::pair<RunJob, RunResult>> &set) {
            // Each process opens its own store handle — two daemons
            // sharing one TSPS file — and publishes its set. The
            // append under the exclusive flock must first adopt
            // whatever the sibling already landed.
            ResultStore store(path, kScale);
            for (const auto &[job, result] : set)
                store.put(job, result);
        };

    pid_t left = fork();
    ASSERT_GE(left, 0);
    if (left == 0) {
        writeAll(mine);
        _exit(0);
    }
    pid_t right = fork();
    ASSERT_GE(right, 0);
    if (right == 0) {
        writeAll(theirs);
        _exit(0);
    }
    int status = 0;
    ASSERT_EQ(waitpid(left, &status, 0), left);
    ASSERT_EQ(status, 0);
    ASSERT_EQ(waitpid(right, &status, 0), right);
    ASSERT_EQ(status, 0);

    // A fresh reader sees a valid image holding BOTH processes' sets,
    // bit-identically — no lost update, no torn file.
    ResultStore merged(path, kScale);
    EXPECT_EQ(merged.droppedBytes(), 0u);
    EXPECT_EQ(merged.size(), mine.size() + theirs.size());
    for (const auto &[job, result] : mine) {
        auto got = merged.lookup(job);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(bytesOf(*got), bytesOf(result));
    }
    for (const auto &[job, result] : theirs) {
        auto got = merged.lookup(job);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(bytesOf(*got), bytesOf(result));
    }
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
}

TEST(ResultStore, SharedLockReaderNeverSeesATornImage)
{
    std::string path = tempPath("store_reader.tsps");
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());

    std::vector<std::pair<RunJob, RunResult>> records;
    for (uint32_t p : {2u, 4u, 8u, 16u}) {
        RunJob job = jobAt(placement::Algorithm::LoadBal, p);
        records.emplace_back(job, computedResult(job));
    }

    pid_t writer = fork();
    ASSERT_GE(writer, 0);
    if (writer == 0) {
        ResultStore store(path, kScale);
        for (const auto &[job, result] : records)
            store.put(job, result);
        _exit(0);
    }

    // Race the writer with shared-lock loads: every snapshot a reader
    // takes must be a valid prefix of the growing store — a complete
    // header, zero dropped bytes, monotonically growing record count.
    size_t lastSize = 0;
    for (int probe = 0; probe < 50; ++probe) {
        try {
            ResultStore reader(path, kScale);
            EXPECT_EQ(reader.droppedBytes(), 0u);
            EXPECT_GE(reader.size(), lastSize);
            EXPECT_LE(reader.size(), records.size());
            lastSize = reader.size();
        } catch (const util::FatalError &) {
            // Only acceptable before the writer's first publish: the
            // file does not exist yet. Never after records landed.
            EXPECT_EQ(lastSize, 0u);
        }
    }
    int status = 0;
    ASSERT_EQ(waitpid(writer, &status, 0), writer);
    ASSERT_EQ(status, 0);

    ResultStore settled(path, kScale);
    EXPECT_EQ(settled.size(), records.size());
    EXPECT_EQ(settled.droppedBytes(), 0u);
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
}

} // namespace
} // namespace tsp::svc
