/**
 * @file
 * Crash-recovery torture: a forked child runs the experiment daemon
 * against an on-disk result store (with the `store.put` site armed to
 * delay, widening the persist window) and is SIGKILLed mid-publish,
 * repeatedly. After every kill the parent reopens the store and
 * asserts the recovery contract — every surviving record is intact
 * and bit-identical to an independently computed result, i.e. kill -9
 * loses at most the record being published. A final daemon over the
 * tortured store answers the whole study from cache, bit-identically.
 *
 * The parent holds no Daemon (no threads) until forking is done;
 * the child never returns into gtest (SIGKILL or _exit).
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "experiment/run_codec.h"
#include "fault/fault.h"
#include "svc/daemon.h"
#include "svc/loadgen.h"

namespace tsp::svc {
namespace {

using experiment::RunJob;
using experiment::RunResult;
using namespace std::chrono_literals;

constexpr uint32_t kScale = 64;
constexpr int kKillRounds = 3;

std::string
bytesOf(const RunResult &result)
{
    experiment::codec::ByteWriter w;
    experiment::codec::writeRunResult(w, result);
    return w.bytes();
}

long long
fileSize(const std::string &path)
{
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0)
        return -1;
    return static_cast<long long>(st.st_size);
}

/**
 * Child body: serve the whole @p palette through a store-backed
 * daemon, one cell per study, then idle until killed. Never returns
 * to the caller's stack normally.
 */
[[noreturn]] void
childServe(const std::string &storePath,
           const std::vector<RunJob> &palette)
{
    // Stretch every persist so the parent's SIGKILL reliably lands
    // inside the put window.
    fault::arm("store.put:1+:delay");
    {
        Daemon::Config config;
        config.scale = kScale;
        config.workers = 1;
        config.queueCapacity = palette.size() + 1;
        config.storePath = storePath;
        Daemon daemon(config);
        for (const RunJob &job : palette) {
            StudyRequest request;
            request.jobs = {job};
            SubmitResult submitted = daemon.submit(request);
            if (!submitted.admitted())
                break;
            submitted.accepted->get();
        }
        daemon.drain();
    }
    // Store complete; idle here until the parent's kill arrives.
    for (;;)
        std::this_thread::sleep_for(50ms);
}

TEST(SvcTorture, SigkillMidPutNeverLosesMoreThanTheInFlightRecord)
{
    std::string path =
        testing::TempDir() + "/torture_store.tsps";
    std::remove(path.c_str());

    // The study under torture and its expected answers, computed
    // independently of any store or daemon.
    experiment::Lab lab(kScale);
    std::vector<RunJob> palette =
        defaultPalette(lab, workload::AppId::Water);
    ASSERT_GE(palette.size(), 4u);
    std::vector<std::string> expected;
    expected.reserve(palette.size());
    for (const RunJob &job : palette) {
        expected.push_back(bytesOf(
            lab.run(job.app, job.alg, job.point, job.infiniteCache)));
    }

    size_t survivorsBefore = 0;
    for (int round = 0; round < kKillRounds; ++round) {
        long long baseline = fileSize(path);
        pid_t child = fork();
        ASSERT_GE(child, 0) << "fork failed";
        if (child == 0) {
            childServe(path, palette);  // never returns
        }

        // Kill as soon as the store advances past this round's
        // baseline; after a bounded wait, kill regardless (the store
        // may already be complete).
        auto giveUp =
            std::chrono::steady_clock::now() + std::chrono::seconds(60);
        while (fileSize(path) <= baseline &&
               std::chrono::steady_clock::now() < giveUp)
            std::this_thread::sleep_for(1ms);
        ASSERT_EQ(::kill(child, SIGKILL), 0);
        int status = 0;
        ASSERT_EQ(::waitpid(child, &status, 0), child);
        ASSERT_TRUE(WIFSIGNALED(status));

        // Recovery contract: the store reopens cleanly, every
        // surviving record is a palette cell, and each one is
        // bit-identical to the independently computed result.
        ResultStore recovered(path, kScale);
        EXPECT_EQ(recovered.droppedBytes(), 0u)
            << "a single-write append must never leave a torn tail";
        size_t found = 0;
        for (size_t i = 0; i < palette.size(); ++i) {
            auto cached = recovered.lookup(palette[i]);
            if (!cached.has_value())
                continue;
            ++found;
            EXPECT_EQ(bytesOf(*cached), expected[i])
                << "record " << i << " corrupted by kill round "
                << round;
        }
        // Nothing in the store but palette cells, and no regression
        // of previously persisted records.
        EXPECT_EQ(found, recovered.size());
        EXPECT_GE(found, survivorsBefore);
        survivorsBefore = found;
        if (found == palette.size())
            break;  // the store is complete; further kills are no-ops
    }

    // Final leg: a fresh daemon over the tortured store answers the
    // full study; previously persisted cells are cache hits and every
    // outcome is bit-identical to the expected results.
    {
        Daemon::Config config;
        config.scale = kScale;
        config.workers = 2;
        config.queueCapacity = palette.size() + 1;
        config.storePath = path;
        Daemon daemon(config);
        StudyRequest request;
        request.jobs = palette;
        SubmitResult submitted = daemon.submit(request);
        ASSERT_TRUE(submitted.admitted()) << submitted.rejection;
        StudyResponse response = submitted.accepted->get();
        EXPECT_EQ(response.status, StudyStatus::Completed);
        EXPECT_EQ(response.cacheHits, survivorsBefore);
        EXPECT_EQ(response.executed,
                  palette.size() - survivorsBefore);
        ASSERT_EQ(response.outcomes.size(), palette.size());
        for (size_t i = 0; i < palette.size(); ++i) {
            ASSERT_TRUE(response.outcomes[i].ok())
                << response.outcomes[i].error();
            EXPECT_EQ(bytesOf(response.outcomes[i].value()),
                      expected[i]);
        }
        daemon.drain();
        ASSERT_NE(daemon.store(), nullptr);
        EXPECT_EQ(daemon.store()->size(), palette.size());
    }

    std::remove(path.c_str());
}

} // namespace
} // namespace tsp::svc
