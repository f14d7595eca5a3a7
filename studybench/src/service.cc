/**
 * @file
 * service-cold and service-warm: the experiment service end to end.
 * An in-process svc::Daemon (2 workers) sits behind svc::Server on
 * loopback; closed-loop svc::Client threads in this process drive it.
 *
 * service-cold: each unit starts a daemon on a fresh ResultStore and
 * four clients request every cell of a fixed cell set exactly once, so
 * every cell misses by construction. Each put re-reads and rewrites
 * the whole store image, so persistence grows with the store and
 * dominates; with four clients for two workers, requests also wait in
 * the queue.
 *
 * service-warm: each unit pre-populates a fresh store during set-up
 * and two clients send multi-cell studies of stored cells, so every
 * cell hits: wire framing, the poll server, queue hand-off, the codec
 * and store lookup, with no simulation.
 */

#include <sys/stat.h>

#include <atomic>
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "spans.h"
#include "stats.h"
#include "study.h"
#include "svc/client.h"
#include "svc/daemon.h"
#include "svc/result_store.h"
#include "svc/server.h"

namespace studybench {

using namespace tsp;
using experiment::RunJob;
using experiment::RunResult;

namespace {

constexpr uint32_t kScale = 128;
constexpr uint32_t kTinyScale = 512;
constexpr unsigned kWorkers = 2;
constexpr unsigned kColdClients = 4;
constexpr unsigned kWarmClients = 2;
constexpr size_t kWarmCellsPerRequest = 192;

uint32_t
scaleOf(bool tiny)
{
    return tiny ? kTinyScale : kScale;
}

const std::vector<workload::AppId> &
serviceApps()
{
    static const std::vector<workload::AppId> apps = {
        workload::AppId::Water, workload::AppId::BarnesHut,
        workload::AppId::MP3D};
    return apps;
}

/**
 * The cell universe, in canonical order: the service applications x
 * every placement algorithm x standardSweep x every memory system, all
 * with the finite cache. (Infinite-cache cells cost 10-50x more, almost
 * all of it allocating and zeroing 8 MB caches, which would bury the
 * service layers under page faults.)
 */
std::vector<RunJob>
universe()
{
    std::vector<RunJob> jobs;
    for (workload::AppId app : serviceApps())
        for (placement::Algorithm alg : placement::allAlgorithms())
            for (const auto &point : experiment::standardSweep(
                     workload::profile(app).threads))
                for (experiment::MemSystem ms :
                     experiment::allMemSystems())
                    jobs.push_back({app, alg, point, false, ms});
    return jobs;
}

/**
 * service-cold's cells: the whole universe, 576 cells (tiny: the first
 * 120). Cells this cheap leave the store's whole-image rewrite per put,
 * which grows with the store, as the largest cost.
 */
std::vector<RunJob>
coldCells(bool tiny)
{
    std::vector<RunJob> all = universe();
    if (tiny)
        all.resize(120);
    return all;
}

/** service-warm's stored cells: every 3rd cell of the universe. */
std::vector<RunJob>
warmCells()
{
    std::vector<RunJob> all = universe(), out;
    for (size_t i = 0; i < all.size(); i += 3)
        out.push_back(all[i]);
    return out;
}

size_t
warmRequests(bool tiny)
{
    return tiny ? 100 : 750;
}

/**
 * Daemon + server on a store in a fresh directory (one unit per
 * process, so one directory per workload suffices); torn down in order.
 */
struct Stack
{
    std::filesystem::path dir;
    std::unique_ptr<svc::Daemon> daemon;
    std::unique_ptr<svc::Server> server;

    /** @p populate (optional) fills the store before the daemon opens it. */
    Stack(const std::string &workdir, const std::string &name,
          uint32_t scale,
          const std::function<void(const std::string &)> &populate)
        : dir(std::filesystem::path(workdir) / name)
    {
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        if (populate)
            populate(storePath());
        svc::Daemon::Config dc;
        dc.scale = scale;
        dc.workers = kWorkers;
        dc.storePath = storePath();
        daemon = std::make_unique<svc::Daemon>(dc);
        server = std::make_unique<svc::Server>(*daemon,
                                               svc::Server::Config{});
    }

    std::string storePath() const
    {
        return (dir / "results.tsps").string();
    }

    ~Stack()
    {
        server.reset();  // stops and joins the poll thread
        if (daemon)
            daemon->drain();
        daemon.reset();
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }

    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;
};

/** What the clients of one unit observed. */
struct ClientLog
{
    std::mutex mutex;
    std::vector<double> latencyMs;     //!< submit -> answer
    std::vector<double> queueMs;       //!< daemon queue wait
    std::vector<double> execMs;        //!< daemon dequeue -> answer
    std::vector<double> wireMs;        //!< latency minus daemon time
    std::vector<std::optional<CellRecord>> records;  //!< canonical
    uint64_t requests = 0;
    uint64_t failedRequests = 0;
    uint64_t reconnects = 0;
    std::vector<std::string> errors;
};

/** One request of a unit: its index (cell or request) and the study. */
using Request = std::pair<size_t, svc::StudyRequest>;

/**
 * Drive @p clients closed-loop clients until @p next returns no more
 * requests. @p check validates one answered response and fills the
 * canonical records; it returns an error text or "".
 */
void
driveClients(
    uint16_t port, unsigned clients, ClientLog &log,
    const std::function<std::optional<Request>()> &next,
    const std::function<std::string(size_t, const svc::StudyResponse &,
                                     ClientLog &)> &check)
{
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            svc::Client::Config cc;
            cc.port = port;
            cc.identity = "studybench.client" + std::to_string(c);
            svc::Client client(cc);
            while (auto item = next()) {
                auto t0 = std::chrono::steady_clock::now();
                svc::Client::Result res;
                {
                    Tracer::Scope s("svc.request");
                    res = client.submit(item->second);
                    s.arg("queue_ms", res.response.queueMillis);
                    s.arg("total_ms", res.response.totalMillis);
                }
                double ms = secondsSince(t0) * 1e3;
                std::string err;
                if (!res.answered)
                    err = res.rejected ? "rejected: " + res.rejection
                                       : "no answer from the server";
                else if (res.response.status !=
                         svc::StudyStatus::Completed)
                    err = "status " + svc::statusName(res.response.status) +
                          " " + res.response.error;
                std::lock_guard<std::mutex> lock(log.mutex);
                if (err.empty())
                    err = check(item->first, res.response, log);
                ++log.requests;
                log.reconnects += res.reconnects;
                log.latencyMs.push_back(ms);
                log.queueMs.push_back(res.response.queueMillis);
                log.execMs.push_back(res.response.totalMillis -
                                     res.response.queueMillis);
                log.wireMs.push_back(ms - res.response.totalMillis);
                if (!err.empty()) {
                    ++log.failedRequests;
                    log.errors.push_back(err);
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
}

/**
 * Fold a unit's client log into the report's counts and gate its
 * digest; a mismatch fails every request of the unit.
 */
void
settle(const RunConfig &cfg, Report &report, const ClientLog &log,
       const std::string &workload)
{
    report.attempted += log.requests;
    report.failed += log.failedRequests;
    if (!log.errors.empty())
        report.fail(workload + ": " + std::to_string(log.errors.size()) +
                    " failed requests, first: " + log.errors.front());
    std::vector<CellRecord> canonical;
    for (const auto &r : log.records)
        if (r)
            canonical.push_back(*r);
    if (canonical.size() != log.records.size()) {
        report.fail(workload + ": some cells were never answered");
        canonical.clear();
    }
    report.gate(cfg, refKey(cfg, workload), digestOf(canonical),
                log.requests);
}

/** Lab::run of @p cells on a fresh Lab: the in-process answers. */
std::vector<RunResult>
inProcess(uint32_t scale, const std::vector<RunJob> &cells)
{
    experiment::Lab lab(scale);
    std::vector<RunResult> out;
    for (const RunJob &job : cells)
        out.push_back(lab.run(job.app, job.alg, job.point,
                              job.infiniteCache, job.memSystem));
    return out;
}

void
setServiceMetrics(Report &report, const std::string &workload,
                  const ClientLog &log, double studySeconds)
{
    report.set("svc.reconnects", double(log.reconnects), "count");
    report.set(workload + ".requests_per_s",
               double(log.requests) / studySeconds, "1/s");
    report.set(workload + ".request_ms.p50",
               requirePercentile(log.latencyMs, 50, "request_ms"), "ms");
    report.set(workload + ".request_ms.p90",
               requirePercentile(log.latencyMs, 90, "request_ms"), "ms");
}

} // namespace

void
serviceColdUnit(const RunConfig &cfg, int index, UnitClock &clock,
                Report &report)
{
    const std::vector<RunJob> cells = coldCells(cfg.tiny);
    const uint32_t scale = scaleOf(cfg.tiny);
    Stack stack(cfg.workdir, "cold", scale, nullptr);
    for (workload::AppId app : serviceApps())
        stack.daemon->lab().warmup(app, /*coherence=*/true);
    std::vector<size_t> order =
        permutation(cells.size(), cfg.seed * 7919u + uint64_t(index));
    ClientLog log;
    log.records.resize(cells.size());
    std::atomic<size_t> cursor{0};
    auto next = [&]() -> std::optional<Request> {
        size_t i = cursor.fetch_add(1);
        if (i >= order.size())
            return std::nullopt;
        svc::StudyRequest req;
        req.jobs = {cells[order[i]]};
        return Request{order[i], std::move(req)};
    };
    auto check = [](size_t cell, const svc::StudyResponse &resp,
                    ClientLog &l) -> std::string {
        if (resp.outcomes.size() != 1 || !resp.outcomes[0].ok())
            return "cell failed in the daemon";
        if (resp.cacheHits != 0 || resp.executed != 1)
            return "cold cell was not simulated fresh (cacheHits=" +
                   std::to_string(resp.cacheHits) + ")";
        l.records[cell] = recordOf(resp.outcomes[0].value());
        return "";
    };

    if (!clock.studyBegins())
        return;
    {
        Tracer::Scope s("bench.phase.service-cold");
        driveClients(stack.server->port(), kColdClients, log, next, check);
    }
    clock.studyEnds();

    settle(cfg, report, log, "service-cold");
    setServiceMetrics(report, "service-cold", log, clock.studySeconds());
    report.set("svc.queue_ms.p50",
               requirePercentile(log.queueMs, 50, "queue_ms"), "ms");
    report.set("svc.queue_ms.p90",
               requirePercentile(log.queueMs, 90, "queue_ms"), "ms");
    report.set("svc.exec_ms.p50",
               requirePercentile(log.execMs, 50, "exec_ms"), "ms");
    if (!Tracer::instance().enabled())
        return;

    // Replay the cold cell sequence in process: Lab::run, then a put
    // into a fresh store, stat-ing the file after each put. The
    // service's answers must equal the in-process ones.
    Tracer::Scope s("bench.check.service-cold");
    std::filesystem::path dir =
        std::filesystem::path(cfg.workdir) / "cold-replay";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::string path = (dir / "results.tsps").string();
    experiment::Lab lab(scale);
    for (workload::AppId app : serviceApps())
        lab.warmup(app, /*coherence=*/true);
    uint64_t bytes = 0, mismatched = 0;
    {
        svc::ResultStore store(path, scale);
        for (size_t i : order) {
            const RunJob &job = cells[i];
            RunResult result;
            {
                Tracer::Scope c("experiment.cell");
                result = lab.run(job.app, job.alg, job.point,
                                 job.infiniteCache, job.memSystem);
            }
            if (log.records[i] != recordOf(result))
                ++mismatched;
            {
                Tracer::Scope p("svc.store.put");
                store.put(job, result);
            }
            struct stat st {};
            if (::stat(path.c_str(), &st) == 0)
                bytes += uint64_t(st.st_size);
        }
    }
    std::filesystem::remove_all(dir);
    report.set("svc.store.bytes_written", double(bytes), "bytes");
    if (mismatched) {
        report.failed += mismatched;
        report.fail(std::to_string(mismatched) +
                    " service-cold answers differ from Lab::run");
    }
}

void
serviceWarmUnit(const RunConfig &cfg, int index, UnitClock &clock,
                Report &report)
{
    const std::vector<RunJob> cells = warmCells();
    const uint32_t scale = scaleOf(cfg.tiny);
    const size_t nRequests = warmRequests(cfg.tiny);
    std::vector<RunResult> expected = inProcess(scale, cells);
    Stack stack(cfg.workdir, "warm", scale, [&](const std::string &path) {
        svc::ResultStore store(path, scale);
        for (size_t i = 0; i < cells.size(); ++i)
            store.put(cells[i], expected[i]);
    });
    std::vector<size_t> order =
        permutation(cells.size(), cfg.seed * 104729u + uint64_t(index));
    auto cellOf = [&](size_t request, size_t j) {
        return order[(request * kWarmCellsPerRequest + j) % cells.size()];
    };
    ClientLog log;
    log.records.resize(cells.size());
    std::atomic<size_t> cursor{0};
    auto next = [&]() -> std::optional<Request> {
        size_t r = cursor.fetch_add(1);
        if (r >= nRequests)
            return std::nullopt;
        svc::StudyRequest req;
        for (size_t j = 0; j < kWarmCellsPerRequest; ++j)
            req.jobs.push_back(cells[cellOf(r, j)]);
        return Request{r, std::move(req)};
    };
    auto check = [&](size_t r, const svc::StudyResponse &resp,
                     ClientLog &l) -> std::string {
        if (resp.executed != 0 || resp.cacheHits != kWarmCellsPerRequest)
            return "warm request simulated (executed=" +
                   std::to_string(resp.executed) + ")";
        if (resp.outcomes.size() != kWarmCellsPerRequest)
            return "warm request lost cells";
        for (size_t j = 0; j < kWarmCellsPerRequest; ++j) {
            size_t cell = cellOf(r, j);
            if (!resp.outcomes[j].ok())
                return "warm cell failed in the daemon";
            CellRecord got = recordOf(resp.outcomes[j].value());
            if (got != recordOf(expected[cell]))
                return "warm answer differs from Lab::run";
            l.records[cell] = got;
        }
        return "";
    };

    if (!clock.studyBegins())
        return;
    {
        Tracer::Scope s("bench.phase.service-warm");
        driveClients(stack.server->port(), kWarmClients, log, next, check);
    }
    clock.studyEnds();

    settle(cfg, report, log, "service-warm");
    setServiceMetrics(report, "service-warm", log, clock.studySeconds());
    report.set("svc.wire_ms.p50",
               requirePercentile(log.wireMs, 50, "wire_ms"), "ms");
    if (!Tracer::instance().enabled())
        return;

    // Store lookups timed one by one against the unit's store.
    Tracer::Scope s("bench.check.service-warm");
    svc::ResultStore store(stack.storePath(), scale);
    for (int round = 0; round < 4; ++round) {
        for (const RunJob &job : cells) {
            Tracer::Scope l("svc.store.lookup");
            if (!store.lookup(job))
                report.fail("stored warm cell not found");
        }
    }
}

void
serviceReferences(bool tiny)
{
    RunConfig cfg;
    cfg.tiny = tiny;
    uint32_t scale = scaleOf(tiny);
    std::cout << refKey(cfg, "service-cold") << ' '
              << digestOf(inProcess(scale, coldCells(tiny))) << '\n';
    std::cout << refKey(cfg, "service-warm") << ' '
              << digestOf(inProcess(scale, warmCells())) << '\n';
}

} // namespace studybench
