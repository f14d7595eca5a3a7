/**
 * @file
 * Crash-safe content-addressed result store (the TSPS format): every
 * completed (job, scale) cell is keyed by its canonical configuration
 * bytes, so a duplicate study is a disk cache hit and a daemon
 * restart serves previously computed results bit-identically.
 *
 * Persistence is experiment::RecordLog, shared with the TSPC
 * checkpoint journal: each put appends one CRC-framed record
 * (`u64 keyDigest | u32 keyLen | key | RunResult`) in one write —
 * O(record), never a rewrite — and load() drops a torn tail, so a
 * kill -9 loses at most the records being published. Safe against
 * kill -9, not against power loss: the store never fsyncs.
 *
 * Several daemons — or a daemon plus a CLI — may share one TSPS file
 * through an advisory flock on `<path>.lock`: load() holds it shared;
 * put() holds it exclusive while it adopts the records other
 * processes appended since its last look and appends only what
 * nobody published yet. The file holds each record once, in arrival
 * order. The kernel drops the lock of a killed holder, so a kill -9
 * never wedges the store.
 *
 * Fault sites: `store.load` (open/replay), `store.lock` (advisory
 * lock acquisition) and `store.put` (persist), all in the chaos
 * matrix.
 */

#ifndef TSP_SVC_RESULT_STORE_H
#define TSP_SVC_RESULT_STORE_H

#include <cstdint>
#include <optional>
#include <string>

#include "experiment/lab.h"
#include "experiment/parallel.h"
#include "experiment/record_log.h"

namespace tsp::svc {

/**
 * Disk-backed map from canonical job configuration to RunResult.
 * Thread-safe: lookup() and put() may race from any number of daemon
 * workers.
 */
class ResultStore
{
  public:
    /**
     * Open (or create) the store at @p path, replaying every intact
     * record. Throws FatalError on a foreign or wrong-scale file.
     */
    ResultStore(std::string path, uint32_t scale);

    /** The workload scale every stored result was computed at. */
    uint32_t scale() const { return scale_; }

    /** Number of resident result records. */
    size_t size() const { return log_.size(); }

    /** Bytes of truncated/corrupt tail dropped by the last load. */
    size_t droppedBytes() const { return log_.droppedBytes(); }

    /** The backing file path. */
    const std::string &path() const { return log_.path(); }

    /** The sidecar advisory-lock path (`<path>.lock`). */
    std::string lockPath() const { return log_.lockPath(); }

    /**
     * FNV-1a digest of the canonical configuration bytes of
     * (@p job, @p scale) — the store's content address.
     */
    static uint64_t digestOf(const experiment::RunJob &job,
                             uint32_t scale);

    /**
     * The stored result of @p job, if present. Bumps the store.hits /
     * store.misses metrics.
     */
    std::optional<experiment::RunResult>
    lookup(const experiment::RunJob &job) const;

    /**
     * Persist @p result under @p job's content address. Returns false
     * (and writes nothing) when the key is already present. The
     * append runs under the exclusive advisory lock: records another
     * process appended since our last look at the file are adopted
     * first, so concurrent writers never drop each other's work. On a
     * persist failure that survives bounded retry the record stays
     * resident in memory — served to lookups, and appended by the
     * next successful put — and the error propagates so the caller
     * can report it.
     */
    bool put(const experiment::RunJob &job,
             const experiment::RunResult &result);

  private:
    /** Canonical key bytes: scale, app, alg, point, cache mode. */
    static std::string keyBytes(const experiment::RunJob &job,
                                uint32_t scale);

    uint32_t scale_;
    experiment::RecordLog log_;
};

} // namespace tsp::svc

#endif // TSP_SVC_RESULT_STORE_H
