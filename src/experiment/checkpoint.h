/**
 * @file
 * Crash-safe checkpoint/resume for experiment sweeps.
 *
 * A Checkpoint journals every completed (app x algorithm x point) run
 * result to an on-disk file so a killed multi-hour sweep resumes by
 * replaying the journal and simulating only the missing cells.
 *
 * The journal is an experiment::RecordLog ("TSPC", version 2: v2
 * added the memory-system variant to the job key and the shared-L2
 * counters to the statistics; older journals are rejected). Each
 * record is the job key plus the full RunResult, bit-exact, so a
 * replayed sweep's report is identical to an uninterrupted run.
 */

#ifndef TSP_EXPERIMENT_CHECKPOINT_H
#define TSP_EXPERIMENT_CHECKPOINT_H

#include <cstdint>
#include <optional>
#include <string>

#include "experiment/lab.h"
#include "experiment/record_log.h"

namespace tsp::experiment {

struct RunJob;

/** Append-only, checksummed journal of completed sweep cells. */
class Checkpoint
{
  public:
    /**
     * Open (or create) the journal at @p path for a lab at workload
     * @p scale. Replays every intact record; throws FatalError when
     * the file exists but is not a TSPC journal or was written at a
     * different scale (its results would not be comparable).
     */
    Checkpoint(std::string path, uint32_t scale);

    /** The journal path. */
    const std::string &path() const { return log_.path(); }

    /** The workload scale the journal is bound to. */
    uint32_t scale() const { return scale_; }

    /** Number of completed job results currently journaled. */
    size_t size() const { return log_.size(); }

    /** Bytes of truncated/corrupt trailing data dropped on load. */
    uint64_t droppedBytes() const { return log_.droppedBytes(); }

    /** The journaled result of @p job, if any. Thread-safe. */
    std::optional<RunResult>
    lookup(const RunJob &job) const
    {
        return log_.lookup(keyOf(job));
    }

    /**
     * Journal @p result for @p job and persist. Idempotent (a
     * duplicate key is a no-op) and thread-safe; throws FatalError if
     * the journal cannot be persisted after bounded retries.
     */
    void record(const RunJob &job, const RunResult &result);

  private:
    /** Key bytes: app, alg, point, cache mode, memory system. */
    static std::string keyOf(const RunJob &job);

    uint32_t scale_;
    RecordLog log_;
};

} // namespace tsp::experiment

#endif // TSP_EXPERIMENT_CHECKPOINT_H
