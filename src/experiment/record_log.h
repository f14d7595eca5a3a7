/**
 * @file
 * The append-only, CRC-framed record log under every durable artifact
 * that persists completed cells: the TSPC checkpoint journal
 * (experiment::Checkpoint) and the TSPS content-addressed result
 * store (svc::ResultStore). The log is a thread-safe map from key
 * bytes to RunResult that owns the file's framing, replay and append;
 * each owner keeps only its key codec.
 *
 * File format (little-endian):
 *
 *     magic[4] | u32 version | u32 workload scale
 *     record*:  u32 payloadBytes | u32 crc32(payload) | payload
 *     payload:  owner's key encoding | RunResult (experiment::codec)
 *
 * put() writes only the new frames to the end of the file, so it
 * costs O(record), not O(file). Each publish cycle runs inside bounded
 * jittered retry, under the exclusive advisory lock on `<path>.lock`,
 * so several processes may share one file:
 *
 *  1. read the file only past the offset already replayed, handing
 *     each record another process appended to the owner (first writer
 *     wins); a file that shrank or was replaced replays from 0;
 *  2. ftruncate a torn or corrupt tail to the last intact record;
 *  3. drop pending records whose key another process published;
 *  4. write the remaining pending frames with one pwrite(2).
 *
 * Durability: safe against kill -9, not against power loss. A killed
 * writer leaves at most a torn tail, which replay drops and the next
 * publish truncates. There is no fsync: a per-append fdatasync would
 * cost more than the append, for a guarantee these files never had.
 */

#ifndef TSP_EXPERIMENT_RECORD_LOG_H
#define TSP_EXPERIMENT_RECORD_LOG_H

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "experiment/lab.h"
#include "experiment/run_codec.h"
#include "obs/metrics.h"

namespace tsp::experiment {

/** A durable key -> RunResult map over one append-only log file. */
class RecordLog
{
  public:
    /** The owner's file identity, key codec and hooks. */
    struct Format
    {
        char magic[4];     //!< e.g. "TSPS"
        uint32_t version;  //!< bumped when the payload codec changes
        std::string kind;  //!< noun for messages, e.g. "result store"

        /** Encode @p key as the payload prefix before the RunResult. */
        void (*writeKey)(codec::ByteWriter &w, const std::string &key);

        /** Inverse of writeKey; throws FatalError when malformed. */
        std::string (*readKey)(codec::ByteReader &r);

        void (*beforeLock)() = nullptr;   //!< fault hook, before the lock
        void (*beforeWrite)() = nullptr;  //!< fault hook, before the write
        obs::Counter *lockWaits = nullptr;  //!< bumped on contended locks
    };

    RecordLog(std::string path, uint32_t scale, Format format);

    /**
     * Replay every intact record of the file (absent = empty log).
     * Throws FatalError on a foreign, wrong-version or wrong-scale
     * header.
     */
    void open();

    /** Bytes of truncated/corrupt tail dropped by open(). */
    uint64_t droppedBytes() const { return dropped_; }

    /** The log file. */
    const std::string &path() const { return path_; }

    /**
     * The sidecar advisory-lock path: open() holds its flock shared,
     * each append exclusive, so processes may share one log.
     */
    std::string lockPath() const { return path_ + ".lock"; }

    /** Number of resident records. */
    size_t size() const;

    /** The resident result under @p key, if any. */
    std::optional<RunResult> lookup(const std::string &key) const;

    /**
     * Make @p result resident under @p key and append it, with every
     * record still pending from a failed append. Returns false (and
     * writes nothing) when the key is already resident. Throws when
     * the append fails past its retry budget; the record then stays
     * resident and pending for the next put.
     */
    bool put(const std::string &key, const RunResult &result);

  private:
    /**
     * Replay the intact records of @p bytes (starting with the file
     * header when @p header is set); returns the intact prefix length.
     */
    size_t replay(std::string_view bytes, bool header);

    /**
     * Replay what @p fd holds past offset_ (all of it when the file
     * shrank or was replaced); returns the file size.
     */
    uint64_t catchUp(int fd);

    /** One publish cycle (see the file comment). */
    void publish();

    std::string path_;
    uint32_t scale_;
    Format format_;

    mutable std::mutex mutex_;
    std::map<std::string, RunResult> results_;
    std::vector<std::pair<std::string, std::string>> pending_;  //!< key, frame
    uint64_t dropped_ = 0;
    uint64_t offset_ = 0;  //!< end of the intact replayed prefix
    uint64_t dev_ = 0;     //!< identity of the file replayed so far
    uint64_t ino_ = 0;
};

} // namespace tsp::experiment

#endif // TSP_EXPERIMENT_RECORD_LOG_H
