/**
 * @file
 * An application's complete trace: one ThreadTrace per thread, plus
 * application metadata.
 */

#ifndef TSP_TRACE_TRACE_SET_H
#define TSP_TRACE_TRACE_SET_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "trace/thread_trace.h"

namespace tsp::trace {

/**
 * All per-thread traces of one application run, in thread-id order.
 */
class TraceSet
{
  public:
    /** Construct an empty set for application @p name. */
    explicit TraceSet(std::string name = "") : name_(std::move(name)) {}

    /** Application name. */
    const std::string &name() const { return name_; }

    /** Set the application name. */
    void setName(std::string name) { name_ = std::move(name); }

    /** Number of threads. */
    size_t threadCount() const { return threads_.size(); }

    /** Append a thread trace; its id must equal its position. */
    void addThread(ThreadTrace tt);

    /** Thread trace by id. */
    const ThreadTrace &thread(ThreadId id) const { return threads_.at(id); }

    /** Mutable thread trace by id (invalidates the touched memo). */
    ThreadTrace &
    thread(ThreadId id)
    {
        invalidateTouched();
        return threads_.at(id);
    }

    /** All threads in id order. */
    const std::vector<ThreadTrace> &threads() const { return threads_; }

    /** Sum of instruction counts over all threads. */
    uint64_t totalInstructions() const;

    /** Sum of data references over all threads. */
    uint64_t totalMemRefs() const;

    /** Per-thread instruction counts in thread-id order. */
    std::vector<uint64_t> threadLengths() const;

    /**
     * Distinct cache blocks referenced at a given block granularity:
     * the union over every thread plus per-thread counts. The Machine
     * uses these to pre-size its directory and per-cache history
     * tables so the simulate loop never rehashes. Only materialized
     * traces have a census: a streamed run grows its tables instead
     * of generating the trace a second time to count.
     */
    struct TouchedBlocks
    {
        uint64_t total = 0;               //!< distinct across all threads
        std::vector<uint64_t> perThread;  //!< distinct per thread
    };

    /**
     * The touched-block census for @p blockShift (block = addr >>
     * blockShift). One pass over the events on first call; memoized
     * per shift thereafter, so sweeps re-running the same traces pay
     * the census once. Thread-safe against concurrent readers; the
     * memo resets whenever a thread trace is added or mutably
     * accessed. The returned reference stays valid until then.
     */
    const TouchedBlocks &touchedBlocks(unsigned blockShift) const;

  private:
    /** Shift-keyed census memo, shared by copies until invalidated. */
    struct TouchedMemo
    {
        std::mutex mutex;
        std::map<unsigned, TouchedBlocks> byShift;
    };

    /** Give this set a fresh memo (on any mutation). */
    void
    invalidateTouched()
    {
        touched_ = std::make_shared<TouchedMemo>();
    }

    std::string name_;
    std::vector<ThreadTrace> threads_;
    std::shared_ptr<TouchedMemo> touched_ =
        std::make_shared<TouchedMemo>();
};

} // namespace tsp::trace

#endif // TSP_TRACE_TRACE_SET_H
