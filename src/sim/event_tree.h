/**
 * @file
 * The simulator's event "queue": a winner (tournament) tree over the
 * per-processor next-event times.
 *
 * Each processor has at most one outstanding event, so the queue is a
 * fixed array of times indexed by processor id rather than a heap of
 * (time, processor) records. The leaves are padded to a power of two
 * with kNoEvent, and each internal node holds the earlier of its two
 * children. The root therefore names the earliest event in O(1), and
 * changing one processor's time replays a single leaf-to-root path in
 * O(log P). Popping the winner and reading the root again yields the
 * runner-up, which is the event loop's chain horizon.
 *
 * A node is one packed key, (time << indexBits) | processor, so the
 * (time, processor) order — ties to the lowest processor id, which the
 * golden digests pin — is a single unsigned compare, and a replay
 * level is a load, a compare and a conditional move. kNoEvent
 * packs to the all-ones key, later than every real event. Times must
 * stay below 2^(64 - indexBits) - 1 (2^54 at 1024 processors); set()
 * panics past that.
 *
 * All storage is sized in the constructor; no operation allocates
 * (the simulator's allocation-free contract, tests/sim_alloc_test.cc).
 * tests/sim_event_tree_test.cc checks the tree against a brute-force
 * lowest-id argmin.
 */

#ifndef TSP_SIM_EVENT_TREE_H
#define TSP_SIM_EVENT_TREE_H

#include <bit>
#include <cstdint>
#include <vector>

#include "util/error.h"

namespace tsp::sim {

/** Earliest-event winner tree over a fixed set of processors. */
class EventTree
{
  public:
    /** Time of a processor with no outstanding event. */
    static constexpr uint64_t kNoEvent = ~0ull;

    /** A tree over @p n processors, every one without an event. */
    explicit EventTree(uint32_t n = 0)
    {
        while (leaves_ < n)
            leaves_ *= 2;
        indexBits_ = static_cast<unsigned>(std::countr_zero(leaves_));
        maxTime_ = (kNoEvent >> indexBits_) - 1;
        keys_.assign(2 * size_t(leaves_), kNoEvent);
    }

    /** Processor @p i's event time (kNoEvent when it has none). */
    uint64_t time(uint32_t i) const { return timeOf(keys_[leaves_ + i]); }

    /** Earliest event time; kNoEvent when no processor has one. */
    uint64_t topTime() const { return timeOf(keys_[1]); }

    /**
     * Processor holding the earliest event, the lowest id among equal
     * times. Meaningful only while topTime() != kNoEvent.
     */
    uint32_t
    top() const
    {
        return static_cast<uint32_t>(keys_[1] & (leaves_ - 1));
    }

    /**
     * topTime() < @p t, in one compare against the root key. @p t
     * must be a time set() accepts.
     */
    bool
    topBefore(uint64_t t) const
    {
        // t > T  <=>  t << b > (T << b) | i  for every index i < 2^b,
        // and the all-ones kNoEvent key is never below a shifted time.
        return (t << indexBits_) > keys_[1];
    }

    /** Set processor @p i's event time to @p t (kNoEvent clears it). */
    void
    set(uint32_t i, uint64_t t)
    {
        util::panicIf(t != kNoEvent && t > maxTime_,
                      "event time overflows the event tree key");
        const uint64_t key =
            t == kNoEvent ? kNoEvent : (t << indexBits_) | i;
        uint32_t k = leaves_ + i;
        const uint64_t old = keys_[k];
        if (key == old)
            return;
        keys_[k] = key;
        if (key < old) {
            // Earlier: i can only win more subtrees. Climb while it
            // beats each winner; above its first loss nothing changes.
            for (k >>= 1; k >= 1 && key < keys_[k]; k >>= 1)
                keys_[k] = key;
            return;
        }
        // Later: replay the path against the siblings.
        uint64_t cur = key;
        for (; k > 1; k >>= 1) {
            const uint64_t sib = keys_[k ^ 1];
            cur = sib < cur ? sib : cur;
            keys_[k >> 1] = cur;
        }
    }

    /** Clear processor @p i's event. */
    void pop(uint32_t i) { set(i, kNoEvent); }

    /** Move processor @p i's event up to @p t; true if it moved. */
    bool
    lower(uint32_t i, uint64_t t)
    {
        if (t >= time(i))
            return false;
        set(i, t);
        return true;
    }

  private:
    uint64_t
    timeOf(uint64_t key) const
    {
        return key == kNoEvent ? kNoEvent : key >> indexBits_;
    }

    uint32_t leaves_ = 2;     //!< power of two >= max(n, 2): a real root
    unsigned indexBits_ = 1;  //!< log2(leaves_)
    uint64_t maxTime_ = 0;    //!< latest time that packs into a key
    std::vector<uint64_t> keys_;  //!< [1, leaves_) winners; leaves after
};

} // namespace tsp::sim

#endif // TSP_SIM_EVENT_TREE_H
