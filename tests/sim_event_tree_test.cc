/**
 * @file
 * EventTree tests: the simulator's winner tree must name exactly the
 * event a brute-force scan would — the earliest time, the lowest
 * processor id among equal times — and, once that winner is popped,
 * exactly the scan's runner-up (the chain horizon). Randomized
 * set/pop/lower sequences over heavily tied times and kNoEvent run at
 * sizes on both sides of every power-of-two padding boundary.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_tree.h"
#include "util/error.h"
#include "util/rng.h"

namespace tsp::sim {
namespace {

constexpr uint64_t kNoEvent = EventTree::kNoEvent;

/** The scan the tree replaces: strict < keeps the lowest id on ties. */
struct ScanResult
{
    uint64_t now = kNoEvent;
    uint64_t horizon = kNoEvent;
    uint32_t proc = 0;
};

ScanResult
scan(const std::vector<uint64_t> &times)
{
    ScanResult r;
    for (uint32_t i = 0; i < times.size(); ++i) {
        uint64_t s = times[i];
        if (s < r.now) {
            r.horizon = r.now;
            r.now = s;
            r.proc = i;
        } else if (s < r.horizon) {
            r.horizon = s;
        }
    }
    return r;
}

/** Check winner and runner-up of @p tree against the oracle scan. */
void
expectMatchesScan(EventTree &tree, const std::vector<uint64_t> &times)
{
    ScanResult want = scan(times);
    ASSERT_EQ(tree.topTime(), want.now);
    if (want.now == kNoEvent)
        return;
    ASSERT_EQ(tree.top(), want.proc);
    // Pop the winner: the root is now the horizon. Then restore it.
    tree.pop(want.proc);
    ASSERT_EQ(tree.topTime(), want.horizon);
    tree.set(want.proc, want.now);
    ASSERT_EQ(tree.top(), want.proc);
}

/** A time drawn from a tiny range so most comparisons are ties. */
uint64_t
tiedTime(util::Rng &rng)
{
    return rng.nextBelow(8) == 0 ? kNoEvent : rng.nextBelow(6);
}

TEST(EventTree, StartsEmpty)
{
    for (uint32_t n : {1u, 2u, 3u, 1024u}) {
        EventTree tree(n);
        EXPECT_EQ(tree.topTime(), kNoEvent);
        for (uint32_t i = 0; i < n; ++i)
            EXPECT_EQ(tree.time(i), kNoEvent);
    }
}

TEST(EventTree, AllTiedPicksProcessorsInIdOrder)
{
    // The simulator's first chains: every processor at time 0. Popping
    // the winner repeatedly must visit 0, 1, 2, ... like the scan.
    const uint32_t n = 129;
    EventTree tree(n);
    for (uint32_t i = 0; i < n; ++i)
        tree.set(i, 0);
    for (uint32_t i = 0; i < n; ++i) {
        ASSERT_EQ(tree.topTime(), 0u);
        ASSERT_EQ(tree.top(), i);
        tree.pop(i);
    }
    EXPECT_EQ(tree.topTime(), kNoEvent);
}

TEST(EventTree, LowerOnlyMovesEventsEarlier)
{
    EventTree tree(5);
    EXPECT_TRUE(tree.lower(3, 10));
    EXPECT_FALSE(tree.lower(3, 10));  // equal is not earlier
    EXPECT_FALSE(tree.lower(3, 12));
    EXPECT_EQ(tree.time(3), 10u);
    EXPECT_TRUE(tree.lower(4, 10));
    EXPECT_EQ(tree.top(), 3u);  // tie: lower id
    EXPECT_TRUE(tree.lower(4, 9));
    EXPECT_EQ(tree.top(), 4u);
}

TEST(EventTree, RandomizedParityWithScan)
{
    for (uint32_t n : {1u, 2u, 3u, 5u, 127u, 128u, 129u, 1000u, 1024u}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        util::Rng rng(0xE7E27u + n);
        EventTree tree(n);
        std::vector<uint64_t> times(n, kNoEvent);
        for (int op = 0; op < 4000; ++op) {
            uint32_t i = static_cast<uint32_t>(rng.nextBelow(n));
            switch (rng.nextBelow(4)) {
            case 0:  // arbitrary overwrite (yield / clear)
            case 1: {
                uint64_t t = tiedTime(rng);
                tree.set(i, t);
                times[i] = t;
                break;
            }
            case 2: {  // barrier reschedule
                uint64_t t = tiedTime(rng);
                bool moved = t < times[i];
                ASSERT_EQ(tree.lower(i, t), moved);
                if (moved)
                    times[i] = t;
                break;
            }
            default: {  // the event loop's pick: pop the winner
                ScanResult want = scan(times);
                if (want.now != kNoEvent) {
                    ASSERT_EQ(tree.top(), want.proc);
                    tree.pop(want.proc);
                    times[want.proc] = kNoEvent;
                }
                break;
            }
            }
            ASSERT_EQ(tree.time(i), times[i]);
            expectMatchesScan(tree, times);
        }
    }
}

TEST(EventTree, WideTimesOrderExactly)
{
    // Event times are cycle counts, not small integers: every time a
    // key can hold (below 2^54 with 1000 processors' 10 index bits)
    // must order exactly, the largest included.
    const uint32_t n = 1000;
    const uint64_t maxTime = (kNoEvent >> 10) - 1;
    util::Rng rng(99);
    EventTree tree(n);
    std::vector<uint64_t> times(n, kNoEvent);
    for (int op = 0; op < 3000; ++op) {
        uint32_t i = static_cast<uint32_t>(rng.nextBelow(n));
        uint64_t t = rng.nextBelow(maxTime + 1);
        switch (rng.nextBelow(4)) {
        case 0:
            t = times[rng.nextBelow(n)];  // an exact tie, or kNoEvent
            break;
        case 1:
            t = maxTime - rng.nextBelow(2);
            break;
        default:
            break;
        }
        tree.set(i, t);
        times[i] = t;
        ASSERT_EQ(tree.time(i), t);
        expectMatchesScan(tree, times);
    }
}

TEST(EventTree, TopBeforeMatchesTopTime)
{
    EventTree tree(3);
    EXPECT_FALSE(tree.topBefore(0));  // no events: nothing is earlier
    EXPECT_FALSE(tree.topBefore((kNoEvent >> 2) - 1));
    tree.set(2, 10);
    EXPECT_FALSE(tree.topBefore(9));
    EXPECT_FALSE(tree.topBefore(10));  // equal is not before
    EXPECT_TRUE(tree.topBefore(11));
    tree.set(0, 10);  // a tie at a lower id changes nothing here
    EXPECT_FALSE(tree.topBefore(10));
    EXPECT_TRUE(tree.topBefore(11));
}

TEST(EventTree, RefusesTimesPastTheKey)
{
    // 1024 processors leave 54 bits of time in a key.
    EventTree tree(1024);
    const uint64_t maxTime = (kNoEvent >> 10) - 1;
    tree.set(1023, maxTime);
    EXPECT_EQ(tree.topTime(), maxTime);
    EXPECT_EQ(tree.top(), 1023u);
    EXPECT_THROW(tree.set(0, maxTime + 1), util::PanicError);
}

} // namespace
} // namespace tsp::sim
