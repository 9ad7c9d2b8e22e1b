/** @file Routed-stream semantics: latency, capacity backpressure,
 *  two-phase visibility, token preloading, fault injection and the
 *  checkpoint tape, checked against a three-queue reference model. */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.hpp"
#include "sim/stream.hpp"

using namespace plast;

TEST(Stream, LatencyDelaysArrival)
{
    ScalarStream s("t", /*latency=*/3, /*capacity=*/4);
    Cycles now = 0;
    s.push(42);
    for (int i = 0; i < 3; ++i) {
        s.tick(now++);
        if (i < 2) {
            EXPECT_FALSE(s.canPop()) << "arrived early at tick " << i;
        }
    }
    ASSERT_TRUE(s.canPop());
    EXPECT_EQ(s.front(), 42u);
}

TEST(Stream, SustainsOneElementPerCycle)
{
    ScalarStream s("t", 2, 4);
    Cycles now = 0;
    int pushed = 0, popped = 0;
    for (int c = 0; c < 100; ++c) {
        if (s.canPush()) {
            s.push(static_cast<Word>(pushed));
            ++pushed;
        }
        if (s.canPop()) {
            EXPECT_EQ(s.front(), static_cast<Word>(popped));
            s.pop();
            ++popped;
        }
        s.tick(now++);
    }
    EXPECT_GE(popped, 95) << "stream throughput below ~1/cycle";
}

TEST(Stream, BackpressureWhenNotDrained)
{
    ScalarStream s("t", 1, 2);
    Cycles now = 0;
    int accepted = 0;
    for (int c = 0; c < 10; ++c) {
        if (s.canPush()) {
            s.push(1);
            ++accepted;
        }
        s.tick(now++);
    }
    // latency(1) + capacity(2) elements fit; no more.
    EXPECT_EQ(accepted, 3);
}

TEST(Stream, TwoPhase_PushInvisibleSameCycle)
{
    ScalarStream s("t", 1, 4);
    s.push(5);
    EXPECT_FALSE(s.canPop()); // not before tick
}

TEST(Stream, TwoPhase_PopCountsBeforeCommit)
{
    ScalarStream s("t", 1, 4);
    Cycles now = 0;
    s.push(1);
    s.push(2);
    s.tick(now++);
    s.tick(now++);
    ASSERT_TRUE(s.canPop());
    s.pop();
    // The staged pop hides the first element immediately.
    ASSERT_TRUE(s.canPop());
    EXPECT_EQ(s.front(), 2u);
}

TEST(Stream, PreloadTokensAvailableImmediately)
{
    ControlStream s("credits", 1, 8);
    s.preload(Token{});
    s.preload(Token{});
    EXPECT_TRUE(s.canPop());
    EXPECT_EQ(s.available(), 2u);
    s.pop();
    s.pop();
    EXPECT_FALSE(s.canPop());
}

TEST(Stream, QuiescentTracksContents)
{
    VectorStream s("v", 2, 4);
    EXPECT_TRUE(s.quiescent());
    s.push(Vec::broadcast(1, 16));
    EXPECT_FALSE(s.quiescent());
    Cycles now = 0;
    for (int i = 0; i < 4; ++i)
        s.tick(now++);
    EXPECT_FALSE(s.quiescent()); // still queued at receiver
    s.pop();
    s.tick(now++);
    EXPECT_TRUE(s.quiescent());
}

TEST(Stream, VectorPayloadIntact)
{
    VectorStream s("v", 1, 2);
    Vec v;
    for (uint32_t l = 0; l < 16; ++l) {
        v.lane[l] = l * l;
        v.setValid(l);
    }
    v.clearValid(7);
    s.push(v);
    Cycles now = 0;
    s.tick(now++);
    ASSERT_TRUE(s.canPop());
    const Vec &got = s.front();
    EXPECT_EQ(got.mask, v.mask);
    for (uint32_t l = 0; l < 16; ++l)
        EXPECT_EQ(got.lane[l], l * l);
}

/** Property sweep: total delivered never exceeds pushed; order kept. */
class StreamParams
    : public ::testing::TestWithParam<std::pair<uint32_t, uint32_t>>
{
};

TEST_P(StreamParams, FifoOrderPreserved)
{
    auto [latency, capacity] = GetParam();
    ScalarStream s("p", latency, capacity);
    Cycles now = 0;
    Word next_push = 0, next_pop = 0;
    for (int c = 0; c < 300; ++c) {
        if ((c % 3) != 0 && s.canPush())
            s.push(next_push++);
        if ((c % 2) == 0 && s.canPop()) {
            EXPECT_EQ(s.front(), next_pop);
            s.pop();
            ++next_pop;
        }
        s.tick(now++);
    }
    EXPECT_LE(next_pop, next_push);
    EXPECT_GT(next_pop, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    LatencyCapacity, StreamParams,
    ::testing::Values(std::make_pair(1u, 1u), std::make_pair(1u, 16u),
                      std::make_pair(4u, 2u), std::make_pair(8u, 8u),
                      std::make_pair(16u, 1u)));

namespace
{

/**
 * Reference model: the three-queue stream that the single ring
 * replaced. Staged pushes, in-flight (arrival, value) pairs and the
 * receiver FIFO each live in their own deque, and commit() moves
 * elements between them.
 */
struct RefStream
{
    uint32_t latency;
    uint32_t capacity;
    std::deque<Word> staged;
    std::deque<std::pair<Cycles, Word>> inFlight;
    std::deque<Word> queue;
    uint32_t stagedPops = 0;
    StreamBase::Stats stats;

    bool
    canPush() const
    {
        return inFlight.size() + queue.size() + staged.size() <
               latency + capacity;
    }
    bool canPop() const { return queue.size() > stagedPops; }
    size_t available() const { return queue.size() - stagedPops; }
    Word front() const { return queue[stagedPops]; }
    bool quiescent() const
    {
        return inFlight.empty() && queue.empty() && staged.empty();
    }

    void
    push(Word v)
    {
        staged.push_back(v);
        ++stats.pushes;
    }

    void
    pop()
    {
        ++stagedPops;
        ++stats.pops;
    }

    CommitResult
    commit(Cycles now)
    {
        CommitResult res;
        res.drained = stagedPops > 0;
        for (; stagedPops > 0; --stagedPops)
            queue.pop_front();
        for (Word v : staged)
            inFlight.push_back({now + latency, v});
        staged.clear();
        while (!inFlight.empty() && inFlight.front().first <= now + 1 &&
               queue.size() < capacity) {
            stats.fullStallCycles += now + 1 - inFlight.front().first;
            queue.push_back(inFlight.front().second);
            inFlight.pop_front();
            res.delivered = true;
        }
        stats.peakOccupancy = std::max<uint64_t>(
            stats.peakOccupancy, inFlight.size() + queue.size());
        if (!inFlight.empty() && inFlight.front().first > now + 1)
            res.nextArrival = inFlight.front().first - 1;
        return res;
    }

    bool
    drop()
    {
        if (!queue.empty()) {
            queue.pop_front();
            return true;
        }
        if (!inFlight.empty()) {
            inFlight.pop_front();
            return true;
        }
        return false;
    }

    bool
    duplicate()
    {
        if (!queue.empty() && queue.size() < capacity) {
            queue.push_back(queue.front());
            return true;
        }
        if (!inFlight.empty()) {
            inFlight.push_back(inFlight.back());
            return true;
        }
        return false;
    }
};

void
expectSameView(const ScalarStream &s, const RefStream &ref,
               const std::string &where)
{
    ASSERT_EQ(s.canPush(), ref.canPush()) << where;
    ASSERT_EQ(s.canPop(), ref.canPop()) << where;
    ASSERT_EQ(s.available(), ref.available()) << where;
    ASSERT_EQ(s.quiescent(), ref.quiescent()) << where;
    if (ref.canPop()) {
        ASSERT_EQ(s.front(), ref.front()) << where;
    }
}

void
expectSameStats(const StreamBase::Stats &a, const StreamBase::Stats &b,
                const std::string &where)
{
    EXPECT_EQ(a.pushes, b.pushes) << where;
    EXPECT_EQ(a.pops, b.pops) << where;
    EXPECT_EQ(a.peakOccupancy, b.peakOccupancy) << where;
    EXPECT_EQ(a.fullStallCycles, b.fullStallCycles) << where;
}

/** Drive `s` and `ref` through a recorded step sequence. */
void
commitBoth(ScalarStream &s, RefStream &ref, Cycles now,
           const std::string &where)
{
    CommitResult a = s.commit(now);
    CommitResult b = ref.commit(now);
    EXPECT_EQ(a.delivered, b.delivered) << where;
    EXPECT_EQ(a.drained, b.drained) << where;
    EXPECT_EQ(a.nextArrival, b.nextArrival) << where;
    expectSameStats(s.stats(), ref.stats, where);
}

} // namespace

/** Seeded random differential against the three-queue model: latency
 *  1-8, capacity 1-4, credits preloaded up to twice the capacity,
 *  0-2 pushes and pops a cycle, idle gaps without a commit, and
 *  boundary faults. Every observable is compared every cycle. */
class StreamDifferential : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(StreamDifferential, MatchesThreeQueueModel)
{
    Rng rng(GetParam());
    const uint32_t latency = 1 + static_cast<uint32_t>(rng.nextBounded(8));
    const uint32_t capacity = 1 + static_cast<uint32_t>(rng.nextBounded(4));
    ScalarStream s("d", latency, capacity);
    RefStream ref{latency, capacity, {}, {}, {}, 0, {}};
    const uint32_t preload =
        static_cast<uint32_t>(rng.nextBounded(2 * capacity + 1));
    for (uint32_t i = 0; i < preload; ++i) {
        s.preload(1000 + i);
        ref.queue.push_back(1000 + i);
    }
    Word next = 0;
    for (Cycles now = 0; now < 2000; ++now) {
        const std::string where = "cycle " + std::to_string(now);
        expectSameView(s, ref, where);
        if (HasFatalFailure())
            return;
        // At a cycle boundary nothing is staged: faults land here.
        if (rng.nextBounded(50) == 0) {
            bool dup = rng.nextBounded(2) == 0;
            bool a = dup ? s.injectDuplicate() : s.injectDrop();
            bool b = dup ? ref.duplicate() : ref.drop();
            ASSERT_EQ(a, b) << where << (dup ? " duplicate" : " drop");
            expectSameView(s, ref, where + " after fault");
        }
        uint64_t pushes = rng.nextBounded(3);
        for (uint64_t i = 0; i < pushes && ref.canPush(); ++i) {
            s.push(next);
            ref.push(next);
            ++next;
        }
        uint64_t pops = rng.nextBounded(3);
        for (uint64_t i = 0; i < pops && ref.canPop(); ++i) {
            ASSERT_EQ(s.front(), ref.front()) << where;
            s.pop();
            ref.pop();
        }
        expectSameView(s, ref, where + " staged");
        if (HasFatalFailure())
            return;
        // Idle cycles may go uncommitted, as under the activity
        // scheduler; a late commit then books full-FIFO stall cycles.
        bool staged = pushes > 0 || pops > 0;
        if (staged || rng.nextBounded(4) != 0)
            commitBoth(s, ref, now, where);
    }
    EXPECT_GT(s.stats().pops, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamDifferential,
                         ::testing::Range<uint64_t>(1, 41));

/** Faults at the queue / in-flight boundary: a drop takes the queue
 *  head, or the oldest in-flight element once the queue is empty; a
 *  duplicate appends the queue head to a non-full queue, ahead of the
 *  elements still in flight, or else replays the newest in-flight
 *  element. */
TEST(Stream, FaultsAtTheQueueInFlightBoundary)
{
    ScalarStream s("f", /*latency=*/3, /*capacity=*/2);
    RefStream ref{3, 2, {}, {}, {}, 0, {}};
    Cycles now = 0;
    auto step = [&](std::initializer_list<Word> pushes) {
        for (Word v : pushes) {
            s.push(v);
            ref.push(v);
        }
        commitBoth(s, ref, now, "cycle " + std::to_string(now));
        ++now;
    };
    auto drain = [&]() {
        std::vector<Word> got;
        for (int c = 0; c < 20; ++c) {
            while (s.canPop()) {
                got.push_back(s.front());
                s.pop();
                ref.pop();
            }
            step({});
        }
        return got;
    };

    // Queue empty, two in flight: the drop takes the oldest.
    step({1});
    step({2});
    ASSERT_FALSE(s.canPop());
    EXPECT_TRUE(s.injectDrop());
    EXPECT_TRUE(ref.drop());
    EXPECT_EQ(drain(), (std::vector<Word>{2}));

    // One queued, one in flight: the duplicate of the queue head goes
    // in front of the in-flight element.
    step({3});
    step({4});
    step({});
    ASSERT_EQ(s.available(), 1u);
    EXPECT_TRUE(s.injectDuplicate());
    EXPECT_TRUE(ref.duplicate());
    EXPECT_EQ(s.available(), 2u);
    EXPECT_EQ(drain(), (std::vector<Word>{3, 3, 4}));

    // Queue full, one in flight: the duplicate replays the in-flight
    // element instead.
    step({5});
    step({6});
    step({7});
    step({});
    step({});
    ASSERT_EQ(s.available(), 2u);
    EXPECT_TRUE(s.injectDuplicate());
    EXPECT_TRUE(ref.duplicate());
    EXPECT_EQ(drain(), (std::vector<Word>{5, 6, 7, 7}));

    // Queue non-empty and in flight non-empty: the drop takes the
    // queue head, never the in-flight element.
    step({8});
    step({9});
    step({});
    ASSERT_EQ(s.available(), 1u);
    EXPECT_TRUE(s.injectDrop());
    EXPECT_TRUE(ref.drop());
    EXPECT_EQ(drain(), (std::vector<Word>{9}));

    EXPECT_FALSE(s.injectDrop());
    EXPECT_FALSE(s.injectDuplicate());
    expectSameStats(s.stats(), ref.stats, "end");
}

/** The checkpoint tape keeps the three-queue layout: the in-flight
 *  count, (arrival, value) pairs, the queue count, values, then the
 *  stats. A restored stream resumes identically. */
TEST(Stream, CheckpointTapeKeepsTheThreeQueueLayout)
{
    ScalarStream s("c", /*latency=*/4, /*capacity=*/2);
    RefStream ref{4, 2, {}, {}, {}, 0, {}};
    Cycles now = 0;
    // Run long enough for the ring's cursors to wrap several times.
    for (Word v = 1; v <= 40; ++v) {
        if (ref.canPop() && v % 3 == 0) {
            s.pop();
            ref.pop();
        }
        if (ref.canPush()) {
            s.push(v * 10);
            ref.push(v * 10);
        }
        commitBoth(s, ref, now++, "fill");
    }
    ASSERT_FALSE(ref.queue.empty());
    ASSERT_FALSE(ref.inFlight.empty());
    StateWriter w;
    s.serializeState(w);
    StateWriter old;
    io(old, ref.inFlight);
    io(old, ref.queue);
    io(old, ref.stats);
    EXPECT_EQ(w.tape(), old.tape());
    EXPECT_EQ(w.tape()[0], ref.inFlight.size());

    ScalarStream r("c", 4, 2);
    StateReader rd(w.tape());
    r.serializeState(rd);
    EXPECT_TRUE(rd.exhausted());
    for (int c = 0; c < 12; ++c) {
        ASSERT_EQ(r.canPop(), s.canPop()) << c;
        ASSERT_EQ(r.canPush(), s.canPush()) << c;
        if (s.canPop()) {
            EXPECT_EQ(r.front(), s.front()) << c;
            s.pop();
            r.pop();
        }
        CommitResult a = s.commit(now);
        CommitResult b = r.commit(now);
        EXPECT_EQ(a.nextArrival, b.nextArrival) << c;
        EXPECT_EQ(a.delivered, b.delivered) << c;
        ++now;
    }
    EXPECT_EQ(r.stats().pops, s.stats().pops);
    EXPECT_EQ(r.stats().fullStallCycles, s.stats().fullStallCycles);
    EXPECT_TRUE(r.quiescent());
}
