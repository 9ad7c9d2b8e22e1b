/** @file Activity-driven scheduler: bit-exact cycle parity against the
 *  dense-tick baseline on every benchmark, traffic-counter parity,
 *  fast-forward behavior, exact deadlock detection (empty active set)
 *  on a stalled credit loop, and the timing wheel and wake ordering on
 *  hand-wired units. */

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "apps/apps.hpp"
#include "sim/fabric.hpp"
#include "sim/scheduler.hpp"
#include "sim/stream.hpp"

using namespace plast;

namespace
{

/** Both parity legs pin the reference interpreter, so the comparison
 *  isolates the scheduler axis (the engine axis has its own parity in
 *  test_specialized.cpp). */
SimOptions
interpOpts(SimOptions::Mode mode)
{
    SimOptions o;
    o.mode = mode;
    o.simMode = SimMode::kInterp;
    return o;
}

SimOptions
denseOpts()
{
    return interpOpts(SimOptions::Mode::kDense);
}

struct ModeResult
{
    Cycles cycles = 0;
    std::vector<std::deque<Word>> argOuts;
    std::vector<std::vector<Word>> dramBufs;
    StatSet stats;
};

ModeResult
runApp(const apps::AppSpec &spec, SimOptions opts)
{
    setVerbose(false);
    apps::AppInstance app = spec.make(apps::Scale::kTiny);
    Runner r(std::move(app.prog), ArchParams::plasticineFinal(), opts);
    app.load(r);
    Runner::Result res = r.run();

    ModeResult out;
    out.cycles = res.cycles;
    out.argOuts = res.argOuts;
    out.stats = res.stats;
    for (size_t m = 0; m < r.program().mems.size(); ++m) {
        if (r.program().mems[m].kind == pir::MemKind::kDram)
            out.dramBufs.push_back(
                r.readDram(static_cast<pir::MemId>(m)));
    }
    return out;
}

} // namespace

/** Both modes must agree on the completion cycle, every argOut stream,
 *  every DRAM buffer, and the traffic counters (stream pushes/pops,
 *  memory bursts, DRAM timing) — i.e. activity scheduling changes only
 *  the host's work per simulated cycle, never the simulated machine. */
class CycleParity : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CycleParity, ActivityModeMatchesDenseBitExactly)
{
    for (const auto &spec : apps::allApps()) {
        if (spec.name != GetParam())
            continue;

        ModeResult dense = runApp(spec, denseOpts());
        ModeResult activity =
            runApp(spec, interpOpts(SimOptions::Mode::kActivity));

        EXPECT_EQ(dense.cycles, activity.cycles) << "completion cycle";
        EXPECT_EQ(dense.stats.get("cycles"), activity.stats.get("cycles"))
            << "post-drain cycle count";

        ASSERT_EQ(dense.argOuts.size(), activity.argOuts.size());
        for (size_t s = 0; s < dense.argOuts.size(); ++s)
            EXPECT_EQ(dense.argOuts[s], activity.argOuts[s])
                << "argOut slot " << s;

        ASSERT_EQ(dense.dramBufs.size(), activity.dramBufs.size());
        for (size_t m = 0; m < dense.dramBufs.size(); ++m)
            EXPECT_EQ(dense.dramBufs[m], activity.dramBufs[m])
                << "DRAM buffer " << m;

        // Architectural activity counters agree; only host-side idle
        // accounting (starve/idle cycles of sleeping units) may differ.
        for (const auto &[name, value] : dense.stats.all()) {
            if (name.rfind("stream.", 0) == 0 ||
                name.rfind("net.", 0) == 0 ||
                name.rfind("mem.", 0) == 0 ||
                name.rfind("dram", 0) == 0) {
                EXPECT_EQ(value, activity.stats.get(name)) << name;
            }
        }
        return;
    }
    FAIL() << "unknown benchmark";
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, CycleParity,
    ::testing::Values("InnerProduct", "OuterProduct", "Black-Scholes",
                      "TPC-H Query 6", "GEMM", "GDA", "LogReg", "SGD",
                      "Kmeans", "CNN", "SMDV", "PageRank", "BFS"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string n = info.param;
        for (char &c : n) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return n;
    });

namespace
{

/**
 * A stalled credit loop: two PCUs each gated on a token only the other
 * can produce, with zero initial tokens on both channels. The root box
 * starts pcu0 but pcu0 also needs a credit from pcu1, which in turn
 * waits on pcu0's done — a circular wait that can never resolve.
 */
FabricConfig
creditLoopDesign()
{
    FabricConfig fab;
    fab.params = ArchParams::plasticineFinal();
    fab.pcus.resize(fab.params.numPcus());
    fab.pmus.resize(fab.params.numPmus());
    fab.ags.resize(fab.params.numAgs);
    fab.boxes.resize(fab.params.switchCols() * fab.params.switchRows());

    StageCfg nop;
    nop.op = FuOp::kIAdd;
    nop.a = Operand::reg(0);
    nop.b = Operand::reg(0);
    nop.dstReg = 0;

    PcuCfg &pcu0 = fab.pcus[0];
    pcu0.used = true;
    pcu0.name = "stage_a";
    pcu0.stages = {nop};
    pcu0.scalOuts.resize(fab.params.pcu.scalarOuts);
    pcu0.vecOuts.resize(fab.params.pcu.vectorOuts);
    pcu0.ctrl.tokenIns = {0, 1}; // box start AND credit from pcu1
    pcu0.ctrl.doneOuts = {0, 1}; // to box, and start for pcu1

    PcuCfg &pcu1 = fab.pcus[1];
    pcu1.used = true;
    pcu1.name = "stage_b";
    pcu1.stages = {nop};
    pcu1.scalOuts.resize(fab.params.pcu.scalarOuts);
    pcu1.vecOuts.resize(fab.params.pcu.vectorOuts);
    pcu1.ctrl.tokenIns = {0}; // started by pcu0's done
    pcu1.ctrl.doneOuts = {0}; // credit back to pcu0

    ControlBoxCfg &box = fab.boxes[0];
    box.used = true;
    box.name = "root";
    box.scheme = CtrlScheme::kSequential;
    CounterCfg t;
    t.max = 2;
    box.chain.ctrs = {t};
    box.depth = 1;
    box.childStartOuts = {0};
    box.childDoneIns = {0};
    fab.rootBox = 0;
    fab.hostArgOuts = 0;

    UnitRef p0{UnitClass::kPcu, 0};
    UnitRef p1{UnitClass::kPcu, 1};
    UnitRef bx{UnitClass::kBox, 0};
    fab.channels.push_back(
        {NetKind::kControl, {bx, 0}, {p0, 0}, 3, 0, 16, 1});
    fab.channels.push_back( // credit channel: zero initial tokens
        {NetKind::kControl, {p1, 0}, {p0, 1}, 3, 0, 16, 1});
    fab.channels.push_back(
        {NetKind::kControl, {p0, 0}, {bx, 0}, 3, 0, 16, 1});
    fab.channels.push_back(
        {NetKind::kControl, {p0, 1}, {p1, 0}, 3, 0, 16, 1});
    return fab;
}

} // namespace

/** The empty active set diagnoses the circular wait exactly — and the
 *  diagnostic pinpoints the wait: the root box is mid-iteration and
 *  the start token sits undelivered in front of the gated PCU. */
TEST(SchedulerDeath, CreditLoopDeadlockIsDiagnosedExactly)
{
    EXPECT_EXIT(
        {
            Fabric f(creditLoopDesign());
            f.run(10'000'000);
        },
        ::testing::ExitedWithCode(1), "deadlock");
    EXPECT_EXIT(
        {
            Fabric f(creditLoopDesign());
            f.run(10'000'000);
        },
        ::testing::ExitedWithCode(1),
        "box0.0->pcu0.0 holds 1 poppable element");
}

/** Activity mode needs no no-progress window: the deadlock fires the
 *  cycle the active set empties, long before the dense window expires. */
TEST(SchedulerDeath, DeadlockFiresWithoutWaitingForWindow)
{
    EXPECT_EXIT(
        {
            Fabric f(creditLoopDesign());
            f.run(10'000'000);
            // unreachable: run() must have fataled by now
        },
        ::testing::ExitedWithCode(1), "empty active set at cycle [0-9]");
}

/** Dense mode keeps the windowed scan, now constructor-configurable. */
TEST(SchedulerDeath, DenseWindowIsConfigurable)
{
    EXPECT_EXIT(
        {
            SimOptions opts = denseOpts();
            opts.deadlockWindow = 200;
            Fabric f(creditLoopDesign(), opts);
            f.run(10'000'000);
        },
        ::testing::ExitedWithCode(1), "no progress for 200 cycles");
}

/** Stream statistics are live (not the dead counters they replace):
 *  a run must report pushes, pops and a nonzero peak occupancy on the
 *  control network that carried the start/done tokens. */
TEST(SchedulerStats, StreamCountersAreWired)
{
    setVerbose(false);
    apps::AppInstance app = apps::makeInnerProduct(apps::Scale::kTiny);
    Runner r(std::move(app.prog));
    app.load(r);
    Runner::Result res = r.run();
    EXPECT_GT(res.stats.get("net.control.pushes"), 0u);
    EXPECT_EQ(res.stats.get("net.control.pushes"),
              res.stats.get("net.control.pops"))
        << "all tokens consumed";
    EXPECT_GT(res.stats.get("net.vector.pushes"), 0u);
    EXPECT_GT(res.stats.sumPrefix("stream."), 0u);
}

// ---------------------------------------------------------------------
// Scheduler mechanics on hand-wired units and streams
// ---------------------------------------------------------------------

namespace
{

/** A unit whose evaluate() is a test-supplied function. */
class ProbeUnit : public SimObject
{
  public:
    explicit ProbeUnit(std::function<Activity(Cycles)> fn)
        : fn_(std::move(fn))
    {
    }
    Activity evaluate(Cycles now) override { return fn_(now); }

  private:
    std::function<Activity(Cycles)> fn_;
};

/**
 * A relay of three hops on the wheel's largest latency: a source
 * pushes at cycle 0, two relays each pop and forward, and a sink pops.
 * A short stream registered alongside keeps the wheel honest about
 * sizing by the largest latency. Returns the cycle of every pop.
 * With `fastForward`, the caller skips idle gaps the way the fabric's
 * activity loop does; `nextEvents` records each jump target.
 */
std::vector<Cycles>
runRelay(bool fastForward, std::vector<Cycles> *nextEvents)
{
    const uint32_t kLong = 13;
    Scheduler sched;
    ScalarStream shortHop("short", 2, 2);
    ScalarStream a("a", kLong, 2), b("b", kLong, 2), c("c", kLong, 2);
    std::vector<Cycles> pops;
    auto relay = [&](ScalarStream *in, ScalarStream *out) {
        return [&pops, in, out](Cycles now) {
            if (!in->canPop())
                return Activity::kBlocked;
            Word v = in->front();
            in->pop();
            pops.push_back(now);
            if (out)
                out->push(v + 1);
            return Activity::kBlocked;
        };
    };
    bool sent = false;
    ProbeUnit src([&](Cycles) {
        if (!sent) {
            a.push(7);
            sent = true;
        }
        return Activity::kBlocked;
    });
    ProbeUnit r1(relay(&a, &b)), r2(relay(&b, &c));
    ProbeUnit sink(relay(&c, nullptr));
    for (ProbeUnit *u : {&src, &r1, &r2, &sink})
        sched.addUnit(u);
    for (ScalarStream *s : {&shortHop, &a, &b, &c})
        sched.addStream(s);
    a.bindProducer(&src);
    a.bindConsumer(&r1);
    b.bindProducer(&r1);
    b.bindConsumer(&r2);
    c.bindProducer(&r2);
    c.bindConsumer(&sink);

    Cycles now = 0;
    while (!sched.idle() && now < 1000) {
        if (fastForward && sched.canFastForward()) {
            Cycles next = sched.nextEventCycle();
            nextEvents->push_back(next);
            now = next;
        }
        sched.runCycle(now);
        ++now;
    }
    EXPECT_TRUE(sched.idle());
    EXPECT_EQ(c.stats().pops, 1u);
    return pops;
}

} // namespace

/** An arrival on the longest-latency stream fires on its exact cycle,
 *  whether the clock steps through the idle gap or fast-forwards over
 *  it, and across wheel wrap-around (timers at 12, 25 and 38 on a
 *  16-bucket wheel). */
TEST(SchedulerWheel, LongestLatencyArrivalFiresOnItsExactCycle)
{
    std::vector<Cycles> ignored, jumps;
    std::vector<Cycles> stepped = runRelay(false, &ignored);
    std::vector<Cycles> skipped = runRelay(true, &jumps);
    EXPECT_EQ(stepped, (std::vector<Cycles>{13, 26, 39}));
    EXPECT_EQ(skipped, stepped);
    EXPECT_EQ(jumps, (std::vector<Cycles>{12, 25, 38}));
}

/** A stream re-armed to a later cycle (a fault drops the in-flight
 *  element its timer was for) leaves its old wheel entry behind. That
 *  stale entry fires as a no-op commit: the surviving element arrives
 *  on its own cycle, and the dropped one never shows. */
TEST(SchedulerWheel, StaleReArmedEntryIsHarmless)
{
    for (bool fastForward : {false, true}) {
        Scheduler sched;
        ScalarStream s("s", /*latency=*/8, /*capacity=*/2);
        std::vector<std::pair<Cycles, Word>> seen;
        ProbeUnit src([&](Cycles now) {
            if (now == 0)
                s.push(1);
            if (now == 2)
                s.push(2);
            return now < 2 ? Activity::kActive : Activity::kBlocked;
        });
        ProbeUnit dst([&](Cycles now) {
            while (s.canPop()) {
                seen.push_back({now, s.front()});
                s.pop();
            }
            return Activity::kBlocked;
        });
        sched.addUnit(&src);
        sched.addUnit(&dst);
        sched.addStream(&s);
        s.bindProducer(&src);
        s.bindConsumer(&dst);

        std::vector<Cycles> jumps;
        Cycles now = 0;
        for (; now < 4; ++now)
            sched.runCycle(now);
        // Timer armed for cycle 7 (element 1 arrives at 8). Drop it the
        // way the fabric's fault injector does, between cycles.
        ASSERT_TRUE(s.injectDrop());
        sched.streamDirty(&s);
        while (!sched.idle() && now < 100) {
            if (fastForward && sched.canFastForward()) {
                jumps.push_back(sched.nextEventCycle());
                now = jumps.back();
            }
            sched.runCycle(now);
            ++now;
        }
        EXPECT_EQ(seen, (std::vector<std::pair<Cycles, Word>>{{10, 2}}))
            << "fastForward " << fastForward;
        if (fastForward) {
            // The stale entry at 7 is visited, then the live one at 9.
            EXPECT_EQ(jumps, (std::vector<Cycles>{7, 9}));
        }
        EXPECT_TRUE(sched.idle());
    }
}

/** Units woken in reverse registration order, from inside a cycle and
 *  interleaved with units that stay awake, evaluate in registration
 *  order on the next cycle. */
TEST(SchedulerWheel, WokenUnitsEvaluateInRegistrationOrder)
{
    Scheduler sched;
    std::vector<std::pair<Cycles, int>> log;
    std::vector<std::unique_ptr<ProbeUnit>> units;
    for (int i = 0; i < 6; ++i) {
        units.push_back(
            std::make_unique<ProbeUnit>([&log, i](Cycles now) {
                log.push_back({now, i});
                // Units 1 and 3 stay awake through cycle 2.
                bool stay = (i == 1 || i == 3) && now < 2;
                return stay ? Activity::kActive : Activity::kBlocked;
            }));
    }
    // The waker, registered last, wakes 4, 2, 0 and 5 on cycle 1.
    ProbeUnit waker([&](Cycles now) {
        if (now == 1) {
            for (int i : {5, 4, 2, 0})
                units[static_cast<size_t>(i)]->requestWake();
        }
        return now < 1 ? Activity::kActive : Activity::kBlocked;
    });
    for (auto &u : units)
        sched.addUnit(u.get());
    sched.addUnit(&waker);
    for (Cycles now = 0; now < 4; ++now)
        sched.runCycle(now);

    std::vector<int> cycle2;
    for (auto [c, i] : log) {
        if (c == 2)
            cycle2.push_back(i);
    }
    EXPECT_EQ(cycle2, (std::vector<int>{0, 1, 2, 3, 4, 5}));
    EXPECT_TRUE(sched.idle());
}
