/** @file Activity-driven scheduler: bit-exact cycle parity against the
 *  dense-tick baseline on every benchmark, traffic-counter parity,
 *  fast-forward behavior, and exact deadlock detection (empty active
 *  set) on a stalled credit loop. */

#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "sim/fabric.hpp"

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
