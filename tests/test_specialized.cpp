/** @file Specialized datapath engine (sim/execplan.hpp): bit-exact
 *  parity against the interpreter on every benchmark — completion
 *  cycle, argOut streams, DRAM images and architectural counters —
 *  plus plan-construction invariants (dead-port elision, kernel
 *  coverage, PMU address lowering) and the interaction with the dense
 *  scheduler. */

#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "sim/execplan.hpp"
#include "sim/fabric.hpp"
#include "sim/unitcommon.hpp"

using namespace plast;

namespace
{

SimOptions
withEngine(SimMode simMode,
           SimOptions::Mode mode = SimOptions::Mode::kActivity)
{
    SimOptions o;
    o.mode = mode;
    o.simMode = simMode;
    return o;
}

struct ModeResult
{
    Cycles cycles = 0;
    std::vector<std::deque<Word>> argOuts;
    std::vector<std::vector<Word>> dramBufs;
    StatSet stats;
    uint64_t laneOps = 0;
};

ModeResult
runApp(const apps::AppSpec &spec, SimOptions opts,
       apps::Scale scale = apps::Scale::kTiny)
{
    setVerbose(false);
    apps::AppInstance app = spec.make(scale);
    Runner r(std::move(app.prog), ArchParams::plasticineFinal(), opts);
    app.load(r);
    Runner::Result res = r.run();

    ModeResult out;
    out.cycles = res.cycles;
    out.argOuts = res.argOuts;
    out.stats = res.stats;
    out.laneOps = r.fabric()->totalLaneOps();
    for (size_t m = 0; m < r.program().mems.size(); ++m) {
        if (r.program().mems[m].kind == pir::MemKind::kDram)
            out.dramBufs.push_back(
                r.readDram(static_cast<pir::MemId>(m)));
    }
    return out;
}

void
expectBitExact(const ModeResult &interp, const ModeResult &spec)
{
    EXPECT_EQ(interp.cycles, spec.cycles) << "completion cycle";
    EXPECT_EQ(interp.stats.get("cycles"), spec.stats.get("cycles"))
        << "post-drain cycle count";
    EXPECT_EQ(interp.laneOps, spec.laneOps) << "FU lane-op count";

    ASSERT_EQ(interp.argOuts.size(), spec.argOuts.size());
    for (size_t s = 0; s < interp.argOuts.size(); ++s)
        EXPECT_EQ(interp.argOuts[s], spec.argOuts[s])
            << "argOut slot " << s;

    ASSERT_EQ(interp.dramBufs.size(), spec.dramBufs.size());
    for (size_t m = 0; m < interp.dramBufs.size(); ++m)
        EXPECT_EQ(interp.dramBufs[m], spec.dramBufs[m])
            << "DRAM buffer " << m;

    // Every architectural activity counter must agree: specialization
    // may only change host wall-clock, never the simulated machine.
    // Per-unit host accounting (".cycles." stepped/asleep split) is
    // excluded: it is scheduler-dependent, not engine-dependent, and
    // this helper also serves the cross-scheduler combination.
    for (const auto &[name, value] : interp.stats.all()) {
        bool unitWork = (name.rfind("pcu", 0) == 0 ||
                         name.rfind("pmu", 0) == 0 ||
                         name.rfind("ag", 0) == 0 ||
                         name.rfind("box", 0) == 0) &&
                        name.find(".cycles.") == std::string::npos;
        if (name.rfind("stream.", 0) == 0 || name.rfind("net.", 0) == 0 ||
            name.rfind("mem.", 0) == 0 || name.rfind("dram", 0) == 0 ||
            unitWork) {
            EXPECT_EQ(value, spec.stats.get(name)) << name;
        }
    }
}

/** gtest-safe test-name suffix for a benchmark-name parameter. */
std::string
appParamName(const ::testing::TestParamInfo<std::string> &info)
{
    std::string n = info.param;
    for (char &c : n) {
        if (!isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return n;
}

} // namespace

/** Interp and specialized engines must be indistinguishable at the
 *  architectural level on every benchmark. */
class SpecializedParity : public ::testing::TestWithParam<std::string>
{
  protected:
    const apps::AppSpec &
    spec() const
    {
        for (const auto &s : apps::allApps()) {
            if (s.name == GetParam())
                return s;
        }
        ADD_FAILURE() << "unknown benchmark";
        return apps::allApps().front();
    }
};

TEST_P(SpecializedParity, MatchesInterpBitExactly)
{
    ModeResult interp = runApp(spec(), withEngine(SimMode::kInterp));
    ModeResult specd = runApp(spec(), withEngine(SimMode::kSpecialized));
    expectBitExact(interp, specd);
}

/** The engine axis is orthogonal to the scheduler axis: specialized
 *  under the dense scheduler matches interp under activity. */
TEST_P(SpecializedParity, DenseSpecializedMatchesActivityInterp)
{
    ModeResult interp = runApp(spec(), withEngine(SimMode::kInterp));
    ModeResult specd = runApp(
        spec(),
        withEngine(SimMode::kSpecialized, SimOptions::Mode::kDense));
    expectBitExact(interp, specd);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, SpecializedParity,
    ::testing::Values("InnerProduct", "OuterProduct", "Black-Scholes",
                      "TPC-H Query 6", "GEMM", "GDA", "LogReg", "SGD",
                      "Kmeans", "CNN", "SMDV", "PageRank", "BFS"),
    appParamName);

/** The tiled apps' PMU addresses are `ima` chains, which only the
 *  default-scale sizes drive through many runs and large counters.
 *  Under one scheduler the two engines must agree on every counter,
 *  host-side ledgers included. */
class SpecializedParityDefaultScale : public SpecializedParity
{
};

TEST_P(SpecializedParityDefaultScale, MatchesInterpBitExactly)
{
    ModeResult interp = runApp(spec(), withEngine(SimMode::kInterp),
                               apps::Scale::kDefault);
    ModeResult specd = runApp(spec(), withEngine(SimMode::kSpecialized),
                              apps::Scale::kDefault);
    expectBitExact(interp, specd);
    EXPECT_EQ(interp.stats.all(), specd.stats.all()) << "full StatSet";
}

INSTANTIATE_TEST_SUITE_P(TiledApps, SpecializedParityDefaultScale,
                         ::testing::Values("GEMM", "GDA", "CNN"),
                         appParamName);

/** The specialized fabric still validates bit-exactly against the
 *  golden reference evaluator end to end. */
TEST(Specialized, ValidatedAgainstReference)
{
    setVerbose(false);
    apps::AppInstance app = apps::makeInnerProduct(apps::Scale::kTiny);
    Runner r(std::move(app.prog), ArchParams::plasticineFinal(),
             withEngine(SimMode::kSpecialized));
    app.load(r);
    Runner::Result res = r.runValidated();
    EXPECT_GT(res.cycles, 0u);
}

/** The specialized engine is the default; Runner::setSimMode selects
 *  the reference interpreter before the fabric exists. */
TEST(Specialized, RunnerSetSimMode)
{
    setVerbose(false);
    apps::AppInstance app = apps::makeInnerProduct(apps::Scale::kTiny);
    Runner r(std::move(app.prog));
    app.load(r);
    Runner::Result res = r.run();
    EXPECT_EQ(r.buildManifest(res).simMode, "specialized");

    apps::AppInstance ref = apps::makeInnerProduct(apps::Scale::kTiny);
    Runner rref(std::move(ref.prog));
    rref.setSimMode(SimMode::kInterp);
    ref.load(rref);
    Runner::Result want = rref.run();
    EXPECT_EQ(rref.buildManifest(want).simMode, "interp");
    EXPECT_EQ(res.cycles, want.cycles);
}

// --------------------------------------------------------------------
// Plan-construction invariants
// --------------------------------------------------------------------

namespace
{

PcuCfg
twoStageCfg()
{
    const ArchParams params = ArchParams::plasticineFinal();
    PcuCfg cfg;
    cfg.used = true;
    cfg.name = "planned";
    StageCfg mul;
    mul.kind = StageKind::kMap;
    mul.op = FuOp::kFMul;
    mul.a = Operand::vectorIn(0);
    mul.b = Operand::vectorIn(1);
    mul.dstReg = 2;
    StageCfg red;
    red.kind = StageKind::kReduceStep;
    red.op = FuOp::kFAdd;
    red.a = Operand::reg(2);
    red.dstReg = 2;
    red.reduceDist = 1;
    cfg.stages = {mul, red};
    cfg.vecOuts.resize(params.pcu.vectorOuts);
    cfg.scalOuts.resize(params.pcu.scalarOuts);
    cfg.scalOuts[0].enabled = true;
    cfg.scalOuts[0].srcReg = 2;
    return cfg;
}

} // namespace

TEST(ExecPlan, ResolvesStagesAndElidesDeadPorts)
{
    PcuExecPlan plan = buildPcuPlan(twoStageCfg());

    ASSERT_EQ(plan.stages.size(), 2u);
    EXPECT_EQ(plan.stages[0].kind, StageKind::kMap);
    EXPECT_NE(plan.stages[0].kernel, nullptr)
        << "kFMul gets a monomorphic kernel";
    EXPECT_EQ(plan.stages[0].arity, 2u);
    EXPECT_EQ(plan.stages[1].kind, StageKind::kReduceStep);
    EXPECT_EQ(plan.stages[1].identity, floatToWord(0.0f))
        << "kFAdd reduction identity";

    // Only reg 2 is ever touched -> pool recycling zeroes one register.
    EXPECT_EQ(plan.touchedRegs, 1u << 2);

    // One live scalar out, zero live vector outs, no coalescing: the
    // retire loops skip every disabled port without testing it.
    EXPECT_TRUE(plan.liveVecOuts.empty());
    ASSERT_EQ(plan.liveScalOuts.size(), 1u);
    EXPECT_EQ(plan.liveScalOuts[0], 0u);
    EXPECT_TRUE(plan.countScalOuts.empty());
    EXPECT_FALSE(plan.anyCoalesce);
}

TEST(ExecPlan, TranscendentalsFallBackToGenericExec)
{
    // Plans never inline libm-backed ops; those stages run through the
    // dynamic dispatcher so every engine shares one libm call site.
    EXPECT_EQ(mapKernelFor(FuOp::kFExp), nullptr);
    EXPECT_EQ(mapKernelFor(FuOp::kFLog), nullptr);
    EXPECT_EQ(mapKernelFor(FuOp::kFSqrt), nullptr);
    EXPECT_EQ(mapKernelFor(FuOp::kFRecip), nullptr);
    // Everything else is monomorphic.
    EXPECT_NE(mapKernelFor(FuOp::kIAdd), nullptr);
    EXPECT_NE(mapKernelFor(FuOp::kFMA), nullptr);
    EXPECT_NE(mapKernelFor(FuOp::kMux), nullptr);
}

// --------------------------------------------------------------------
// PMU address lowering
// --------------------------------------------------------------------

namespace
{

StageCfg
mapStage(FuOp op, Operand a, Operand b, Operand c, uint8_t dst)
{
    StageCfg st;
    st.kind = StageKind::kMap;
    st.op = op;
    st.a = a;
    st.b = b;
    st.c = c;
    st.dstReg = dst;
    return st;
}

/** A plain banked read port whose address is `stages`' result reg. */
PmuPortCfg
readPort(std::vector<StageCfg> stages, uint8_t addrReg)
{
    PmuPortCfg cfg;
    cfg.enabled = true;
    cfg.dataVecOut = 0;
    cfg.vecLinear = true;
    cfg.addrStages = std::move(stages);
    cfg.addrReg = addrReg;
    return cfg;
}

PmuPortPlan
planFor(const PmuPortCfg &cfg)
{
    const ArchParams params = ArchParams::plasticineFinal();
    ScratchCfg scratch;
    scratch.sizeWords = 1024;
    return buildPmuPortPlan(cfg, /*isWrite=*/false, scratch,
                            params.pmu.banks, params.pcu.lanes);
}

/**
 * The lowered address must equal the interpreter's evalScalarStages
 * for every counter snapshot of a sweep whose values straddle 2^32 in
 * both directions, so the mod-2^32 wrap of every product and sum is
 * exercised. Scalar inputs hold constants whose products also wrap.
 */
void
expectPlanMatchesInterp(const PmuPortCfg &cfg)
{
    PmuPortPlan plan = planFor(cfg);
    ASSERT_TRUE(plan.fastAccess);
    ASSERT_TRUE(plan.addr.affine);

    UnitPorts ports;
    ports.size(4, 0, 0, 0, 0, 0);
    const Word scal[] = {0xfffffff7u, 0x10001u, 3u, 0x80000000u};
    for (size_t i = 0; i < 4; ++i) {
        ports.scalIn[i].isConst = true;
        ports.scalIn[i].constVal = scal[i];
    }
    std::vector<Word> consts;
    plan.addr.evalSlots(consts,
                        [&](Word idx) { return ports.scalIn[idx].front(); });

    const int64_t sweep[] = {0,           1,           7,
                             0x7fffffff,  0x80000000,  0xfffffffe,
                             0xffffffff,  0x100000000, 0x100000005,
                             -1,          -3,          123456789012};
    uint64_t checked = 0;
    for (int64_t c0 : sweep) {
        for (int64_t c1 : sweep) {
            for (int64_t c2 : {int64_t{0}, int64_t{5}, int64_t{0xffffffff}}) {
                Wavefront wf;
                wf.ctr[0] = c0;
                wf.ctr[1] = c1;
                wf.ctr[2] = c2;
                ScalarRegs regs;
                Word want = evalScalarStages(cfg.addrStages, cfg.addrReg,
                                             wf, ports, regs);
                ASSERT_EQ(plan.addr.address(consts, wf.ctr), want)
                    << "ctr = (" << c0 << ", " << c1 << ", " << c2 << ")";
                ++checked;
            }
        }
    }
    EXPECT_EQ(checked, 12u * 12u * 3u);
}

} // namespace

/** `ctr * imm + ctr`: the row-major tile address of a 2-D loop. */
TEST(SpecializedPlan, ImaCounterTimesImmPlusCounterLowers)
{
    expectPlanMatchesInterp(readPort(
        {mapStage(FuOp::kIMA, Operand::ctr(0), Operand::immWord(48),
                  Operand::ctr(1), 0)},
        0));
}

/** `imm * ctr + scalarIn`: the multiplier may sit on either side, and
 *  the addend may be a run-constant tile base. */
TEST(SpecializedPlan, ImaImmTimesCounterPlusScalarInLowers)
{
    expectPlanMatchesInterp(readPort(
        {mapStage(FuOp::kIMA, Operand::immWord(0x40000001u),
                  Operand::ctr(1), Operand::scalarIn(0), 2)},
        2));
}

/** Nested `ima`: an affine product feeds another `ima` whose multiplier
 *  is a scalar input and whose addend is a third counter; a final
 *  `ima` of two run-constants scales nothing but still folds in. */
TEST(SpecializedPlan, NestedImaLowers)
{
    expectPlanMatchesInterp(readPort(
        {mapStage(FuOp::kIMA, Operand::ctr(0), Operand::immWord(7),
                  Operand::ctr(1), 0),
         mapStage(FuOp::kIMA, Operand::reg(0), Operand::scalarIn(1),
                  Operand::ctr(2), 1),
         mapStage(FuOp::kIMA, Operand::scalarIn(3), Operand::scalarIn(2),
                  Operand::reg(1), 2),
         mapStage(FuOp::kIMA, Operand::reg(2), Operand::immWord(3),
                  Operand::reg(0), 3)},
        3));
}

/** A product of two counters is not affine: the port keeps the
 *  interpreted evalScalarStages path, directly or through a register. */
TEST(SpecializedPlan, CounterTimesCounterStaysInterpreted)
{
    PmuPortPlan direct = planFor(readPort(
        {mapStage(FuOp::kIMA, Operand::ctr(0), Operand::ctr(1),
                  Operand::immWord(5), 0)},
        0));
    EXPECT_FALSE(direct.fastAccess);
    EXPECT_FALSE(direct.addr.affine);

    PmuPortPlan viaReg = planFor(readPort(
        {mapStage(FuOp::kIAdd, Operand::ctr(0), Operand::immWord(1),
                  Operand::none(), 0),
         mapStage(FuOp::kIMA, Operand::reg(0), Operand::ctr(1),
                  Operand::scalarIn(0), 1)},
        1));
    EXPECT_FALSE(viaReg.fastAccess);
}

/** On the compiler's own output, the only ports left on the
 *  interpreted access path are the shapes the plan never covers:
 *  gather/scatter, FIFO banking, FlatMap append and broadcast writes.
 *  Every address program the compiler emits is affine. */
TEST(SpecializedPlan, EveryDenseAppPortTakesFastPath)
{
    setVerbose(false);
    const ArchParams params = ArchParams::plasticineFinal();
    uint32_t imaPorts = 0;
    for (const auto &spec : apps::allApps()) {
        apps::AppInstance app = spec.make(apps::Scale::kDefault);
        Runner r(app.prog, params);
        ASSERT_TRUE(r.tryCompile().ok()) << spec.name;
        const FabricConfig &fab = r.mapResult().fabric;
        for (size_t u = 0; u < fab.pmus.size(); ++u) {
            const PmuCfg &pmu = fab.pmus[u];
            if (!pmu.used)
                continue;
            auto check = [&](const PmuPortCfg &port, bool isWrite,
                             const char *which) {
                if (!port.enabled)
                    return;
                const bool uncovered =
                    port.addrVecIn >= 0 ||
                    pmu.scratch.mode == BankingMode::kFifo ||
                    port.appendMode || (isWrite && port.broadcast);
                PmuPortPlan plan =
                    buildPmuPortPlan(port, isWrite, pmu.scratch,
                                     params.pmu.banks, params.pcu.lanes);
                EXPECT_EQ(plan.fastAccess, !uncovered)
                    << spec.name << " pmu " << u << " " << which;
                for (const StageCfg &st : port.addrStages) {
                    if (plan.fastAccess && st.op == FuOp::kIMA) {
                        ++imaPorts;
                        break;
                    }
                }
            };
            check(pmu.write, true, "write");
            check(pmu.write2, true, "write2");
            check(pmu.read, false, "read");
        }
    }
    EXPECT_GT(imaPorts, 0u) << "no app exercises the ima lowering";
}
