/** @file Reference evaluator: parallel-pattern semantics (Map, Fold,
 *  FlatMap, HashReduce), wavefront-faithful float reductions, dynamic
 *  bounds, and accumulator generations. */

#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "pir/builder.hpp"
#include "pir/eval.hpp"
#include "runtime/runner.hpp"

using namespace plast;
using namespace plast::pir;

TEST(Eval, MapOverStream)
{
    Builder b("map");
    MemId in = b.dram("in", 64), out = b.dram("out", 64);
    NodeId root = b.outer("root", CtrlScheme::kSequential, {}, kNone);
    CtrId i = b.ctr("i", 0, 64, 1, true);
    ExprId v = b.fmul(b.streamRef(0), b.immF(2.0f));
    b.compute("x2", root, {i}, {StreamIn{in, b.ctrE(i)}}, {},
              {Builder::streamOut(out, b.ctrE(i), v)});
    Program p = b.finish(root);

    Evaluator ev(p);
    for (int k = 0; k < 64; ++k)
        ev.dramBuf(in)[k] = floatToWord(static_cast<float>(k));
    ev.run();
    for (int k = 0; k < 64; ++k)
        EXPECT_FLOAT_EQ(wordToFloat(ev.dramBuf(out)[k]), 2.0f * k);
}

TEST(Eval, FoldMatchesTreeReductionOrder)
{
    // Sum of floats whose naive left-to-right order differs from the
    // pairwise tree: the evaluator must use the hardware tree order.
    Builder b("fold");
    MemId in = b.dram("in", 32);
    int32_t out = b.argOut();
    NodeId root = b.outer("root", CtrlScheme::kSequential, {}, kNone);
    CtrId i = b.ctr("i", 0, 32, 1, true);
    b.compute("sum", root, {i}, {StreamIn{in, b.ctrE(i)}}, {},
              {Builder::fold(FuOp::kFAdd, b.streamRef(0), i, out)});
    Program p = b.finish(root);

    Evaluator ev(p);
    std::vector<float> vals(32);
    for (int k = 0; k < 32; ++k) {
        vals[k] = (k % 2) ? 1e-7f : 1e7f;
        ev.dramBuf(in)[k] = floatToWord(vals[k]);
    }
    ev.run();

    // Emulate the documented order: per 16-lane block, pairwise tree;
    // accumulate across blocks.
    float acc = 0.0f;
    for (int blk = 0; blk < 2; ++blk) {
        float lane[16];
        for (int l = 0; l < 16; ++l)
            lane[l] = vals[blk * 16 + l];
        for (int d = 1; d < 16; d *= 2) {
            for (int i2 = 0; i2 + d < 16; i2 += 2 * d)
                lane[i2] = lane[i2] + lane[i2 + d];
        }
        acc += lane[0];
    }
    EXPECT_EQ(ev.argOuts(out).size(), 1u);
    EXPECT_EQ(ev.argOuts(out)[0], floatToWord(acc))
        << "evaluator must be bit-faithful to the reduction tree";
}

TEST(Eval, FoldLevelsEmitPerOuterIteration)
{
    // fold over j for each i: 4 results.
    Builder b("folds");
    MemId out = b.sram("res", 16);
    NodeId root = b.outer("root", CtrlScheme::kSequential, {}, kNone);
    CtrId i = b.ctr("i", 0, 4);
    CtrId j = b.ctr("j", 0, 8, 1, true);
    ExprId v = b.iadd(b.imul(b.ctrE(i), b.immI(10)), b.ctrE(j));
    b.compute("f", root, {i, j}, {}, {},
              {Builder::foldToSram(FuOp::kIMax, v, j, out, b.ctrE(i))});
    Program p = b.finish(root);
    Evaluator ev(p);
    ev.run();
    for (int k = 0; k < 4; ++k)
        EXPECT_EQ(wordToInt(ev.sramBuf(out)[k]), k * 10 + 7);
}

TEST(Eval, FlatMapAppendsAndCounts)
{
    Builder b("fm");
    MemId in = b.dram("in", 48);
    MemId buf = b.sram("buf", 64);
    int32_t cnt = b.argOut();
    NodeId root = b.outer("root", CtrlScheme::kSequential, {}, kNone);
    CtrId i = b.ctr("i", 0, 48, 1, true);
    ExprId v = b.streamRef(0);
    ExprId keep = b.alu(FuOp::kIGt, v, b.immI(100));
    b.compute("filter", root, {i}, {StreamIn{in, b.ctrE(i)}}, {},
              {Builder::flatMap(buf, v, keep, cnt)});
    Program p = b.finish(root);
    Evaluator ev(p);
    for (int k = 0; k < 48; ++k)
        ev.dramBuf(in)[k] = intToWord(k * 7);
    ev.run();
    // k*7 > 100 <=> k >= 15: 33 survivors, in order.
    ASSERT_EQ(ev.argOuts(cnt).size(), 1u);
    EXPECT_EQ(wordToInt(ev.argOuts(cnt)[0]), 33);
    for (int k = 0; k < 33; ++k)
        EXPECT_EQ(wordToInt(ev.sramBuf(buf)[k]), (15 + k) * 7);
}

TEST(Eval, HashReduceAccumulatesByKey)
{
    // Histogram: bin = value % 8.
    Builder b("hist");
    MemId in = b.dram("in", 64);
    MemId bins = b.sram("bins", 8);
    NodeId root = b.outer("root", CtrlScheme::kSequential, {}, kNone);
    CtrId i = b.ctr("i", 0, 64, 1, true);
    ExprId v = b.streamRef(0);
    ExprId key = b.alu(FuOp::kIMod, v, b.immI(8));
    b.compute("hist", root, {i}, {StreamIn{in, b.ctrE(i)}}, {},
              {Builder::storeSram(bins, key, b.immI(1), true,
                                  FuOp::kIAdd)});
    Program p = b.finish(root);
    Evaluator ev(p);
    std::vector<int> expect(8, 0);
    for (int k = 0; k < 64; ++k) {
        ev.dramBuf(in)[k] = intToWord(k * 3);
        expect[(k * 3) % 8]++;
    }
    ev.run();
    for (int k = 0; k < 8; ++k)
        EXPECT_EQ(wordToInt(ev.sramBuf(bins)[k]), expect[k]);
}

TEST(Eval, DynamicBoundFollowsProducedCount)
{
    // flatmap count feeds a consumer loop bound (scaled x2).
    Builder b("dyn");
    MemId in = b.dram("in", 32);
    MemId buf = b.sram("buf", 32);
    MemId out = b.sram("out", 64);
    int32_t total = b.argOut();
    NodeId root = b.outer("root", CtrlScheme::kSequential, {}, kNone);
    CtrId i = b.ctr("i", 0, 32, 1, true);
    ExprId v = b.streamRef(0);
    ExprId keep = b.alu(FuOp::kILt, v, b.immI(10));
    NodeId prod = b.compute("filter", root, {i},
                            {StreamIn{in, b.ctrE(i)}}, {},
                            {Builder::flatMap(buf, v, keep)});
    CtrId j = b.ctrDyn("j", prod, 0, 0, 1, true, /*scale=*/2);
    b.compute("consume", root, {j}, {}, {},
              {Builder::storeSram(out, b.ctrE(j), b.ctrE(j))});
    CtrId one = b.ctr("one", 0, 1, 1, true);
    ExprId n = b.scalarRef(0);
    b.compute("report", root, {one}, {}, {{prod, 0}},
              {Builder::fold(FuOp::kIAdd, n, one, total)});
    Program p = b.finish(root);
    Evaluator ev(p);
    for (int k = 0; k < 32; ++k)
        ev.dramBuf(in)[k] = intToWord(k);
    ev.run();
    // 10 survivors -> consumer runs 20 iterations.
    EXPECT_EQ(wordToInt(ev.argOuts(total)[0]), 10);
    EXPECT_EQ(wordToInt(ev.sramBuf(out)[19]), 19);
    EXPECT_EQ(wordToInt(ev.sramBuf(out)[20]), 0);
}

TEST(Eval, ClearAtBoundsAccumulatorGenerations)
{
    // acc[0] += 1, 4 inner runs per outer iteration, cleared per outer.
    Builder b("gen");
    MemId acc = b.sram("acc", 4);
    MemId out = b.dram("res", 4);
    NodeId root = b.outer("root", CtrlScheme::kSequential, {}, kNone);
    CtrId o = b.ctr("o", 0, 2);
    NodeId loop = b.outer("loop", CtrlScheme::kSequential, {o}, root);
    b.clearAccumAt(acc, loop);
    CtrId r = b.ctr("r", 0, 4);
    CtrId l = b.ctr("l", 0, 4, 1, true);
    b.compute("bump", loop, {r, l}, {}, {},
              {Builder::storeSram(acc, b.ctrE(l), b.immI(1), true,
                                  FuOp::kIAdd)});
    b.storeTile("save", loop, out, acc, b.immI(0), 1, 4, 0);
    Program p = b.finish(root);
    Evaluator ev(p);
    ev.run();
    // Each generation sees exactly 4 bumps per slot (not 8).
    for (int k = 0; k < 4; ++k)
        EXPECT_EQ(wordToInt(ev.dramBuf(out)[k]), 4);
}

TEST(Eval, CountsInstrumentationTracksWork)
{
    Builder b("cnt");
    MemId in = b.dram("in", 64), out = b.dram("out", 64);
    NodeId root = b.outer("root", CtrlScheme::kSequential, {}, kNone);
    CtrId i = b.ctr("i", 0, 64, 1, true);
    ExprId v = b.fadd(b.streamRef(0), b.immF(1.0f));
    b.compute("inc", root, {i}, {StreamIn{in, b.ctrE(i)}}, {},
              {Builder::streamOut(out, b.ctrE(i), v)});
    Program p = b.finish(root);
    Evaluator ev(p);
    ev.run();
    EXPECT_EQ(ev.counts().aluOps, 64u);
    EXPECT_EQ(ev.counts().dramWordsRead, 64u);
    EXPECT_EQ(ev.counts().dramWordsWritten, 64u);
    EXPECT_EQ(ev.counts().wavefronts, 4u);
}

// ---- lane order and laziness -----------------------------------------

TEST(EvalLaneOrder, InPlaceSramStoreSeesPreviousLane)
{
    // buf[i] = buf[i-1] + 1 inside one 16-lane wavefront: lane l must
    // read lane l-1's store, as in a lane-serial walk.
    Builder b("scan");
    MemId buf = b.sram("buf", 33);
    NodeId root = b.outer("root", CtrlScheme::kSequential, {}, kNone);
    CtrId i = b.ctr("i", 1, 33, 1, true);
    ExprId prev = b.load(buf, b.isub(b.ctrE(i), b.immI(1)));
    b.compute("scan", root, {i}, {}, {},
              {Builder::storeSram(buf, b.ctrE(i),
                                  b.iadd(prev, b.immI(1)))});
    Program p = b.finish(root);
    Evaluator ev(p);
    ev.run();
    for (int k = 0; k < 33; ++k)
        EXPECT_EQ(wordToInt(ev.sramBuf(buf)[k]), k) << "k=" << k;
    EXPECT_EQ(ev.counts().aluOps, 64u); // isub + iadd per element
    EXPECT_EQ(ev.counts().sramWordsRead, 32u);
    EXPECT_EQ(ev.counts().sramWordsWritten, 32u);
    EXPECT_EQ(ev.counts().wavefronts, 2u);
}

TEST(EvalLaneOrder, InPlaceDramStreamSeesPreviousLane)
{
    // The same recurrence through DRAM: x[i] = x[i-1] * 2.
    Builder b("dscan");
    MemId x = b.dram("x", 20);
    NodeId root = b.outer("root", CtrlScheme::kSequential, {}, kNone);
    CtrId i = b.ctr("i", 1, 20, 1, true);
    ExprId prev = b.streamRef(0);
    b.compute("dscan", root, {i},
              {StreamIn{x, b.isub(b.ctrE(i), b.immI(1))}}, {},
              {Builder::streamOut(x, b.ctrE(i),
                                  b.imul(prev, b.immI(2)))});
    Program p = b.finish(root);
    Evaluator ev(p);
    ev.dramBuf(x)[0] = 1;
    ev.run();
    for (int k = 0; k < 20; ++k)
        EXPECT_EQ(wordToInt(ev.dramBuf(x)[k]), 1 << k) << "k=" << k;
    EXPECT_EQ(ev.counts().aluOps, 38u);
    EXPECT_EQ(ev.counts().dramWordsRead, 19u);
    EXPECT_EQ(ev.counts().dramWordsWritten, 19u);
}

TEST(EvalLaneOrder, PredicatedOffLanesAreNeverEvaluated)
{
    // tab has 8 words; lanes 8..15 would load past its end, but their
    // predicate is 0, so neither sink may evaluate the load there.
    Builder b("pick");
    MemId tab = b.sram("tab", 8);
    MemId kept = b.sram("kept", 16);
    MemId out = b.dram("out", 16);
    int32_t cnt = b.argOut();
    NodeId root = b.outer("root", CtrlScheme::kSequential, {}, kNone);
    CtrId j = b.ctr("j", 0, 8, 1, true);
    b.compute("fill", root, {j}, {}, {},
              {Builder::storeSram(tab, b.ctrE(j),
                                  b.imul(b.ctrE(j), b.immI(10)))});
    CtrId i = b.ctr("i", 0, 16, 1, true);
    ExprId pred = b.alu(FuOp::kILt, b.ctrE(i), b.immI(8));
    ExprId v = b.load(tab, b.ctrE(i));
    b.compute("pick", root, {i}, {}, {},
              {Builder::scatterOut(out, b.ctrE(i), v, pred),
               Builder::flatMap(kept, v, pred, cnt)});
    Program p = b.finish(root);
    Evaluator ev(p);
    ASSERT_NO_THROW(ev.run());
    for (int k = 0; k < 16; ++k) {
        int want = k < 8 ? k * 10 : 0;
        EXPECT_EQ(wordToInt(ev.dramBuf(out)[k]), want) << "k=" << k;
        EXPECT_EQ(wordToInt(ev.sramBuf(kept)[k]), want) << "k=" << k;
    }
    ASSERT_EQ(ev.argOuts(cnt).size(), 1u);
    EXPECT_EQ(wordToInt(ev.argOuts(cnt)[0]), 8);
    // Hand count: 8 imul (fill) + 16 ILt, shared by both sinks; the
    // load runs once per predicated-on lane.
    EXPECT_EQ(ev.counts().aluOps, 24u);
    EXPECT_EQ(ev.counts().sramWordsRead, 8u);
    EXPECT_EQ(ev.counts().sramWordsWritten, 16u);
    EXPECT_EQ(ev.counts().dramWordsWritten, 8u);
    EXPECT_EQ(ev.counts().dramWordsRead, 0u);
    EXPECT_EQ(ev.counts().wavefronts, 2u);
}

// ---- golden outputs --------------------------------------------------

namespace
{

uint64_t
fnv1a(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= 0x100000001b3ull;
    }
    return h;
}

uint64_t
fnv1aWords(uint64_t h, const std::vector<Word> &ws)
{
    h = fnv1a(h, ws.size());
    for (Word w : ws)
        h = fnv1a(h, w);
    return h;
}

struct Golden
{
    const char *app;
    apps::Scale scale;
    uint64_t digest; ///< every DRAM/SRAM buffer, then every argOut
    Evaluator::Counts counts;
};

// Captured from the lane-at-a-time evaluator this file was written
// against; 13 apps at kTiny plus two at kDefault.
const Golden kGolden[] = {
    {"InnerProduct", apps::Scale::kTiny, 0x489665e3c09d3efaull,
     {4097, 8192, 0, 0, 0, 257}},
    {"OuterProduct", apps::Scale::kTiny, 0xede5665959cd6ac3ull,
     {458784, 2048, 65536, 131072, 2048, 4096}},
    {"Black-Scholes", apps::Scale::kTiny, 0x1e6f4e9a51f2cc01ull,
     {98304, 6144, 4096, 0, 0, 128}},
    {"TPC-H Query 6", apps::Scale::kTiny, 0x25f53dfe3a1f3bf9ull,
     {45057, 16384, 0, 0, 0, 257}},
    {"TPC-H Query 6", apps::Scale::kDefault, 0xb3980aa8653680e2ull,
     {11534339, 4194304, 0, 0, 0, 65537}},
    {"GEMM", apps::Scale::kTiny, 0xcd8e501f1eb7126bull,
     {266280, 6144, 1024, 132096, 8192, 4096}},
    {"GEMM", apps::Scale::kDefault, 0x7aafecc908fb3f31ull,
     {8520960, 196608, 8192, 4202496, 262144, 131072}},
    {"GDA", apps::Scale::kTiny, 0x4d31cff6a4c90a67ull,
     {1048578, 4128, 1024, 525312, 135200, 8192}},
    {"LogReg", apps::Scale::kTiny, 0xa2f5f44324b47189ull,
     {166024, 16704, 64, 66240, 33728, 2072}},
    {"SGD", apps::Scale::kTiny, 0xd0c92c38fe14746aull,
     {165384, 16704, 64, 66368, 33856, 2080}},
    {"Kmeans", apps::Scale::kTiny, 0x522014711ca6eecdull,
     {239364, 4224, 128, 80768, 11392, 2848}},
    {"CNN", apps::Scale::kTiny, 0x868fec3d1579a515ull,
     {59094, 548, 490, 15386, 1430, 543}},
    {"SMDV", apps::Scale::kTiny, 0x5c49dce9a135f08cull,
     {6150, 6144, 128, 4224, 6272, 128}},
    {"PageRank", apps::Scale::kTiny, 0x25e4a51c74079d43ull,
     {4360, 4608, 512, 2304, 4352, 272}},
    {"BFS", apps::Scale::kTiny, 0xccdbfc0e09cd0b4cull,
     {4064, 2240, 352, 1824, 2300, 142}},
};

} // namespace

TEST(EvalGolden, AppOutputsAndCountsArePinned)
{
    // Every buffer, argOut and instrumented count of the reference
    // evaluator on every app, pinned bit for bit.
    setVerbose(false);
    for (const Golden &g : kGolden) {
        SCOPED_TRACE(g.app);
        const apps::AppSpec *spec = nullptr;
        for (const apps::AppSpec &s : apps::allApps())
            if (s.name == g.app)
                spec = &s;
        ASSERT_NE(spec, nullptr);
        apps::AppInstance app = spec->make(g.scale);
        Runner r(app.prog);
        app.load(r);
        Evaluator ev = r.runReference();
        const Program &p = r.program();
        uint64_t h = 0xcbf29ce484222325ull;
        for (size_t m = 0; m < p.mems.size(); ++m) {
            MemId id = static_cast<MemId>(m);
            h = fnv1aWords(h, p.mems[m].kind == MemKind::kDram
                                  ? ev.dramBuf(id)
                                  : ev.sramBuf(id));
        }
        for (uint32_t s = 0; s < p.numArgOuts; ++s)
            h = fnv1aWords(h, ev.argOuts(static_cast<int32_t>(s)));
        EXPECT_EQ(h, g.digest);
        const Evaluator::Counts &c = ev.counts();
        EXPECT_EQ(c.aluOps, g.counts.aluOps);
        EXPECT_EQ(c.dramWordsRead, g.counts.dramWordsRead);
        EXPECT_EQ(c.dramWordsWritten, g.counts.dramWordsWritten);
        EXPECT_EQ(c.sramWordsRead, g.counts.sramWordsRead);
        EXPECT_EQ(c.sramWordsWritten, g.counts.sramWordsWritten);
        EXPECT_EQ(c.wavefronts, g.counts.wavefronts);
    }
}
