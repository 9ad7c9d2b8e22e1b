/** @file Address generators + coalescing units: dense splitting and
 *  reassembly, sparse merging, outstanding-request limits, the
 *  coalescing-entry overwrite rule, burst-slot reuse, batched gather
 *  delivery under response faults, and mid-flight checkpoints. */

#include <gtest/gtest.h>

#include "sim/memsys.hpp"

using namespace plast;

namespace
{

/** Harness around one AG + the memory system. */
struct AgHarness
{
    ArchParams params;
    MemSystem mem{params};
    std::unique_ptr<AgSim> ag;
    std::unique_ptr<VectorStream> out, addrIn, dataIn;
    Cycles now = 0;

    explicit AgHarness(AgCfg cfg)
    {
        cfg.used = true;
        ag = std::make_unique<AgSim>(params, 0, cfg, mem);
        if (cfg.dataVecOut >= 0) {
            out = std::make_unique<VectorStream>("out", 1, 64);
            ag->ports.vecOut[cfg.dataVecOut].sinks.push_back(out.get());
        }
        if (cfg.addrVecIn >= 0) {
            addrIn = std::make_unique<VectorStream>("addr", 1, 64);
            ag->ports.vecIn[cfg.addrVecIn].stream = addrIn.get();
        }
        if (cfg.dataVecIn >= 0) {
            dataIn = std::make_unique<VectorStream>("data", 1, 64);
            ag->ports.vecIn[cfg.dataVecIn].stream = dataIn.get();
        }
    }

    void
    step()
    {
        ag->step(now);
        mem.step(now);
        if (out)
            out->tick(now);
        if (addrIn)
            addrIn->tick(now);
        if (dataIn)
            dataIn->tick(now);
        ++now;
    }
};

} // namespace

TEST(MemSys, DenseLoadDeliversOrderedVectors)
{
    AgCfg cfg;
    cfg.mode = AgMode::kDenseLoad;
    CounterCfg rows;
    rows.max = 4;
    cfg.chain.ctrs = {rows};
    cfg.wordsPerCmd = 32; // two vectors per command
    StageCfg st;
    st.op = FuOp::kIMul;
    st.a = Operand::ctr(0);
    st.b = Operand::immInt(32);
    st.dstReg = 0;
    cfg.addrStages = {st};
    cfg.addrReg = 0;
    cfg.dataVecOut = 0;
    AgHarness h(cfg);

    h.mem.dram().reserve(4 * 32 * 4 + 64);
    for (uint32_t w = 0; w < 128; ++w)
        h.mem.dram().writeWord(w * 4, w * 10);

    std::vector<Word> got;
    for (int c = 0; c < 2000 && got.size() < 128; ++c) {
        h.step();
        while (h.out->canPop()) {
            const Vec &v = h.out->front();
            for (uint32_t l = 0; l < 16; ++l) {
                if (v.valid(l))
                    got.push_back(v.lane[l]);
            }
            h.out->pop();
        }
    }
    ASSERT_EQ(got.size(), 128u);
    for (uint32_t w = 0; w < 128; ++w)
        EXPECT_EQ(got[w], w * 10) << "word " << w << " out of order";
}

TEST(MemSys, DenseStoreWritesImage)
{
    AgCfg cfg;
    cfg.mode = AgMode::kDenseStore;
    CounterCfg rows;
    rows.max = 3;
    rows.step = 16;
    rows.max = 48;
    cfg.chain.ctrs = {rows};
    StageCfg st;
    st.op = FuOp::kNop;
    st.a = Operand::ctr(0);
    st.dstReg = 0;
    cfg.addrStages = {st};
    cfg.addrReg = 0;
    cfg.dataVecIn = 0;
    AgHarness h(cfg);

    for (int i = 0; i < 3; ++i) {
        Vec v;
        for (uint32_t l = 0; l < 16; ++l) {
            v.lane[l] = 1000 + i * 16 + l;
            v.setValid(l);
        }
        h.dataIn->push(v);
    }
    for (int c = 0; c < 2000 && h.ag->busy() + 1 > 0 && c < 500; ++c)
        h.step();
    for (uint32_t w = 0; w < 48; ++w)
        EXPECT_EQ(h.mem.dram().readWord(w * 4), 1000 + w);
    EXPECT_EQ(h.mem.stats().bytesWritten, 48u * 4);
}

TEST(MemSys, GatherMergesSameLineLanes)
{
    AgCfg cfg;
    cfg.mode = AgMode::kSparseLoad;
    CounterCfg cc;
    cc.vectorized = true;
    cc.max = 16;
    cfg.chain.ctrs = {cc};
    cfg.addrVecIn = 0;
    cfg.dataVecOut = 0;
    AgHarness h(cfg);

    h.mem.dram().reserve(4096);
    for (uint32_t w = 0; w < 1024; ++w)
        h.mem.dram().writeWord(w * 4, w + 7);

    // All 16 lanes read from two 64 B lines -> heavy coalescing.
    Vec addrs;
    for (uint32_t l = 0; l < 16; ++l) {
        addrs.lane[l] = (l % 2) * 16 + (l / 2); // word indices
        addrs.setValid(l);
    }
    h.addrIn->push(addrs);
    std::vector<Word> got(16, 0);
    bool done = false;
    for (int c = 0; c < 2000 && !done; ++c) {
        h.step();
        if (h.out->canPop()) {
            const Vec &v = h.out->front();
            for (uint32_t l = 0; l < 16; ++l)
                got[l] = v.lane[l];
            h.out->pop();
            done = true;
        }
    }
    ASSERT_TRUE(done);
    for (uint32_t l = 0; l < 16; ++l)
        EXPECT_EQ(got[l], addrs.lane[l] + 7);
    // 16 lanes but only 2 distinct lines: 14 lanes coalesced.
    EXPECT_EQ(h.mem.stats().coalescedLanes, 14u);
    EXPECT_EQ(h.mem.stats().bursts, 2u);
}

TEST(MemSys, ScatterWritesMaskedLanes)
{
    AgCfg cfg;
    cfg.mode = AgMode::kSparseStore;
    CounterCfg cc;
    cc.vectorized = true;
    cc.max = 16;
    cfg.chain.ctrs = {cc};
    cfg.addrVecIn = 0;
    cfg.dataVecIn = 1;
    AgHarness h(cfg);
    h.dataIn = nullptr; // rebuild: data on port 1
    auto data = std::make_unique<VectorStream>("d", 1, 8);
    h.ag->ports.vecIn[1].stream = data.get();

    h.mem.dram().reserve(4096);
    Vec addrs, vals;
    for (uint32_t l = 0; l < 16; ++l) {
        addrs.lane[l] = 100 + l * 3;
        vals.lane[l] = 5000 + l;
        if (l != 5) {
            addrs.setValid(l);
            vals.setValid(l);
        }
    }
    h.addrIn->push(addrs);
    data->push(vals);
    for (int c = 0; c < 500; ++c) {
        h.step();
        data->tick(h.now - 1);
    }
    for (uint32_t l = 0; l < 16; ++l) {
        Word w = h.mem.dram().readWord((100 + l * 3) * 4);
        if (l == 5)
            EXPECT_EQ(w, 0u) << "masked lane must not write";
        else
            EXPECT_EQ(w, 5000 + l);
    }
}

TEST(MemSys, OutstandingLimitThrottlesButCompletes)
{
    ArchParams p;
    p.coalescerMaxOutstanding = 4;
    MemSystem mem(p);
    AgCfg cfg;
    cfg.mode = AgMode::kDenseLoad;
    CounterCfg rows;
    rows.max = 32;
    cfg.chain.ctrs = {rows};
    cfg.wordsPerCmd = 16;
    StageCfg st;
    st.op = FuOp::kIMul;
    st.a = Operand::ctr(0);
    st.b = Operand::immInt(16);
    st.dstReg = 0;
    cfg.addrStages = {st};
    cfg.addrReg = 0;
    cfg.dataVecOut = 0;
    cfg.used = true;
    AgSim ag(p, 0, cfg, mem);
    VectorStream out("o", 1, 64);
    ag.ports.vecOut[0].sinks.push_back(&out);
    mem.dram().reserve(32 * 64 + 64);
    Cycles now = 0;
    size_t vecs = 0;
    for (int c = 0; c < 20000 && vecs < 32; ++c) {
        ag.step(now);
        mem.step(now);
        out.tick(now);
        ++now;
        while (out.canPop()) {
            out.pop();
            ++vecs;
        }
    }
    EXPECT_EQ(vecs, 32u);
}

TEST(MemSys, TinyCoalescingCacheStillCompletesGathers)
{
    // One merge entry cannot hold a 16-line vector at once: the AG
    // must trickle lanes through (partial acceptance) and still
    // deliver a correct, in-order result.
    ArchParams p;
    p.coalescerCacheLines = 1;
    p.coalescerMaxOutstanding = 2;
    MemSystem mem(p);
    AgCfg cfg;
    cfg.used = true;
    cfg.mode = AgMode::kSparseLoad;
    CounterCfg cc;
    cc.vectorized = true;
    cc.max = 32;
    cfg.chain.ctrs = {cc};
    cfg.addrVecIn = 0;
    cfg.dataVecOut = 0;
    AgSim ag(p, 0, cfg, mem);
    VectorStream addrs("a", 1, 8), out("o", 1, 8);
    ag.ports.vecIn[0].stream = &addrs;
    ag.ports.vecOut[0].sinks.push_back(&out);

    mem.dram().reserve(1 << 16);
    for (uint32_t w = 0; w < 4096; ++w)
        mem.dram().writeWord(w * 4, w ^ 0x5a);

    // Two vectors of widely scattered addresses (all distinct lines).
    for (int v = 0; v < 2; ++v) {
        Vec a;
        for (uint32_t l = 0; l < 16; ++l) {
            a.lane[l] = (v * 16 + l) * 64; // word idx, distinct lines
            a.setValid(l);
        }
        addrs.push(a);
    }
    std::vector<Vec> got;
    Cycles now = 0;
    while (got.size() < 2 && now < 200000) {
        ag.step(now);
        mem.step(now);
        addrs.tick(now);
        out.tick(now);
        ++now;
        while (out.canPop()) {
            got.push_back(out.front());
            out.pop();
        }
    }
    ASSERT_EQ(got.size(), 2u) << "starved under a tiny cache";
    for (int v = 0; v < 2; ++v) {
        for (uint32_t l = 0; l < 16; ++l)
            EXPECT_EQ(got[v].lane[l],
                      static_cast<Word>(((v * 16 + l) * 64) ^ 0x5a));
    }
}

// ---- coalescer bookkeeping: merge table, burst slots, batched delivery

namespace
{

/** Several AGs on one coalescing unit, stepped AGs-then-memory. Inputs
 *  are preloaded into the AGs' streams, so a test places each vector in
 *  the cycle it chooses. */
struct MemRig
{
    ArchParams params;
    std::unique_ptr<MemSystem> mem;
    std::vector<std::unique_ptr<AgSim>> ags;
    std::vector<std::unique_ptr<VectorStream>> streams;
    Cycles now = 0;

    explicit MemRig(const ArchParams &p)
        : params(p), mem(std::make_unique<MemSystem>(p))
    {
        mem->dram().reserve(1 << 16);
        for (uint32_t w = 0; w < (1u << 14); ++w)
            mem->dram().writeWord(w * 4, 0x10000 + w);
    }

    /** A one-counter sparse AG of `vecs` 16-lane vectors. */
    AgSim &
    addSparse(AgMode mode, uint32_t vecs)
    {
        AgCfg cfg;
        cfg.used = true;
        cfg.mode = mode;
        CounterCfg cc;
        cc.vectorized = true;
        cc.max = 16 * vecs;
        cfg.chain.ctrs = {cc};
        cfg.addrVecIn = 0;
        if (mode == AgMode::kSparseStore)
            cfg.dataVecIn = 1;
        else
            cfg.dataVecOut = 0;
        ags.push_back(std::make_unique<AgSim>(
            params, static_cast<uint32_t>(ags.size()), cfg, *mem));
        AgSim &ag = *ags.back();
        ag.ports.vecIn[0].stream = stream("addr");
        if (mode == AgMode::kSparseStore)
            ag.ports.vecIn[1].stream = stream("data");
        else
            ag.ports.vecOut[0].sinks.push_back(stream("out"));
        return ag;
    }

    VectorStream *
    stream(const char *name)
    {
        streams.push_back(std::make_unique<VectorStream>(name, 1, 64));
        return streams.back().get();
    }

    static VectorStream &
    in(AgSim &ag, int port)
    {
        return *static_cast<VectorStream *>(ag.ports.vecIn[port].stream);
    }

    static VectorStream &
    out(AgSim &ag)
    {
        return *static_cast<VectorStream *>(ag.ports.vecOut[0].sinks[0]);
    }

    void
    step()
    {
        for (auto &ag : ags)
            ag->step(now);
        mem->step(now);
        for (auto &s : streams)
            s->tick(now);
        ++now;
    }

    /** Step until `done()` holds; false if it never does. */
    template <class Pred>
    bool
    runUntil(Pred done, Cycles limit = 20000)
    {
        for (Cycles end = now + limit; now < end;) {
            if (done())
                return true;
            step();
        }
        return done();
    }

    Word image(uint32_t word) const { return mem->dram().readWord(word * 4); }

    /** Save or restore streams, AGs and the memory system (the rig's
     *  construction is the config, as for a fabric). */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        for (auto &s : streams)
            io(ar, *s);
        for (auto &ag : ags)
            ag->serializeState(ar);
        mem->serializeState(
            ar,
            [&](AgSim *a) -> uint64_t {
                for (size_t i = 0; i < ags.size(); ++i) {
                    if (ags[i].get() == a)
                        return i;
                }
                ADD_FAILURE() << "waiter of an unknown AG";
                return 0;
            },
            [&](uint64_t i) { return ags.at(i).get(); });
        io(ar, now);
    }
};

/** A gather/scatter address vector: lane i holds words[i], valid. */
Vec
wordVec(std::initializer_list<uint32_t> words)
{
    Vec v;
    uint32_t l = 0;
    for (uint32_t w : words) {
        v.lane[l] = w;
        v.setValid(l++);
    }
    return v;
}

/** Fault-free hook that logs when each read burst responds. */
struct ResponseLog : MemFaultHook
{
    std::vector<Cycles> at;

    BurstFault
    onBurstResponse(Addr, Cycles now) override
    {
        at.push_back(now);
        return {};
    }
};

} // namespace

/**
 * A scatter to a line with a pending read burst cannot merge into it.
 * With a free coalescing entry it allocates a second burst and takes
 * the line's entry; the read's completion must then leave that entry
 * alone. The entry stays counted until the scatter completes, so a
 * two-line gather issued in between fits only one lane per cycle. With
 * one entry the scatter waits for the read instead.
 */
class MergeOverwrite : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(MergeOverwrite, ReadCompletionKeepsTheScattersEntry)
{
    ArchParams p;
    p.coalescerCacheLines = GetParam();
    MemRig rig(p);
    ResponseLog reads;
    rig.mem->setFaultHook(&reads);
    AgSim &gather = rig.addSparse(AgMode::kSparseLoad, 2);
    AgSim &scatter = rig.addSparse(AgMode::kSparseStore, 1);
    const MemSystem::Stats &st = rig.mem->stats();

    // Line L = words 0..15, M = 16..31, N = 32..47 (one DRAM channel
    // apart each; all go through coalescing unit 0).
    MemRig::in(gather, 0).preload(wordVec({0}));
    ASSERT_TRUE(rig.runUntil([&] { return st.sparseCmds == 1; }));
    MemRig::in(scatter, 0).preload(wordVec({1}));
    MemRig::in(scatter, 1).preload(wordVec({0xabc}));
    ASSERT_TRUE(rig.runUntil([&] { return st.sparseCmds == 2; }));
    if (GetParam() == 1) {
        // The read held the only entry: the scatter started only
        // after the read's response.
        ASSERT_EQ(reads.at.size(), 1u);
        EXPECT_LT(reads.at[0], rig.now - 1);
    } else {
        // A second entry: the scatter went in while the read flew.
        EXPECT_TRUE(reads.at.empty());
    }
    EXPECT_EQ(st.bytesWritten, 4u);

    // The gather's single lane comes back before the scatter's ack.
    VectorStream &out = MemRig::out(gather);
    ASSERT_TRUE(rig.runUntil([&] { return out.canPop(); }));
    EXPECT_EQ(out.front().lane[0], 0x10000u);
    EXPECT_EQ(out.front().mask, 1u);
    out.pop();
    ASSERT_TRUE(scatter.busy()) << "scatter acknowledged too early";

    // Lines M and N each need an entry while L's scatter holds one, so
    // no cycle accepts both lanes.
    const uint64_t cmdsBefore = st.sparseCmds;
    MemRig::in(gather, 0).preload(wordVec({16, 32}));
    ASSERT_TRUE(rig.runUntil([&] { return out.canPop(); }));
    EXPECT_EQ(out.front().lane[0], 0x10000u + 16);
    EXPECT_EQ(out.front().lane[1], 0x10000u + 32);
    EXPECT_EQ(out.front().mask, 3u);
    out.pop();
    ASSERT_TRUE(rig.runUntil([&] { return !scatter.busy(); }));

    EXPECT_EQ(st.sparseCmds, cmdsBefore + 2);
    EXPECT_EQ(reads.at.size(), 3u);
    EXPECT_EQ(st.bursts, 4u);
    EXPECT_EQ(st.coalescedLanes, 0u);
    EXPECT_EQ(st.bytesRead, 12u);
    EXPECT_EQ(st.bytesWritten, 4u);
    EXPECT_EQ(rig.image(0), 0x10000u);
    EXPECT_EQ(rig.image(1), 0xabcu);
    EXPECT_TRUE(rig.mem->quiescent());
}

INSTANTIATE_TEST_SUITE_P(CacheLines, MergeOverwrite,
                         ::testing::Values(1u, 2u));

TEST(MemSys, CheckpointWithLiveBurstsResumesExactly)
{
    // Snapshot the MergeOverwrite scene with two coalescing entries:
    // a read and a scatter burst live on line L, the scatter holding
    // L's entry, and a two-line gather queued behind them.
    ArchParams p;
    p.coalescerCacheLines = 2;
    auto build = [&](MemRig &rig) {
        rig.addSparse(AgMode::kSparseLoad, 2);
        rig.addSparse(AgMode::kSparseStore, 1);
    };
    MemRig a(p), b(p);
    build(a);
    build(b);
    AgSim &gather = *a.ags[0], &scatter = *a.ags[1];
    const MemSystem::Stats &st = a.mem->stats();
    MemRig::in(gather, 0).preload(wordVec({0}));
    ASSERT_TRUE(a.runUntil([&] { return st.sparseCmds == 1; }));
    MemRig::in(scatter, 0).preload(wordVec({1}));
    MemRig::in(scatter, 1).preload(wordVec({0xabc}));
    ASSERT_TRUE(a.runUntil([&] { return st.sparseCmds == 2; }));
    MemRig::in(gather, 0).preload(wordVec({16, 32}));
    ASSERT_FALSE(a.mem->quiescent());

    StateWriter w;
    a.serialize(w);
    StateReader r(w.tape());
    b.serialize(r);
    ASSERT_TRUE(r.exhausted());

    // Both rigs run to the end; every output, counter and cycle agrees.
    auto finish = [](MemRig &rig) {
        std::vector<std::pair<Cycles, Vec>> got;
        VectorStream &out = MemRig::out(*rig.ags[0]);
        EXPECT_TRUE(rig.runUntil([&] {
            while (out.canPop()) {
                got.emplace_back(rig.now, out.front());
                out.pop();
            }
            return got.size() == 2 && !rig.ags[1]->busy() &&
                   rig.mem->quiescent();
        }));
        return got;
    };
    auto ga = finish(a), gb = finish(b);
    ASSERT_EQ(ga.size(), 2u);
    ASSERT_EQ(gb.size(), 2u);
    for (size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(ga[i].first, gb[i].first) << "vector " << i;
        EXPECT_EQ(ga[i].second.mask, gb[i].second.mask);
        for (uint32_t l = 0; l < 16; ++l)
            EXPECT_EQ(ga[i].second.lane[l], gb[i].second.lane[l]);
    }
    EXPECT_EQ(ga[1].second.lane[0], 0x10000u + 16);
    EXPECT_EQ(ga[1].second.lane[1], 0x10000u + 32);
    EXPECT_EQ(a.now, b.now);
    const MemSystem::Stats &sb = b.mem->stats();
    EXPECT_EQ(st.sparseCmds, 4u);
    EXPECT_EQ(sb.sparseCmds, 4u);
    EXPECT_EQ(sb.bursts, st.bursts);
    EXPECT_EQ(sb.coalescedLanes, st.coalescedLanes);
    EXPECT_EQ(sb.bytesRead, st.bytesRead);
    EXPECT_EQ(sb.bytesWritten, st.bytesWritten);
    EXPECT_EQ(b.image(1), 0xabcu);
}

TEST(MemSys, BurstSlotsAreReusedAcrossManyBursts)
{
    // Eight gather vectors, each four lanes on each of four fresh
    // lines: 32 bursts through a budget of 4 outstanding.
    ArchParams p;
    p.coalescerMaxOutstanding = 4;
    MemRig rig(p);
    AgSim &gather = rig.addSparse(AgMode::kSparseLoad, 8);
    VectorStream &addr = MemRig::in(gather, 0);
    for (uint32_t v = 0; v < 8; ++v) {
        Vec a;
        for (uint32_t l = 0; l < 16; ++l) {
            a.lane[l] = (v * 4 + l / 4) * 16 + l % 4;
            a.setValid(l);
        }
        addr.preload(a);
    }
    std::vector<Vec> got;
    VectorStream &out = MemRig::out(gather);
    ASSERT_TRUE(rig.runUntil([&] {
        while (out.canPop()) {
            got.push_back(out.front());
            out.pop();
        }
        return got.size() == 8;
    }));
    for (uint32_t v = 0; v < 8; ++v) {
        for (uint32_t l = 0; l < 16; ++l)
            EXPECT_EQ(got[v].lane[l],
                      0x10000u + (v * 4 + l / 4) * 16 + l % 4)
                << "vector " << v << " lane " << l;
    }
    const MemSystem::Stats &st = rig.mem->stats();
    EXPECT_EQ(st.bursts, 32u);
    EXPECT_EQ(st.coalescedLanes, 96u); // 3 of every line's 4 lanes
    EXPECT_EQ(st.bytesRead, 128u * 4);
    EXPECT_EQ(st.bytesWritten, 0u);
    EXPECT_LE(rig.mem->burstSlots(), 4u) << "completed slots not reused";
    EXPECT_TRUE(rig.mem->quiescent());
}

namespace
{

/** Corrupts every response for one line and fails the first response
 *  for another; everything else is clean. */
struct ScriptedFaults : MemFaultHook
{
    Addr corruptLine = 0, retryLine = 0;
    uint32_t bit = 0;
    uint32_t calls = 0, retried = 0;

    BurstFault
    onBurstResponse(Addr lineAddr, Cycles) override
    {
        ++calls;
        if (lineAddr == corruptLine)
            return {BurstAction::kCorrupt, bit};
        if (lineAddr == retryLine && retried++ == 0)
            return {BurstAction::kRetry, 0};
        return {};
    }
};

} // namespace

TEST(MemSys, SharedGatherBurstFaultsPerWordAndRetriesWhole)
{
    // Commands 1-2 split line L (words 0..15) eight lanes each, so one
    // burst serves both; commands 3-4 do the same on line M (words
    // 1024..1039, same channel). L's response flips bit 3 of word 9;
    // M's first response is dropped and re-issued.
    ArchParams p;
    MemRig rig(p);
    ScriptedFaults faults;
    faults.corruptLine = 0;
    faults.retryLine = 1024 * 4;
    faults.bit = 9 * 32 + 3;
    rig.mem->setFaultHook(&faults);
    AgSim &gather = rig.addSparse(AgMode::kSparseLoad, 4);
    VectorStream &addr = MemRig::in(gather, 0);
    addr.preload(wordVec({0, 1, 2, 3, 4, 5, 6, 7}));
    addr.preload(wordVec({8, 9, 10, 11, 12, 13, 14, 15}));
    addr.preload(wordVec({1031, 1030, 1029, 1028, 1027, 1026, 1025, 1024}));
    addr.preload(wordVec({1039, 1038, 1037, 1036, 1035, 1034, 1033, 1032}));

    std::vector<Vec> got;
    VectorStream &out = MemRig::out(gather);
    ASSERT_TRUE(rig.runUntil([&] {
        while (out.canPop()) {
            got.push_back(out.front());
            out.pop();
        }
        return got.size() == 4;
    }));
    for (uint32_t l = 0; l < 8; ++l) {
        EXPECT_EQ(got[0].lane[l], 0x10000u + l);
        EXPECT_EQ(got[1].lane[l],
                  (0x10000u + 8 + l) ^ (l == 1 ? 1u << 3 : 0u))
            << "only word 9 (command 2, lane 1) flips";
        EXPECT_EQ(got[2].lane[l], 0x10000u + 1031 - l);
        EXPECT_EQ(got[3].lane[l], 0x10000u + 1039 - l);
    }
    for (const Vec &v : got)
        EXPECT_EQ(v.mask, 0xffu);

    const MemSystem::Stats &st = rig.mem->stats();
    EXPECT_EQ(faults.calls, 3u); // L, M dropped, M again
    EXPECT_EQ(st.sparseCmds, 4u);
    EXPECT_EQ(st.bursts, 3u);
    EXPECT_EQ(st.coalescedLanes, 30u);
    EXPECT_EQ(st.dramRetries, 1u);
    EXPECT_EQ(st.dramCorrected, 0u);
    EXPECT_EQ(st.bytesRead, 32u * 4);
    EXPECT_EQ(rig.image(9), 0x10000u + 9) << "corruption is in flight only";
    EXPECT_EQ(gather.stats().wordsLoaded, 32u);
    EXPECT_TRUE(rig.mem->quiescent());
}
