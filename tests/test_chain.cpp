/** @file Counter-chain runtime: trips, vectorized masking, and the
 *  first/last boundary flags — verified against naive enumeration. */

#include <gtest/gtest.h>

#include "base/rng.hpp"
#include "sim/wavefront.hpp"

using namespace plast;

namespace
{

ChainCfg
chain3(int64_t a, int64_t b, int64_t c, bool vec)
{
    ChainCfg cfg;
    cfg.ctrs.push_back({0, 1, a, false, -1, 1});
    cfg.ctrs.push_back({0, 1, b, false, -1, 1});
    cfg.ctrs.push_back({0, 1, c, vec, -1, 1});
    return cfg;
}

} // namespace

TEST(Chain, ScalarTripCount)
{
    ChainState cs;
    cs.configure(chain3(2, 3, 4, false), 16);
    cs.reset({2, 3, 4});
    int n = 0;
    while (!cs.done()) {
        Wavefront wf;
        cs.issueInto(wf);
        ++n;
    }
    EXPECT_EQ(n, 2 * 3 * 4);
}

TEST(Chain, VectorizedTripCountRoundsUp)
{
    ChainState cs;
    ChainCfg cfg;
    cfg.ctrs.push_back({0, 1, 37, true, -1, 1});
    cs.configure(cfg, 16);
    cs.reset({37});
    int n = 0;
    uint32_t last_mask = 0;
    while (!cs.done()) {
        Wavefront wf;
        cs.issueInto(wf);
        last_mask = wf.mask;
        ++n;
    }
    EXPECT_EQ(n, 3); // ceil(37/16)
    EXPECT_EQ(__builtin_popcount(last_mask), 37 - 32);
}

TEST(Chain, VectorizedLaneValues)
{
    ChainState cs;
    ChainCfg cfg;
    cfg.ctrs.push_back({0, 1, 20, true, -1, 1});
    cs.configure(cfg, 16);
    cs.reset({20});
    Wavefront wf;
    cs.issueInto(wf);
    for (uint32_t l = 0; l < 16; ++l)
        EXPECT_EQ(wf.ctrLane(0, l), static_cast<int64_t>(l));
    cs.issueInto(wf);
    EXPECT_EQ(wf.ctrLane(0, 0), 16);
    EXPECT_EQ(wf.ctrLane(0, 3), 19);
    EXPECT_FALSE(wf.valid(4)); // 20..35 masked beyond bound
}

TEST(Chain, FirstLastFlagsExactOnce)
{
    ChainState cs;
    cs.configure(chain3(2, 3, 2, false), 16);
    cs.reset({2, 3, 2});
    int firsts0 = 0, lasts0 = 0, firsts1 = 0, lasts1 = 0;
    while (!cs.done()) {
        Wavefront wf;
        cs.issueInto(wf);
        firsts0 += wf.firstAtLevel(0);
        lasts0 += wf.lastAtLevel(0);
        firsts1 += wf.firstAtLevel(1);
        lasts1 += wf.lastAtLevel(1);
    }
    EXPECT_EQ(firsts0, 1); // whole chain starts once
    EXPECT_EQ(lasts0, 1);  // ends once
    EXPECT_EQ(firsts1, 2); // once per outer iteration
    EXPECT_EQ(lasts1, 2);
}

TEST(Chain, ZeroTripIsDoneImmediately)
{
    ChainState cs;
    ChainCfg cfg;
    cfg.ctrs.push_back({0, 1, 0, true, -1, 1});
    cs.configure(cfg, 16);
    cs.reset({0});
    EXPECT_TRUE(cs.done());
}

TEST(Chain, EmptyChainIssuesExactlyOnce)
{
    ChainState cs;
    cs.configure(ChainCfg{}, 16);
    cs.reset({});
    EXPECT_FALSE(cs.done());
    Wavefront wf;
    cs.issueInto(wf);
    EXPECT_TRUE(cs.done());
    EXPECT_TRUE(wf.firstAtLevel(0));
    EXPECT_TRUE(wf.lastAtLevel(0));
    EXPECT_EQ(wf.mask, 1u);
}

TEST(Chain, NonUnitStep)
{
    ChainState cs;
    ChainCfg cfg;
    cfg.ctrs.push_back({4, 3, 20, false, -1, 1}); // 4,7,10,13,16,19
    cs.configure(cfg, 16);
    cs.reset({20});
    std::vector<int64_t> seen;
    while (!cs.done()) {
        Wavefront wf;
        cs.issueInto(wf);
        seen.push_back(wf.ctr[0]);
    }
    EXPECT_EQ(seen, (std::vector<int64_t>{4, 7, 10, 13, 16, 19}));
}

/** Property: every wavefront (counter snapshot, lane mask, per-level
 *  first/last flags) agrees with direct enumeration for random chains:
 *  nonzero starts, steps above 1, and vectorized innermost counters
 *  whose bound is rarely a multiple of lanes x step. */
class RandomChains : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RandomChains, MatchesNaiveEnumeration)
{
    Rng rng(GetParam());
    const uint32_t lanes = GetParam() % 3 == 0 ? 4 : 16;
    ChainCfg cfg;
    size_t depth = 1 + rng.nextBounded(3);
    std::vector<int64_t> bounds;
    // Per level: the values it takes, in order.
    std::vector<std::vector<int64_t>> values(depth);
    for (size_t i = 0; i < depth; ++i) {
        int64_t min = static_cast<int64_t>(rng.nextBounded(3));
        int64_t step = 1 + static_cast<int64_t>(rng.nextBounded(3));
        bool vec = (i == depth - 1) && (rng.nextBounded(4) != 0);
        int64_t max = min + 1 +
                      static_cast<int64_t>(rng.nextBounded(vec ? 80 : 9));
        cfg.ctrs.push_back({min, step, max, vec, -1, 1});
        bounds.push_back(max);
        int64_t per = vec ? step * lanes : step;
        for (int64_t v = min; v < max; v += per)
            values[i].push_back(v);
    }
    const CounterCfg &inner = cfg.ctrs.back();
    const uint32_t full = (1u << lanes) - 1;

    ChainState cs;
    cs.configure(cfg, lanes);
    cs.reset(bounds);
    // Odometer over value indices, innermost fastest.
    std::vector<size_t> idx(depth, 0);
    int64_t n = 0;
    for (bool more = true; more; ++n) {
        ASSERT_FALSE(cs.done()) << "chain ended early at wavefront " << n;
        Wavefront wf;
        cs.issueInto(wf);
        uint32_t mask = full;
        if (inner.vectorized) {
            mask = 0;
            for (uint32_t l = 0; l < lanes; ++l) {
                if (values[depth - 1][idx[depth - 1]] + l * inner.step <
                    bounds[depth - 1])
                    mask |= 1u << l;
            }
        }
        EXPECT_EQ(wf.mask, mask) << "wavefront " << n;
        uint16_t first = 0, last = 0;
        bool atFirst = true, atLast = true;
        for (size_t i = depth; i-- > 0;) {
            EXPECT_EQ(wf.ctr[i], values[i][idx[i]])
                << "wavefront " << n << " level " << i;
            atFirst = atFirst && idx[i] == 0;
            atLast = atLast && idx[i] + 1 == values[i].size();
            first |= static_cast<uint16_t>(atFirst) << i;
            last |= static_cast<uint16_t>(atLast) << i;
        }
        EXPECT_EQ(wf.firstLevels, first) << "wavefront " << n;
        EXPECT_EQ(wf.lastLevels, last) << "wavefront " << n;
        EXPECT_EQ(wf.vecCtr, inner.vectorized
                                 ? static_cast<int8_t>(depth - 1)
                                 : -1);
        more = false;
        for (size_t i = depth; i-- > 0;) {
            if (++idx[i] < values[i].size()) {
                more = true;
                break;
            }
            idx[i] = 0;
        }
        ASSERT_LT(n, 10000);
    }
    EXPECT_TRUE(cs.done());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChains,
                         ::testing::Range<uint64_t>(1, 25));

TEST(Chain, BoundScaleMultipliesDynamicBound)
{
    // resolveBounds path is exercised in unitcommon; here check the
    // CounterCfg::trips helper used by sizing code.
    CounterCfg cc;
    cc.vectorized = true;
    EXPECT_EQ(cc.trips(32, 16), 2);
    EXPECT_EQ(cc.trips(33, 16), 3);
    cc.vectorized = false;
    cc.step = 4;
    EXPECT_EQ(cc.trips(16, 16), 4);
    EXPECT_EQ(cc.trips(0, 16), 0);
}
