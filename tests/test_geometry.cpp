/** @file Chip geometry: checkerboard layout, index/site inverses, AG
 *  edge attachment and channel binding. */

#include <gtest/gtest.h>

#include "arch/geometry.hpp"

using namespace plast;

TEST(Geometry, CheckerboardBalances)
{
    ArchParams p;
    Geometry g(p);
    uint32_t pcus = 0, pmus = 0;
    for (uint32_t r = 0; r < p.gridRows; ++r) {
        for (uint32_t c = 0; c < p.gridCols; ++c)
            (g.siteIsPcu(c, r) ? pcus : pmus)++;
    }
    EXPECT_EQ(pcus, p.numPcus());
    EXPECT_EQ(pmus, p.numPmus());
    EXPECT_EQ(pcus, 64u);
    EXPECT_EQ(pmus, 64u);
}

TEST(Geometry, NeighborsAlternate)
{
    ArchParams p;
    Geometry g(p);
    for (uint32_t r = 0; r + 1 < p.gridRows; ++r) {
        for (uint32_t c = 0; c + 1 < p.gridCols; ++c) {
            EXPECT_NE(g.siteIsPcu(c, r), g.siteIsPcu(c + 1, r));
            EXPECT_NE(g.siteIsPcu(c, r), g.siteIsPcu(c, r + 1));
        }
    }
}

TEST(Geometry, SiteOfIsInverseOfUnitIndexAt)
{
    ArchParams p;
    Geometry g(p);
    for (uint32_t r = 0; r < p.gridRows; ++r) {
        for (uint32_t c = 0; c < p.gridCols; ++c) {
            UnitClass cls = g.siteIsPcu(c, r) ? UnitClass::kPcu
                                              : UnitClass::kPmu;
            uint32_t idx = g.unitIndexAt(c, r);
            uint32_t cc = 0, rr = 0;
            g.siteOf(cls, idx, cc, rr);
            EXPECT_EQ(cc, c);
            EXPECT_EQ(rr, r);
        }
    }
}

namespace
{

/** The row-major scan the closed forms replace: same-class sites
 *  before (c, r). */
uint32_t
scanIndexAt(const Geometry &g, uint32_t c, uint32_t r)
{
    uint32_t idx = 0;
    for (uint32_t rr = 0; rr <= r; ++rr) {
        for (uint32_t cc = 0; cc < (rr == r ? c : g.cols()); ++cc) {
            if (g.siteIsPcu(cc, rr) == g.siteIsPcu(c, r))
                ++idx;
        }
    }
    return idx;
}

} // namespace

/** unitIndexAt and siteOf are closed forms; on every site of every
 *  grid up to 9 x 9 (odd and even in both dimensions) they agree with
 *  the row-major scan, and siteOf enumerates each class in scan
 *  order. */
TEST(Geometry, ClosedFormsMatchScanOnOddAndEvenGrids)
{
    for (uint32_t cols = 1; cols <= 9; ++cols) {
        for (uint32_t rows = 1; rows <= 9; ++rows) {
            ArchParams p;
            p.gridCols = cols;
            p.gridRows = rows;
            Geometry g(p);
            uint32_t next[2] = {0, 0}; // next PCU, PMU index in scan order
            for (uint32_t r = 0; r < rows; ++r) {
                for (uint32_t c = 0; c < cols; ++c) {
                    const bool pcu = g.siteIsPcu(c, r);
                    const uint32_t want = next[pcu ? 0 : 1]++;
                    ASSERT_EQ(scanIndexAt(g, c, r), want);
                    ASSERT_EQ(g.unitIndexAt(c, r), want)
                        << cols << "x" << rows << " site (" << c << ","
                        << r << ")";
                    uint32_t cc = ~0u, rr = ~0u;
                    g.siteOf(pcu ? UnitClass::kPcu : UnitClass::kPmu, want,
                             cc, rr);
                    ASSERT_EQ(cc, c) << cols << "x" << rows;
                    ASSERT_EQ(rr, r) << cols << "x" << rows;
                }
            }
            EXPECT_EQ(next[0], p.numPcus());
            EXPECT_EQ(next[1], p.numPmus());
        }
    }
}

TEST(GeometryDeath, SiteOfPastLastUnitPanics)
{
    ArchParams p;
    p.gridCols = 3;
    p.gridRows = 3;
    Geometry g(p);
    uint32_t c = 0, r = 0;
    EXPECT_DEATH(g.siteOf(UnitClass::kPcu, p.numPcus(), c, r),
                 "out of range");
    EXPECT_DEATH(g.siteOf(UnitClass::kPmu, p.numPmus(), c, r),
                 "out of range");
}

TEST(Geometry, AgsLiveOnChipEdges)
{
    ArchParams p;
    Geometry g(p);
    for (uint32_t a = 0; a < p.numAgs; ++a) {
        SwitchCoord sc = g.agSwitch(a);
        bool left = sc.col == 0;
        bool right = sc.col == static_cast<int>(p.gridCols);
        EXPECT_TRUE(left || right) << "AG " << a << " not on an edge";
        EXPECT_GE(sc.row, 0);
        EXPECT_LE(sc.row, static_cast<int>(p.gridRows));
    }
}

TEST(Geometry, AgChannelsCoverAllChannels)
{
    ArchParams p;
    Geometry g(p);
    std::set<uint32_t> channels;
    for (uint32_t a = 0; a < p.numAgs; ++a) {
        uint32_t ch = g.agChannel(a);
        EXPECT_LT(ch, p.dram.channels);
        channels.insert(ch);
    }
    EXPECT_EQ(channels.size(), p.dram.channels);
}

TEST(Geometry, BoxIndexEncodesSwitchSite)
{
    ArchParams p;
    Geometry g(p);
    uint32_t idx = 3 * p.switchCols() + 7;
    SwitchCoord sc = g.switchOf(UnitClass::kBox, idx);
    EXPECT_EQ(sc.col, 7);
    EXPECT_EQ(sc.row, 3);
}

TEST(Geometry, ManhattanDistance)
{
    EXPECT_EQ(Geometry::manhattan({0, 0}, {3, 4}), 7u);
    EXPECT_EQ(Geometry::manhattan({5, 2}, {5, 2}), 0u);
    EXPECT_EQ(Geometry::manhattan({2, 5}, {5, 2}), 6u);
}
