#include "arch/geometry.hpp"

#include "base/logging.hpp"

namespace plast
{

namespace
{

/** Columns in [0, n) with parity q (0 = even, 1 = odd). */
uint32_t
colsWithParity(uint32_t n, uint32_t q)
{
    return (n + 1 - q) / 2;
}

} // namespace

/*
 * Both inverses below are closed forms over the checkerboard's row-major
 * order. A pair of adjacent rows holds exactly cols() sites of each
 * class, and within one row the sites of a class sit on every other
 * column, starting at column (r + class) & 1 where class is 0 for PCUs
 * and 1 for PMUs.
 */

uint32_t
Geometry::unitIndexAt(uint32_t c, uint32_t r) const
{
    panic_if(c >= cols() || r >= rows(), "site (%u,%u) out of grid", c, r);
    // Same-class sites in the full row pairs above, in the odd row left
    // over above (its class sites start on the column parity opposite
    // to c's), then left of c in row r (the columns sharing c's parity).
    uint32_t idx = (r / 2) * cols();
    if (r & 1u)
        idx += colsWithParity(cols(), (c & 1u) ^ 1u);
    return idx + c / 2;
}

void
Geometry::siteOf(UnitClass cls, uint32_t idx, uint32_t &c, uint32_t &r) const
{
    const uint32_t cl = cls == UnitClass::kPcu ? 0u : 1u;
    if (cols() > 0) {
        uint32_t rr = 2 * (idx / cols());
        uint32_t rem = idx % cols();
        const uint32_t first = colsWithParity(cols(), cl);
        if (rem >= first) {
            rem -= first;
            ++rr;
        }
        if (rr < rows()) {
            c = 2 * rem + ((rr + cl) & 1u);
            r = rr;
            return;
        }
    }
    panic("siteOf: %s index %u out of range", unitClassName(cls).c_str(),
          idx);
}

SwitchCoord
Geometry::switchOf(UnitClass cls, uint32_t idx) const
{
    switch (cls) {
      case UnitClass::kPcu:
      case UnitClass::kPmu: {
        uint32_t c = 0, r = 0;
        siteOf(cls, idx, c, r);
        return {static_cast<int>(c), static_cast<int>(r)};
      }
      case UnitClass::kAg:
        return agSwitch(idx);
      case UnitClass::kBox:
        // Boxes are placed by the compiler; their index encodes the
        // switch site directly: idx = row * switchCols + col.
        return {static_cast<int>(idx % (cols() + 1)),
                static_cast<int>(idx / (cols() + 1))};
      case UnitClass::kHost:
        return {0, 0};
    }
    return {0, 0};
}

SwitchCoord
Geometry::agSwitch(uint32_t agIdx) const
{
    // AGs alternate left/right edges, walking down the switch rows.
    uint32_t side = agIdx & 1u;
    uint32_t slot = agIdx / 2;
    uint32_t row = slot % (rows() + 1);
    int col = side == 0 ? 0 : static_cast<int>(cols());
    return {col, static_cast<int>(row)};
}

uint32_t
Geometry::agChannel(uint32_t agIdx) const
{
    return agIdx % p_.dram.channels;
}

} // namespace plast
