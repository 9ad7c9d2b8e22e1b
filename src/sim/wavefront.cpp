#include "sim/wavefront.hpp"

#include <algorithm>

namespace plast
{

void
ChainState::issueInto(Wavefront &wf)
{
    wf.mask = 0;
    wf.firstLevels = 0;
    wf.lastLevels = 0;
    wf.vecCtr = -1;
    wf.vecStep = 1;

    const size_t n = cfg_.ctrs.size();
    // Define the full counter snapshot, not just the configured depth:
    // issue targets may be recycled pool wavefronts (sim/pcu.cpp), and
    // a fresh Wavefront zero-initialises ctr — reuse must match. The
    // live slots are overwritten below, so only the tail needs zeroing.
    std::fill(wf.ctr.begin() + static_cast<long>(n), wf.ctr.end(), 0);

    if (n == 0) {
        // Empty chain: one wavefront per run, single "lane 0" index.
        panic_if(oneshotFired_, "empty chain issued twice");
        wf.mask = 1;
        wf.firstLevels = 0xffff;
        wf.lastLevels = 0xffff;
        oneshotFired_ = true;
        done_ = true;
        return;
    }

    panic_if(done_, "issue on completed chain");

    int64_t *cur = cur_.data();
    const int64_t *bound = bounds_.data();
    const Level *lvl = levels_.data();
    for (size_t i = 0; i < n; ++i)
        wf.ctr[i] = cur[i];

    // Lane validity: non-vectorized chains issue a full wavefront whose
    // every lane sees the same indices; vectorized chains mask lanes at
    // or beyond the innermost bound.
    const CounterCfg &inner = cfg_.ctrs[n - 1];
    const uint32_t full = lanes_ >= 32 ? ~0u : (1u << lanes_) - 1;
    if (inner.vectorized) {
        wf.vecCtr = static_cast<int8_t>(n - 1);
        wf.vecStep = inner.step;
        if (inner.step > 0) {
            // Valid lanes are the contiguous prefix where
            // cur + l*step < bound: ceil((bound - cur) / step) lanes.
            // Only a partial last wavefront pays for the division.
            int64_t left = bound[n - 1] - cur[n - 1];
            if (left >= lvl[n - 1].per) {
                wf.mask = full;
            } else if (left > 0) {
                int64_t k = (left + inner.step - 1) / inner.step;
                wf.mask = k >= lanes_ ? full
                                      : (1u << static_cast<uint32_t>(k)) - 1;
            }
        } else {
            for (uint32_t l = 0; l < lanes_; ++l) {
                int64_t v =
                    cur[n - 1] + static_cast<int64_t>(l) * inner.step;
                if (v < bound[n - 1])
                    wf.setValid(l);
            }
        }
    } else {
        wf.mask = full;
    }

    // First/last flags per level: level k is "first" when counters
    // k..n-1 are all at their starting value, "last" when this is the
    // final wavefront for counters k..n-1.
    bool first = true, last = true;
    for (size_t i = n; i-- > 0;) {
        first = first && cur[i] == lvl[i].min;
        last = last && cur[i] + lvl[i].per >= bound[i];
        wf.firstLevels |= static_cast<uint16_t>(first) << i;
        wf.lastLevels |= static_cast<uint16_t>(last) << i;
    }

    // Advance the chain (innermost fastest).
    for (size_t i = n; i-- > 0;) {
        cur[i] += lvl[i].per;
        if (cur[i] < bound[i])
            return;
        cur[i] = lvl[i].min;
    }
    done_ = true;
}

} // namespace plast
