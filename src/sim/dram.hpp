/**
 * @file
 * DDR3-style main-memory timing model (the repo's stand-in for
 * DRAMSim2, see DESIGN.md). Four independent channels; each channel has
 * a bounded command queue, 8 banks with open-row state, FR-FCFS
 * scheduling, and a shared data bus occupied tBurst cycles per 64 B
 * burst. Peak bandwidth matches the paper's 51.2 GB/s configuration.
 *
 * Addresses interleave across channels at burst (64 B) granularity.
 */

#ifndef PLAST_SIM_DRAM_HPP
#define PLAST_SIM_DRAM_HPP

#include <cstdint>
#include <vector>

#include "arch/params.hpp"
#include "base/logging.hpp"
#include "base/ring.hpp"
#include "base/stateio.hpp"
#include "base/types.hpp"

namespace plast
{

struct DramReq
{
    Addr lineAddr = 0; ///< burst-aligned byte address
    bool write = false;
    uint64_t tag = 0;

    template <class Ar>
    void
    serializeState(Ar &ar)
    {
        io(ar, lineAddr);
        io(ar, write);
        io(ar, tag);
    }
};

/** One DDR channel. */
class DramChannel
{
  public:
    DramChannel(const DramParams &params, uint32_t index);

    bool canSubmit() const { return queue_.size() < params_.queueDepth; }
    void submit(const DramReq &req, Cycles now);

    /** Schedule at most one command this cycle; deliver due responses
     *  into `completed`. */
    void step(Cycles now, std::vector<DramReq> &completed);

    bool
    quiescent() const
    {
        return queue_.empty() && responses_.empty();
    }

    struct Stats
    {
        uint64_t reads = 0, writes = 0;
        uint64_t rowHits = 0, rowMisses = 0, rowConflicts = 0;
        uint64_t busBusyCycles = 0;
    };
    const Stats &stats() const { return stats_; }

    template <class Ar>
    void
    serializeState(Ar &ar)
    {
        io(ar, queue_);
        io(ar, banks_);
        io(ar, busFreeAt_);
        io(ar, responses_);
        io(ar, stats_.reads);
        io(ar, stats_.writes);
        io(ar, stats_.rowHits);
        io(ar, stats_.rowMisses);
        io(ar, stats_.rowConflicts);
        io(ar, stats_.busBusyCycles);
        if constexpr (!Ar::kSaving) {
            // Cached geometry and the scan-skip bound are derived
            // state: rebuild / reset them rather than trusting a tape.
            for (auto &p : queue_)
                rowOf(p.req.lineAddr, p.bank, p.row);
            nextIssueAt_ = 0;
        }
    }

  private:
    struct Bank
    {
        int64_t openRow = -1;
        Cycles readyAt = 0;

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            io(ar, openRow);
            io(ar, readyAt);
        }
    };

    struct Pending
    {
        Cycles readyAt = 0;
        DramReq req;
        /** Bank/row geometry, derived from req.lineAddr at submit time
         *  (and re-derived after checkpoint restore) so the per-cycle
         *  FR-FCFS scan never divides. */
        uint32_t bank = 0;
        int64_t row = 0;

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            io(ar, readyAt);
            io(ar, req);
        }
    };

    void rowOf(Addr lineAddr, uint32_t &bank, int64_t &row) const;

    DramParams params_;
    uint32_t index_;
    /** Oldest first; Pending::readyAt = submit time here. A vector
     *  reserved to queueDepth: FR-FCFS erases from the middle of at
     *  most queueDepth entries, so this never allocates after
     *  construction. */
    std::vector<Pending> queue_;
    std::vector<Bank> banks_;
    Cycles busFreeAt_ = 0;
    Ring<Pending> responses_;
    Stats stats_;
    /** Earliest cycle the FR-FCFS scan could possibly issue (min bank
     *  readyAt over the queue when every target bank was busy). Purely
     *  an evaluation-skipping bound — 0 means "scan now" — so it is
     *  not checkpointed; a restore conservatively rescans. */
    Cycles nextIssueAt_ = 0;
};

/**
 * The whole DRAM system: a word-addressable image (the accelerator's
 * main memory contents) plus the timing channels. The runtime writes
 * inputs into / reads results out of the image directly.
 */
class DramModel
{
  public:
    explicit DramModel(const DramParams &params);

    uint32_t
    channelOf(Addr lineAddr) const
    {
        return static_cast<uint32_t>((lineAddr / params_.burstBytes) %
                                     params_.channels);
    }
    DramChannel &channel(uint32_t i) { return channels_[i]; }
    const DramChannel &channel(uint32_t i) const { return channels_[i]; }
    uint32_t numChannels() const { return params_.channels; }

    void step(Cycles now, std::vector<DramReq> &completed);
    bool quiescent() const;

    // --- Memory image -------------------------------------------------
    /** Ensure the image covers [0, bytes). Inline: the sparse path
     *  calls it for every accepted lane. */
    void
    reserve(Addr bytes)
    {
        Addr words = (bytes + 3) / 4;
        if (words > image_.size())
            image_.resize(words, 0);
    }
    Word
    readWord(Addr byteAddr) const
    {
        Addr w = byteAddr / 4;
        panic_if(w >= image_.size(), "DRAM read beyond image: %llu",
                 static_cast<unsigned long long>(byteAddr));
        return image_[w];
    }
    void
    writeWord(Addr byteAddr, Word w)
    {
        Addr idx = byteAddr / 4;
        panic_if(idx >= image_.size(), "DRAM write beyond image: %llu",
                 static_cast<unsigned long long>(byteAddr));
        image_[idx] = w;
    }
    Addr sizeBytes() const { return image_.size() * sizeof(Word); }

    template <class Ar>
    void
    serializeState(Ar &ar)
    {
        for (DramChannel &c : channels_)
            c.serializeState(ar);
        io(ar, image_);
    }

  private:
    DramParams params_;
    std::vector<DramChannel> channels_;
    std::vector<Word> image_;
};

} // namespace plast

#endif // PLAST_SIM_DRAM_HPP
