/**
 * @file
 * Statically routed streams: the simulator's model of one configured bus
 * on the scalar / vector / control network (§3.3).
 *
 * A stream is a pipeline of `latency` switch-hop registers feeding a
 * receiver FIFO of `capacity` entries. Producers see two-phase
 * semantics: pushes and pops staged during evaluate() become visible at
 * commit(), matching synchronous RTL. A stream sustains one element per
 * cycle; backpressure appears when in-flight + queued elements reach
 * latency + capacity.
 *
 * Control channels are Stream<Token> with optional pre-loaded tokens,
 * which is how credits (§3.5) are expressed: a credit is a token on a
 * reverse channel with a nonzero initial count.
 *
 * Streams are SimObjects: under the activity-driven scheduler a stream
 * commits only on cycles where traffic was staged or an in-flight
 * element is due to arrive; each commit reports delivery/drain effects
 * so the scheduler can wake the consumer/producer unit, and re-arms a
 * timer for the next pending arrival.
 *
 * Storage is one ring of {arrival, value} slots split by cursors into
 * receiver FIFO, in-flight and staged regions: an element is written
 * once at push and read in place at front(), and commit() only moves
 * cursors (DESIGN.md §8).
 */

#ifndef PLAST_SIM_STREAM_HPP
#define PLAST_SIM_STREAM_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "base/logging.hpp"
#include "base/stateio.hpp"
#include "base/types.hpp"
#include "sim/scheduler.hpp"
#include "sim/simobject.hpp"

namespace plast
{

/** A unit control pulse. */
struct Token
{
};

/** Tokens carry no payload — nothing on the checkpoint tape. */
template <class Ar>
void
io(Ar &, Token &)
{
}

/** Untyped stream interface: endpoint binding, statistics, and the
 *  scheduler bookkeeping shared by all element types. */
class StreamBase : public SimObject
{
  public:
    StreamBase(std::string name, uint32_t latency, uint32_t capacity)
        : name_(std::move(name)), latency_(latency == 0 ? 1 : latency),
          capacity_(capacity == 0 ? 1 : capacity)
    {
    }

    const std::string &name() const { return name_; }
    uint32_t latency() const { return latency_; }

    struct Stats
    {
        uint64_t pushes = 0; ///< elements staged by the producer
        uint64_t pops = 0;   ///< elements consumed
        /** Max in-flight + queued occupancy ever observed. */
        uint64_t peakOccupancy = 0;
        /** Total element-cycles spent stalled behind a full receiver
         *  FIFO (cycles delivered past the unobstructed arrival). */
        uint64_t fullStallCycles = 0;

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            io(ar, pushes);
            io(ar, pops);
            io(ar, peakOccupancy);
            io(ar, fullStallCycles);
        }
    };
    const Stats &stats() const { return stats_; }

    /** Endpoint binding (wake routing; set by the fabric). */
    void bindProducer(SimObject *u) { producer_ = u; }
    void bindConsumer(SimObject *u) { consumer_ = u; }
    void bindHostSlot(int32_t slot) { hostSlot_ = slot; }
    SimObject *producer() const { return producer_; }
    SimObject *consumer() const { return consumer_; }
    int32_t hostSlot() const { return hostSlot_; }

    virtual bool quiescent() const = 0;
    /** Receiver-FIFO elements currently poppable (diagnostics). */
    virtual size_t available() const = 0;

  protected:
    /** Request a commit at the next commit phase (push/pop staged). */
    void
    markDirty()
    {
        if (sched())
            sched()->streamDirty(this);
    }

    std::string name_;
    uint32_t latency_;
    uint32_t capacity_;
    Stats stats_;
    /** Last occupancy traced, so counter samples fire on change only. */
    uint64_t lastTracedOcc_ = 0;

  private:
    friend class Scheduler;
    SimObject *producer_ = nullptr;
    SimObject *consumer_ = nullptr;
    int32_t hostSlot_ = -1;     ///< argOut slot when host-bound
    bool inDirty_ = false;      ///< queued for the next commit phase
    Cycles armedAt_ = kNeverCycle; ///< pending arrival timer cycle
};

template <typename T>
class Stream : public StreamBase
{
  public:
    using StreamBase::StreamBase;

    /** Producer side: may we push this cycle? */
    bool
    canPush() const
    {
        return tail_ - head_ < latency_ + capacity_;
    }

    /** Stage a push; the element arrives `latency` cycles later. */
    void
    push(const T &v)
    {
        panic_if(!canPush(), "stream %s: push on full stream",
                 name_.c_str());
        if (tail_ - head_ == slots_.size())
            grow();
        at(tail_++).value = v;
        ++stats_.pushes;
        markDirty();
    }

    /** Consumer side: is an element available this cycle? */
    bool
    canPop() const
    {
        return delivered_ - head_ > stagedPops_;
    }

    size_t
    available() const override
    {
        return canPop() ? delivered_ - head_ - stagedPops_ : 0;
    }

    const T &
    front() const
    {
        panic_if(!canPop(), "stream %s: front on empty stream",
                 name_.c_str());
        return at(head_ + stagedPops_).value;
    }

    void
    pop()
    {
        panic_if(!canPop(), "stream %s: pop on empty stream",
                 name_.c_str());
        ++stagedPops_;
        ++stats_.pops;
        markDirty();
    }

    /** Seed tokens (credits) before simulation starts. */
    void
    preload(const T &v)
    {
        insert(delivered_, Slot{0, v});
        ++delivered_;
        ++committed_;
    }

    /** Commit phase: apply staged pops/pushes and advance arrivals. */
    CommitResult
    commit(Cycles now) override
    {
        CommitResult res;
        if (stagedPops_ > 0) {
            res.drained = true;
            head_ += stagedPops_;
            stagedPops_ = 0;
        }
        for (; committed_ != tail_; ++committed_)
            at(committed_).arrival = now + latency_;
        while (delivered_ != committed_ &&
               at(delivered_).arrival <= now + 1 &&
               delivered_ - head_ < capacity_) {
            stats_.fullStallCycles += now + 1 - at(delivered_).arrival;
            ++delivered_;
            res.delivered = true;
        }
        uint64_t occ = committed_ - head_;
        if (occ > stats_.peakOccupancy)
            stats_.peakOccupancy = occ;
        if (trace_ && occ != lastTracedOcc_) {
            lastTracedOcc_ = occ;
            traceCounter(trace_, traceTrack_, TraceName::kOccupancy,
                         now + 1, occ);
        }
        // A stalled arrival (due but the FIFO is full) needs no timer:
        // the consumer's pop dirties the stream and the same commit
        // both frees the slot and moves the element in.
        if (delivered_ != committed_ && at(delivered_).arrival > now + 1)
            res.nextArrival = at(delivered_).arrival - 1;
        return res;
    }

    /** Dense-tick compatibility: commit unconditionally. */
    void tick(Cycles now) { commit(now); }

    bool quiescent() const override { return tail_ == head_; }

    /**
     * Fault injection: silently lose one element (a switch-register
     * upset swallowing a token). Prefers the delivered queue. Returns
     * false when the stream is empty.
     */
    bool
    injectDrop()
    {
        if (head_ == committed_)
            return false;
        // An empty queue means the head is the oldest in-flight slot.
        if (head_ == delivered_)
            ++delivered_;
        ++head_;
        return true;
    }

    /** Fault injection: replay (duplicate) the head element. */
    bool
    injectDuplicate()
    {
        if (delivered_ != head_ && delivered_ - head_ < capacity_) {
            insert(delivered_, at(head_));
            ++delivered_;
            ++committed_;
            return true;
        }
        if (committed_ != delivered_) {
            insert(committed_, at(committed_ - 1));
            ++committed_;
            return true;
        }
        return false;
    }

    /**
     * Checkpoint the stream. Only legal at a cycle boundary, where
     * staged traffic is provably empty (every push/pop commits in the
     * same cycle it was staged). The tape holds the in-flight count and
     * (arrival, value) pairs, then the queue count and values.
     */
    template <class Ar>
    void
    serializeState(Ar &ar)
    {
        panic_if(committed_ != tail_ || stagedPops_ != 0,
                 "stream %s: checkpoint with staged traffic",
                 name_.c_str());
        if constexpr (Ar::kSaving) {
            uint64_t n = committed_ - delivered_;
            io(ar, n);
            for (uint32_t c = delivered_; c != committed_; ++c)
                io(ar, at(c));
            n = delivered_ - head_;
            io(ar, n);
            for (uint32_t c = head_; c != delivered_; ++c)
                io(ar, at(c).value);
        } else {
            std::vector<Slot> flight;
            io(ar, flight);
            uint64_t queued = 0;
            io(ar, queued);
            head_ = delivered_ = committed_ = tail_ = 0;
            while (slots_.size() < queued + flight.size())
                grow();
            for (; delivered_ != queued; ++delivered_)
                io(ar, at(delivered_).value);
            committed_ = delivered_;
            for (Slot &s : flight)
                at(committed_++) = std::move(s);
            tail_ = committed_;
        }
        io(ar, stats_);
    }

  private:
    struct Slot
    {
        Cycles arrival; ///< cycle the element reaches the receiver
        T value;

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            io(ar, arrival);
            io(ar, value);
        }
    };

    Slot &at(uint32_t c) { return slots_[c & (slots_.size() - 1)]; }
    const Slot &
    at(uint32_t c) const
    {
        return slots_[c & (slots_.size() - 1)];
    }

    /** Double the ring (lazily: it only grows on a full push). Cursors
     *  are free-running, so each slot just moves to its new index. */
    void
    grow()
    {
        std::vector<Slot> next(slots_.empty() ? 4 : slots_.size() * 2);
        for (uint32_t c = head_; c != tail_; ++c)
            next[c & (next.size() - 1)] = std::move(at(c));
        slots_ = std::move(next);
    }

    /** Insert `s` before cursor `pos`, shifting [pos, tail) back one
     *  slot. The caller advances the cursors the new slot lies behind.
     *  Only the rare preload and fault paths insert. */
    void
    insert(uint32_t pos, Slot s)
    {
        if (tail_ - head_ == slots_.size())
            grow();
        for (uint32_t c = tail_; c != pos; --c)
            at(c) = std::move(at(c - 1));
        at(pos) = std::move(s);
        ++tail_;
    }

    /**
     * One power-of-two ring; free-running cursors split it into
     * [head, delivered): the receiver FIFO (front at head + stagedPops),
     * [delivered, committed): in flight, stamped with arrival cycles,
     * [committed, tail): pushes staged this cycle.
     */
    std::vector<Slot> slots_;
    uint32_t head_ = 0;
    uint32_t delivered_ = 0;
    uint32_t committed_ = 0;
    uint32_t tail_ = 0;
    uint32_t stagedPops_ = 0;
};

using ScalarStream = Stream<Word>;
using VectorStream = Stream<Vec>;
using ControlStream = Stream<Token>;

} // namespace plast

#endif // PLAST_SIM_STREAM_HPP
