#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>

#include "base/logging.hpp"
#include "sim/stream.hpp"

namespace plast
{

void
Scheduler::addUnit(SimObject *u)
{
    u->sched_ = this;
    u->seq_ = nextSeq_++;
    u->inRun_ = true;
    run_.push_back(u);
    allUnits_.push_back(u);
}

void
Scheduler::addMem(SimObject *m)
{
    m->sched_ = this;
    m->seq_ = nextSeq_++;
    mem_ = m;
}

void
Scheduler::addStream(StreamBase *s)
{
    s->sched_ = this;
    s->seq_ = nextSeq_++;
    allStreams_.push_back(s);
    // Timers sit at most latency - 1 cycles ahead: a wheel larger
    // than every latency never aliases two live cycles in one bucket.
    if (s->latency() >= wheel_.size()) {
        panic_if(timers_ != 0, "stream registered with timers armed");
        wheel_.resize(std::bit_ceil(size_t{s->latency()} + 1));
    }
}

void
Scheduler::rearmAll()
{
    for (SimObject *u : allUnits_)
        u->wakeQueued_ = false;
    wakePending_.clear();
    run_ = allUnits_; // registration order == seq order
    for (SimObject *u : run_)
        u->inRun_ = true;
    dirty_.clear();
    for (auto &bucket : wheel_)
        bucket.clear();
    timers_ = 0;
    for (StreamBase *s : allStreams_)
    {
        s->inDirty_ = false;
        s->armedAt_ = kNeverCycle;
        streamDirty(s);
    }
    // The memory phase polls itself back to quiescence.
    memBusy_ = mem_ != nullptr;
    memWork_ = false;
}

void
Scheduler::streamDirty(StreamBase *s)
{
    if (s->inDirty_)
        return;
    s->inDirty_ = true;
    dirty_.push_back(s);
}

void
Scheduler::scheduleArrival(Cycles cycle, StreamBase *s)
{
    if (s->armedAt_ == cycle)
        return;
    panic_if(cycle <= curCycle_ || cycle - curCycle_ >= wheel_.size(),
             "stream %s: arrival at cycle %llu is off the timing wheel",
             s->name().c_str(), static_cast<unsigned long long>(cycle));
    s->armedAt_ = cycle;
    wheel_[cycle & (wheel_.size() - 1)].push_back(s);
    ++timers_;
}

void
Scheduler::applyWakes()
{
    if (wakePending_.empty())
        return;
    woken_.clear();
    for (SimObject *u : wakePending_) {
        u->wakeQueued_ = false;
        if (!u->inRun_) {
            u->inRun_ = true;
            woken_.push_back(u);
        }
    }
    wakePending_.clear();
    if (woken_.empty())
        return;
    // run_ is already seq-sorted: sort only the newcomers and merge.
    auto bySeq = [](const SimObject *a, const SimObject *b) {
        return a->seq_ < b->seq_;
    };
    std::sort(woken_.begin(), woken_.end(), bySeq);
    merged_.resize(run_.size() + woken_.size());
    std::merge(run_.begin(), run_.end(), woken_.begin(), woken_.end(),
               merged_.begin(), bySeq);
    run_.swap(merged_);
}

void
Scheduler::runCycle(Cycles now)
{
    curCycle_ = now;

    // Due arrival timers feed this cycle's commit phase. Callers never
    // step past a pending timer (fast-forward stops at
    // nextEventCycle()), so this cycle's bucket holds every due entry.
    if (timers_ != 0) {
        std::vector<StreamBase *> &bucket =
            wheel_[now & (wheel_.size() - 1)];
        for (StreamBase *s : bucket) {
            if (s->armedAt_ == now)
                s->armedAt_ = kNeverCycle;
            streamDirty(s);
        }
        timers_ -= bucket.size();
        bucket.clear();
    }

    // Phase 1: evaluate awake units in deterministic order. A unit is
    // dropped from the active set the moment it reports kBlocked; wake
    // events queued during its own evaluate (memory-submit retry) are
    // honored via wakeQueued_.
    progress_ = false;
    size_t keep = 0;
    for (size_t i = 0; i < run_.size(); ++i) {
        SimObject *u = run_[i];
        u->inRun_ = false;
        Activity a = u->evaluate(now);
        if (a == Activity::kActive) {
            u->inRun_ = true;
            run_[keep++] = u;
            progress_ = true;
        } else {
            traceInstant(trace_, u->traceTrack(), TraceName::kSleep, now);
        }
    }
    run_.resize(keep);

    // Phase 2: the memory system (coalescing units + DRAM timing) runs
    // on submit cycles and then polls itself while non-quiescent.
    if (mem_ && (memBusy_ || memWork_)) {
        memWork_ = false;
        memBusy_ = (mem_->evaluate(now) == Activity::kActive);
        if (memBusy_)
            progress_ = true;
    }

    // Phase 3: commit dirty streams; route wakes. Dirt created from
    // here on (e.g. host-sink pops) belongs to the next cycle.
    deliveredHost_.clear();
    commitRun_.swap(dirty_);
    for (StreamBase *s : commitRun_)
        s->inDirty_ = false;
    for (StreamBase *s : commitRun_) {
        CommitResult r = s->commit(now);
        if (r.delivered) {
            if (s->consumer_)
                wakeUnit(s->consumer_);
            if (s->hostSlot_ >= 0)
                deliveredHost_.push_back(s);
        }
        if (r.drained && s->producer_)
            wakeUnit(s->producer_);
        if (r.nextArrival != kNeverCycle)
            scheduleArrival(r.nextArrival, s);
    }
    commitRun_.clear();

    applyWakes();

    if (trace_ && run_.size() != lastActiveSet_) {
        lastActiveSet_ = run_.size();
        trace_->counter(traceTrack_, TraceName::kActiveSet, now,
                        run_.size());
    }
}

bool
Scheduler::idle() const
{
    return run_.empty() && wakePending_.empty() && dirty_.empty() &&
           timers_ == 0 && !memBusy_ && !memWork_;
}

bool
Scheduler::canFastForward() const
{
    return run_.empty() && wakePending_.empty() && dirty_.empty() &&
           !memBusy_ && !memWork_ && timers_ != 0;
}

Cycles
Scheduler::nextEventCycle() const
{
    // Live timers lie in (curCycle_, curCycle_ + wheel size).
    for (size_t d = 1; timers_ != 0 && d < wheel_.size(); ++d) {
        if (!wheel_[(curCycle_ + d) & (wheel_.size() - 1)].empty())
            return curCycle_ + d;
    }
    return kNeverCycle;
}

} // namespace plast
