/**
 * @file
 * The four benchmark workloads (README.md says why each exists). Each
 * one drives the library only through its public entry points with the
 * library defaults: apps::make* and Runner for the apps-* workloads,
 * serve::Server for serve-sweep.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/stats.hpp"
#include "trace.hpp"

namespace perfbench
{

/** Architectural counters of the jobs of one pass, reduced to the
 *  per-layer numbers the benchmark reports. */
struct SimCounters
{
    uint64_t cycles = 0;
    std::array<uint64_t, 4> steps{}; ///< pcu, pmu, ag, box
    uint64_t unitCycles = 0; ///< units x cycles, per job
    uint64_t bursts = 0;
    uint64_t coalescedLanes = 0;
    uint64_t sparseVecs = 0;
    uint64_t busBusy = 0;
    uint64_t channelCycles = 0; ///< DRAM channels x cycles, per job
    uint64_t rowHits = 0;
    uint64_t rowMisses = 0;

    void add(const plast::StatSet &stats, uint64_t jobCycles);
    uint64_t totalSteps() const
    {
        return steps[0] + steps[1] + steps[2] + steps[3];
    }
};

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;
/** FNV-1a over every counter except the engine-specific trace.*. */
uint64_t foldCounters(uint64_t h, const std::string &job,
                      const plast::StatSet &stats);

struct PassResult
{
    double wallS = 0; ///< the timed part of the pass
    uint64_t beginUs = 0; ///< the same interval on the span clock
    uint64_t endUs = 0;
    std::vector<double> jobMs; ///< per-job latency, in job-list order
    uint64_t attempted = 0;
    uint64_t failed = 0; ///< failed, refused or mismatched jobs
    std::vector<std::string> failures; ///< one message per failed job
    SimCounters sim; ///< over the jobs that were simulated
    uint64_t digest = kFnvBasis;
    uint64_t routedHops = 0;
    uint64_t routeRounds = 0;

    // serve-sweep only
    std::vector<double> waitMs;
    std::vector<double> execMs;
    double execS = 0; ///< summed worker execution time
    uint32_t workers = 0;
    double configHitFrac = 0;
    double resultHitFrac = 0;
};

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Build the job list (and start the server); timed as setup_s. */
    virtual void setup() = 0;
    /** One pass over the jobs the last setup() built; bookkeeping
     *  after the last job is left out of its wall time. */
    virtual PassResult pass() = 0;
    /** Release what the pass left behind (untimed). */
    virtual void teardown() {}
};

extern const std::vector<std::string> kWorkloadNames;

/** Null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
