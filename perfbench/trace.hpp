/**
 * @file
 * The benchmark's own span recorder. Spans wrap the public calls the
 * benchmark makes into each layer (apps::make*, Runner::tryCompile,
 * Server::submit, ...); after a traced pass the phase spans that the
 * library's HostProfiler already records (compile.*, host.build-fabric,
 * sim.plan-build, sim.run, host.reference) are imported beside them.
 * Parents are assigned by containment on each thread's timeline, so a
 * layer's self time is its span's duration minus what its child spans
 * cover. Spans stay in memory and are written out when the run ends.
 */

#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

/** The repository modules a span can belong to. */
enum class Layer
{
    kApps,
    kRuntime,
    kCompiler,
    kSim,
    kPir,
    kServe,
};
constexpr size_t kNumLayers = 6;

const char *layerName(Layer layer);
/** Layer of a span name: the benchmark's own names carry the layer as
 *  their first component; the library's host.* phases are mapped. */
Layer layerOf(const std::string &name);

struct Span
{
    std::string name;
    uint64_t job = 0; ///< shared by all spans of one job (0 = none)
    uint32_t tid = 0; ///< HostProfiler dense thread id
    uint64_t beginUs = 0;
    uint64_t endUs = 0;
    int parent = -1; ///< index into the same vector, set by analyze()
    double selfUs = 0;
};

/** Thread-safe in-memory span sink, on only during traced passes. */
class Tracer
{
  public:
    bool on() const { return on_.load(std::memory_order_relaxed); }
    void setOn(bool on) { on_.store(on, std::memory_order_relaxed); }

    /** Microseconds on the HostProfiler clock, so imported library
     *  spans share the time base. */
    static uint64_t nowUs();

    /** Record a finished span on the calling thread. */
    void record(const char *name, uint64_t job, uint64_t beginUs,
                uint64_t endUs);

    /** Move out everything recorded so far. */
    std::vector<Span> take();

  private:
    std::atomic<bool> on_{false};
    std::mutex mu_;
    std::vector<Span> spans_;
};

/** RAII span; records nothing while the tracer is off. */
class Traced
{
  public:
    Traced(Tracer &tr, const char *name, uint64_t job = 0);
    ~Traced();

    Traced(const Traced &) = delete;
    Traced &operator=(const Traced &) = delete;

  private:
    Tracer &tr_;
    const char *name_;
    uint64_t job_;
    uint64_t beginUs_ = 0;
};

/** The HostProfiler spans that began at or after `sinceUs`. */
std::vector<Span> importHostSpans(uint64_t sinceUs);

/** What one traced pass spent, by layer and by span name. */
struct PassProfile
{
    std::array<double, kNumLayers> selfS{}; ///< over every thread
    /** Self time of the spans on the measuring thread inside
     *  [beginUs, endUs), as a share of that interval. */
    double coverage = 0;
    std::map<std::string, double> totalS; ///< span duration by name
};

/** Assign parents, inherited job ids and self times by containment.
 *  Call once per set of spans. */
void link(std::vector<Span> &spans);

/** Totals of the linked spans that lie inside [beginUs, endUs]. */
PassProfile summarize(const std::vector<Span> &spans, uint32_t mainTid,
                      uint64_t beginUs, uint64_t endUs);

/** One JSON object per line: name, layer, job, tid, begin, end,
 *  parent (line index, -1 for none), self time. */
void writeSpans(std::ostream &os, const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP
