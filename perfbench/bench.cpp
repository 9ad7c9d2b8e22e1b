/**
 * @file
 * End-to-end benchmark for plasticine-sim.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--spans <file>]
 *
 * A run repeats (set-up, pass) until --seconds have elapsed and reports
 * timings of the best pass. With --trace 0 every pass runs with the
 * library's host profiler off and the end-to-end metrics are printed.
 * With --trace 1 untraced and traced passes alternate: the fastest traced
 * pass gives the per-layer metrics, and the two kinds together give the
 * tracing overhead; --spans writes that pass's spans. The last line of
 * stdout is one JSON object; README.md defines every metric.
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.hpp"
#include "base/profile.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace
{

using namespace perfbench;
using plast::HostProfiler;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spansPath;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <file>]\n"
                 "workloads:";
    for (const std::string &w : kWorkloadNames)
        std::cerr << ' ' << w;
    std::cerr << '\n';
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                usage("bad --seed " + v);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(a.seconds > 0 && a.seconds <= 3600))
                usage("bad --seconds " + v);
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("bad --trace " + v);
            a.trace = v == "1";
        } else if (flag == "--spans") {
            a.spansPath = v;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

/** Linear-interpolated percentile (q in [0, 1]); 0 for no samples. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** Peak resident set of this process image. (getrusage's ru_maxrss
 *  would carry over the launcher's peak across execve.) */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** The per-layer metrics of one traced pass. */
std::vector<Metric>
layerMetrics(const PassResult &r, const PassProfile &pass,
             const PassProfile &setup)
{
    std::vector<Metric> out;
    auto add = [&](std::string name, const char *unit, double value) {
        out.push_back({std::move(name), value, unit});
    };
    auto tot = [&](const PassProfile &p, const char *name) {
        auto it = p.totalS.find(name);
        return it == p.totalS.end() ? 0.0 : it->second;
    };
    const SimCounters &c = r.sim;
    double runS = tot(pass, "sim.run");
    add("sim.run_s", "s", runS);
    add("sim.build_s", "s", tot(pass, "host.build-fabric"));
    add("sim.plan_build_s", "s",
           tot(pass, "sim.plan-build") + tot(pass, "sim.build-units"));
    add("sim.ns_per_step", "ns",
           ratio(runS * 1e9, static_cast<double>(c.totalSteps())));
    add("sim.cycles", "count", static_cast<double>(c.cycles));
    static const char *kClasses[] = {"pcu", "pmu", "ag", "box"};
    for (size_t k = 0; k < 4; ++k) {
        add(std::string("sim.unit_steps.") + kClasses[k], "count",
               static_cast<double>(c.steps[k]));
    }
    add("sim.asleep_frac", "frac",
           1.0 - ratio(static_cast<double>(c.totalSteps()),
                       static_cast<double>(c.unitCycles)));
    add("sim.mem.bursts", "count", static_cast<double>(c.bursts));
    add("sim.mem.coalesced_lanes", "count",
           static_cast<double>(c.coalescedLanes));
    add("sim.ag.sparse_vecs", "count", static_cast<double>(c.sparseVecs));
    add("sim.dram.bus_busy_frac", "frac",
           ratio(static_cast<double>(c.busBusy),
                 static_cast<double>(c.channelCycles)));
    add("sim.dram.row_miss_frac", "frac",
           ratio(static_cast<double>(c.rowMisses),
                 static_cast<double>(c.rowHits + c.rowMisses)));

    add("pir.reference_s", "s", tot(pass, "host.reference"));
    add("runtime.compare_s", "s", tot(pass, "runtime.compare"));

    add("compiler.compile_s", "s", tot(pass, "host.compile"));
    add("compiler.precheck_s", "s", tot(pass, "compile.precheck"));
    add("compiler.partition_s", "s", tot(pass, "compile.partition"));
    add("compiler.codegen_s", "s", tot(pass, "compile.codegen"));
    add("compiler.placeroute_s", "s", tot(pass, "compile.placeroute"));
    add("compiler.routed_hops", "count",
           static_cast<double>(r.routedHops));
    add("compiler.route_rounds", "count",
           static_cast<double>(r.routeRounds));

    add("serve.wait_ms.p50", "ms", percentile(r.waitMs, 0.5));
    add("serve.wait_ms.p95", "ms", percentile(r.waitMs, 0.95));
    add("serve.exec_ms.p50", "ms", percentile(r.execMs, 0.5));
    add("serve.worker_busy_frac", "frac",
           ratio(r.execS, r.workers * r.wallS));
    add("serve.cache.config.hit_frac", "frac", r.configHitFrac);
    add("serve.cache.result.hit_frac", "frac", r.resultHitFrac);

    add("apps.make_s", "s", tot(setup, "apps.make"));
    add("runtime.load_s", "s", tot(setup, "runtime.load"));

    // Self time over set-up and pass, so set-up layers (apps) show too.
    for (size_t l = 0; l < kNumLayers; ++l) {
        add(std::string("self_s.") + layerName(static_cast<Layer>(l)), "s",
            pass.selfS[l] + setup.selfS[l]);
    }
    add("trace_self_coverage_frac", "frac", pass.coverage);
    add("trace_wall_s", "s", r.wallS);
    return out;
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

int
run(const Args &args)
{
    Tracer tracer;
    std::unique_ptr<Workload> wl =
        makeWorkload(args.workload, args.seed, tracer);
    if (!wl)
        usage("unknown workload " + args.workload);

    HostProfiler &prof = HostProfiler::instance();
    const uint32_t mainTid = HostProfiler::currentTid();
    const size_t minPasses = args.trace ? 4 : 3;

    std::vector<PassResult> passes; ///< untraced
    std::vector<double> setupS;     ///< untraced
    std::vector<double> tracedWall;
    std::vector<Metric> layers;     ///< of the fastest traced pass
    std::vector<Span> layerSpans;   ///< of the same pass

    auto start = std::chrono::steady_clock::now();
    for (size_t p = 0;; ++p) {
        // Traced and untraced passes alternate, untraced first.
        bool traced = args.trace && p % 2 == 1;
        prof.setEnabled(traced);
        prof.clear();
        tracer.setOn(traced);

        uint64_t setupBeginUs = Tracer::nowUs();
        auto t0 = std::chrono::steady_clock::now();
        wl->setup();
        double setup = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
        uint64_t setupEndUs = Tracer::nowUs();
        PassResult r = wl->pass();
        tracer.setOn(false);
        prof.setEnabled(false);
        wl->teardown();

        if (traced) {
            std::vector<Span> spans = tracer.take();
            std::vector<Span> host = importHostSpans(setupBeginUs);
            spans.insert(spans.end(), host.begin(), host.end());
            link(spans);
            if (tracedWall.empty() ||
                r.wallS < *std::min_element(tracedWall.begin(),
                                            tracedWall.end())) {
                layers = layerMetrics(
                    r, summarize(spans, mainTid, r.beginUs, r.endUs),
                    summarize(spans, mainTid, setupBeginUs, setupEndUs));
                layerSpans = std::move(spans);
            }
            tracedWall.push_back(r.wallS);
        } else {
            setupS.push_back(setup);
        }
        // Traced passes count as attempted work and are checked too.
        passes.push_back(std::move(r));

        double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        if (passes.size() >= minPasses && elapsed >= args.seconds)
            break;
    }

    if (!args.spansPath.empty()) {
        std::ofstream out(args.spansPath);
        writeSpans(out, layerSpans);
        if (!out.flush()) {
            std::cerr << "perfbench: cannot write " << args.spansPath << '\n';
            return 1;
        }
    }

    // ---- reduce ------------------------------------------------------
    // Timings are the best (smallest) over passes, and job latency
    // percentiles are taken over each job's best latency: on a shared
    // machine the noise is machine-wide slow phases of several seconds,
    // which move a median over a run by far more than they move its
    // minimum (README.md, "Why the best pass").
    bool correct = true;
    uint64_t attempted = 0, failed = 0;
    std::set<std::string> failures;
    std::vector<double> wall;
    std::vector<double> jobBest; ///< per job, best over passes
    for (size_t p = 0; p < passes.size(); ++p) {
        const PassResult &r = passes[p];
        attempted += r.attempted;
        failed += r.failed;
        failures.insert(r.failures.begin(), r.failures.end());
        // Same seed, same jobs: every pass must simulate exactly the
        // same cycles and counters.
        if (r.sim.cycles != passes[0].sim.cycles ||
            r.digest != passes[0].digest) {
            correct = false;
            std::printf("NONDETERMINISTIC pass %zu: simulated state differs "
                        "from pass 0\n",
                        p);
        }
        if (args.trace && p % 2 == 1)
            continue;
        wall.push_back(r.wallS);
        // Same seed, same job list in the same order every pass.
        if (jobBest.empty())
            jobBest = r.jobMs;
        for (size_t j = 0; j < jobBest.size() && j < r.jobMs.size(); ++j)
            jobBest[j] = std::min(jobBest[j], r.jobMs[j]);
    }
    auto best = [](const std::vector<double> &v) {
        return *std::min_element(v.begin(), v.end());
    };

    const PassResult &first = passes[0];
    std::vector<Metric> endToEnd = {
        {"wall_s", best(wall), "s"},
        {"sim_cycles_per_s",
         static_cast<double>(first.sim.cycles) / best(wall), "1/s"},
        {"job_ms.p50", percentile(jobBest, 0.5), "ms"},
        {"job_ms.p95", percentile(jobBest, 0.95), "ms"},
        {"setup_s", best(setupS), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    if (args.trace) {
        layers.push_back({"trace_overhead_frac",
                          best(tracedWall) / best(wall) - 1.0, "frac"});
    }

    // ---- report --------------------------------------------------------
    std::printf("workload %s seed %" PRIu64 " passes %zu (%zu traced)\n",
                args.workload.c_str(), args.seed, passes.size(),
                tracedWall.size());
    for (const Metric &m : endToEnd)
        std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  timings: best of %zu untraced passes; job_ms percentiles "
                "over the best latency of each of %zu jobs\n  pass wall_s:",
                wall.size(), jobBest.size());
    for (double w : wall)
        std::printf(" %.4g", w);
    std::printf("\n");
    std::printf("  jobs_failed_frac %.6g (%" PRIu64 " of %" PRIu64 ")\n",
                ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)),
                failed, attempted);
    std::printf("  sim.cycles %" PRIu64 " counter digest %016" PRIx64 "\n",
                first.sim.cycles, first.digest);
    for (const std::string &f : failures)
        std::printf("  FAILED %s\n", f.c_str());
    for (const Metric &m : layers)
        std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    const std::vector<Metric> &shown = args.trace ? layers : endToEnd;
    std::string json = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (size_t i = 0; i < shown.size(); ++i) {
        json += (i ? ", \"" : "\"") + shown[i].name + "\": {\"value\": " +
                jsonNumber(shown[i].value) + ", \"unit\": \"" +
                shown[i].unit + "\"}";
    }
    json += "}}";
    std::cout << json << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    plast::setVerbose(false);
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 1;
    }
}
