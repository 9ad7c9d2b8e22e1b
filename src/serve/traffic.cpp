#include "serve/traffic.hpp"

#include "base/rng.hpp"

namespace plast::serve
{

namespace
{

JobSpec
specForUnique(size_t u, apps::Scale scale)
{
    const auto &registry = apps::allApps();
    size_t napps = registry.size();
    const apps::AppSpec &app = registry[u % napps];
    size_t variant = u / napps;

    apps::AppInstance inst = app.make(scale);
    JobSpec spec;
    spec.source =
        "app:" + app.name + "/v" + std::to_string(variant);
    spec.prog = std::move(inst.prog);
    spec.load = std::move(inst.load);
    // Variant wraps: identical program + arch (config cache hit) with
    // a distinct cycle budget (distinct options hash -> result cache
    // miss). 1e9 + variant dwarfs any tiny-scale runtime, so every
    // variant's outcome is bit-identical.
    if (variant > 0)
        spec.maxCycles = 1'000'000'000ull + variant;
    return spec;
}

} // namespace

std::vector<JobSpec>
makeTraffic(const TrafficOptions &opts)
{
    std::vector<JobSpec> uniques;
    uniques.reserve(opts.uniques);
    for (size_t u = 0; u < opts.uniques; ++u)
        uniques.push_back(specForUnique(u, opts.scale));

    Rng rng(opts.seed * 0x9e3779b97f4a7c15ull + 0x5e57e);
    std::vector<JobSpec> out;
    out.reserve(opts.jobs);
    for (size_t j = 0; j < opts.jobs; ++j) {
        size_t u = j < opts.uniques
                       ? j
                       : static_cast<size_t>(
                             rng.nextBounded(opts.uniques));
        out.push_back(uniques[u]);
        JobSpec &spec = out.back();
        if (opts.tenants > 1) {
            // Built with append, not operator+: GCC 12 at -O3 draws a
            // false -Wrestrict from the inlined "t" + std::string copy.
            std::string tenant = "t";
            tenant.append(std::to_string(u % opts.tenants));
            spec.tenant = std::move(tenant);
        }
        if (!opts.deadlineSweepMs.empty())
            spec.deadlineMs =
                opts.deadlineSweepMs[j % opts.deadlineSweepMs.size()];
        if (opts.faultEvery && j % opts.faultEvery ==
                                   opts.faultEvery - 1) {
            // A distinct seed per submission: faulted duplicates are
            // distinct executions, and the source suffix keeps the
            // replay join exact.
            spec.faultSeed = opts.seed * 1'000'003ull + j + 1;
            spec.faultRate = opts.faultRate;
            spec.faultHard = opts.includeHard;
            spec.source.append("/f").append(
                std::to_string(spec.faultSeed));
        }
    }
    return out;
}

} // namespace plast::serve
