#include "trace.hpp"

#include <algorithm>
#include <numeric>

#include "base/profile.hpp"

namespace perfbench
{

using plast::HostProfiler;

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::kApps: return "apps";
      case Layer::kRuntime: return "runtime";
      case Layer::kCompiler: return "compiler";
      case Layer::kSim: return "sim";
      case Layer::kPir: return "pir";
      case Layer::kServe: return "serve";
    }
    return "?";
}

Layer
layerOf(const std::string &name)
{
    std::string head = name.substr(0, name.find('.'));
    if (head == "apps")
        return Layer::kApps;
    if (head == "compiler" || head == "compile" || name == "host.compile")
        return Layer::kCompiler;
    if (head == "pir" || name == "host.reference")
        return Layer::kPir;
    if (head == "serve")
        return Layer::kServe;
    if (head == "runtime")
        return Layer::kRuntime;
    // sim.* phases and host.build-fabric (fabric + plan construction).
    return Layer::kSim;
}

uint64_t
Tracer::nowUs()
{
    return HostProfiler::instance().nowUs();
}

void
Tracer::record(const char *name, uint64_t job, uint64_t beginUs,
               uint64_t endUs)
{
    Span s;
    s.name = name;
    s.job = job;
    s.tid = HostProfiler::currentTid();
    s.beginUs = beginUs;
    s.endUs = std::max(beginUs, endUs);
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(s));
}

std::vector<Span>
Tracer::take()
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<Span> out;
    out.swap(spans_);
    return out;
}

Traced::Traced(Tracer &tr, const char *name, uint64_t job)
    : tr_(tr), name_(name), job_(job)
{
    if (tr_.on())
        beginUs_ = Tracer::nowUs();
}

Traced::~Traced()
{
    if (tr_.on())
        tr_.record(name_, job_, beginUs_, Tracer::nowUs());
}

std::vector<Span>
importHostSpans(uint64_t sinceUs)
{
    std::vector<Span> out;
    for (const HostProfiler::Span &h : HostProfiler::instance().spans()) {
        if (h.beginUs < sinceUs)
            continue;
        Span s;
        s.name = h.name;
        s.tid = h.tid;
        s.beginUs = h.beginUs;
        s.endUs = h.endUs;
        out.push_back(std::move(s));
    }
    return out;
}

void
link(std::vector<Span> &spans)
{
    // Outer spans first: earlier begin, then later end. A span's parent
    // is the innermost open span on its thread that still covers its
    // midpoint (the midpoint tolerates the microsecond rounding of
    // spans whose bounds are reconstructed, such as serve.exec).
    std::vector<size_t> order(spans.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const Span &x = spans[a], &y = spans[b];
        if (x.tid != y.tid)
            return x.tid < y.tid;
        if (x.beginUs != y.beginUs)
            return x.beginUs < y.beginUs;
        return x.endUs > y.endUs;
    });

    std::vector<size_t> open;
    for (size_t k = 0; k < order.size(); ++k) {
        Span &s = spans[order[k]];
        if (k > 0 && spans[order[k - 1]].tid != s.tid)
            open.clear();
        double mid = 0.5 * static_cast<double>(s.beginUs + s.endUs);
        while (!open.empty() &&
               static_cast<double>(spans[open.back()].endUs) < mid)
            open.pop_back();
        s.selfUs += static_cast<double>(s.endUs - s.beginUs);
        if (!open.empty()) {
            Span &p = spans[open.back()];
            s.parent = static_cast<int>(open.back());
            if (s.job == 0)
                s.job = p.job;
            uint64_t lo = std::max(s.beginUs, p.beginUs);
            uint64_t hi = std::min(s.endUs, p.endUs);
            if (hi > lo)
                p.selfUs -= static_cast<double>(hi - lo);
        }
        open.push_back(order[k]);
    }
}

PassProfile
summarize(const std::vector<Span> &spans, uint32_t mainTid,
          uint64_t beginUs, uint64_t endUs)
{
    PassProfile prof;
    double mainSelfUs = 0;
    for (const Span &s : spans) {
        if (s.beginUs < beginUs || s.endUs > endUs)
            continue;
        prof.selfS[static_cast<size_t>(layerOf(s.name))] += s.selfUs * 1e-6;
        prof.totalS[s.name] +=
            static_cast<double>(s.endUs - s.beginUs) * 1e-6;
        if (s.tid == mainTid)
            mainSelfUs += s.selfUs;
    }
    if (endUs > beginUs)
        prof.coverage = mainSelfUs / static_cast<double>(endUs - beginUs);
    return prof;
}

void
writeSpans(std::ostream &os, const std::vector<Span> &spans)
{
    for (const Span &s : spans) {
        os << "{\"name\":\"" << s.name
           << "\",\"layer\":\"" << layerName(layerOf(s.name))
           << "\",\"job\":" << s.job << ",\"tid\":" << s.tid
           << ",\"begin_us\":" << s.beginUs << ",\"end_us\":" << s.endUs
           << ",\"parent\":" << s.parent << ",\"self_us\":" << s.selfUs
           << "}\n";
    }
}

} // namespace perfbench
