#include "workloads.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "apps/apps.hpp"
#include "base/rng.hpp"
#include "fuzz/diff.hpp"
#include "fuzz/generator.hpp"
#include "pir/eval.hpp"
#include "runtime/runner.hpp"
#include "serve/server.hpp"

namespace perfbench
{

using namespace plast;

const std::vector<std::string> kWorkloadNames = {
    "apps-stream", "apps-tile", "apps-sparse", "serve-sweep"};

namespace
{

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

uint64_t
fnv(uint64_t h, std::string_view text)
{
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

double
msSince(uint64_t beginUs)
{
    return static_cast<double>(Tracer::nowUs() - beginUs) * 1e-3;
}

/** Fisher-Yates with the benchmark's own seeded generator. */
template <typename T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.nextBounded(i)]);
}

const apps::AppSpec &
appByName(const std::string &name)
{
    for (const apps::AppSpec &a : apps::allApps()) {
        if (a.name == name)
            return a;
    }
    throw std::runtime_error("unknown app " + name);
}

pir::MemId
memByName(const pir::Program &prog, const std::string &name)
{
    for (size_t m = 0; m < prog.mems.size(); ++m) {
        if (prog.mems[m].name == name)
            return static_cast<pir::MemId>(m);
    }
    throw std::runtime_error(prog.name + " has no memory " + name);
}

/**
 * Re-stage a sparse app's index and value inputs from the workload
 * seed, drawing from the same distributions the app's own load uses
 * (src/apps/{smdv,pagerank,bfs}.cpp), so the program is unchanged and
 * only the gather pattern and the data differ between repetitions.
 */
void
restageSparse(const std::string &app, Runner &r, Rng &rng)
{
    const pir::Program &p = r.program();
    auto ints = [&](std::vector<Word> &buf, uint64_t bound) {
        for (Word &w : buf)
            w = intToWord(static_cast<int32_t>(rng.nextBounded(bound)));
    };
    if (app == "SMDV") {
        uint64_t rows = r.dram(memByName(p, "x")).size();
        ints(r.dram(memByName(p, "col")), rows);
        for (const char *name : {"val", "x"}) {
            for (Word &w : r.dram(memByName(p, name)))
                w = floatToWord(rng.nextFloat(-1.0f, 1.0f));
        }
    } else if (app == "PageRank") {
        uint64_t pages = r.dram(memByName(p, "rank")).size();
        ints(r.dram(memByName(p, "links")), pages);
        for (Word &w : r.dram(memByName(p, "deg")))
            w = floatToWord(1.0f + static_cast<float>(rng.nextBounded(12)));
    } else if (app == "BFS") {
        // Layered graph at default scale: 6 levels, edges of a node go
        // into the next level (the last level points into itself).
        constexpr uint64_t kLevels = 6;
        std::vector<Word> &edges = r.dram(memByName(p, "edges"));
        uint64_t nodes = r.dram(memByName(p, "dist")).size();
        if (nodes % kLevels != 0 || edges.size() % nodes != 0)
            throw std::runtime_error("BFS layout is not the default one");
        uint64_t layer = nodes / kLevels;
        uint64_t fanout = edges.size() / nodes;
        for (uint64_t node = 0; node < nodes; ++node) {
            uint64_t next = std::min(node / layer + 1, kLevels - 1) * layer;
            for (uint64_t k = 0; k < fanout; ++k) {
                edges[node * fanout + k] = intToWord(
                    static_cast<int32_t>(next + rng.nextBounded(layer)));
            }
        }
    } else {
        throw std::runtime_error("no re-staging rule for " + app);
    }
}

// ---------------------------------------------------------------------

/** Serial Runner jobs over apps at Scale::kDefault. */
class AppsWorkload : public Workload
{
  public:
    AppsWorkload(std::vector<std::string> apps, uint32_t reps, bool restage,
                 uint64_t seed, Tracer &tr)
        : apps_(std::move(apps)), reps_(reps), restage_(restage),
          seed_(seed), tr_(tr)
    {
    }

    void
    setup() override
    {
        jobs_.clear();
        Rng rng(seed_ * 0x9e3779b97f4a7c15ull + 0xa995);
        uint64_t jobId = 0;
        for (const std::string &name : apps_) {
            apps::AppInstance inst;
            {
                Traced t(tr_, "apps.make", jobId + 1);
                inst = appByName(name).make(apps::Scale::kDefault);
            }
            for (uint32_t rep = 0; rep < reps_; ++rep) {
                Traced t(tr_, "runtime.load", ++jobId);
                auto staged = std::make_unique<Runner>(inst.prog);
                inst.load(*staged);
                if (restage_)
                    restageSparse(name, *staged, rng);
                jobs_.push_back({name, std::move(staged)});
            }
        }
        shuffle(jobs_, rng);
    }

    PassResult
    pass() override
    {
        PassResult out;
        std::vector<Runner::Result> results(jobs_.size());
        std::vector<bool> simulated(jobs_.size());
        auto t0 = std::chrono::steady_clock::now();
        out.beginUs = Tracer::nowUs();
        for (size_t i = 0; i < jobs_.size(); ++i)
            simulated[i] = runJob(jobs_[i], i + 1, results[i], out);
        out.endUs = Tracer::nowUs();
        out.wallS = secondsSince(t0);
        for (size_t i = 0; i < jobs_.size(); ++i) {
            if (simulated[i]) {
                out.sim.add(results[i].stats, results[i].cycles);
                out.digest =
                    foldCounters(out.digest, jobs_[i].app, results[i].stats);
            }
        }
        return out;
    }

    void teardown() override { jobs_.clear(); }

  private:
    /** Staged inputs stay with the job list for the whole pass, so the
     *  process's peak memory does not depend on the seeded job order. */
    struct Job
    {
        std::string app;
        std::unique_ptr<const Runner> staged;
    };

    /** Runs one job in a fresh runner; true when it reached the
     *  simulator. */
    bool
    runJob(const Job &job, uint64_t id, Runner::Result &res, PassResult &out)
    {
        uint64_t beginUs = Tracer::nowUs();
        std::unique_ptr<Runner> runner;
        {
            Traced t(tr_, "runtime.stage", id);
            runner = std::make_unique<Runner>(job.staged->program());
            runner->setHostBuffers(job.staged->hostBuffers());
        }
        Status st;
        {
            Traced t(tr_, "compiler.tryCompile", id);
            st = runner->tryCompile();
        }
        if (st.ok()) {
            Traced t(tr_, "sim.tryRun", id);
            st = runner->tryRun(res);
        }
        std::unique_ptr<pir::Evaluator> ev; // refers to the runner's program
        if (st.ok()) {
            {
                Traced t(tr_, "pir.runReference", id);
                ev = std::make_unique<pir::Evaluator>(runner->runReference());
            }
            Traced t(tr_, "runtime.compare", id);
            st = runner->compareWithReference(*ev, res);
        }
        bool simulated = runner->fabric() != nullptr;
        const compiler::CompileDiagnostics &d = runner->report().diag;
        out.routedHops += d.routedHops;
        out.routeRounds += d.routeRounds;
        {
            Traced t(tr_, "runtime.release", id);
            ev.reset();
            runner.reset();
        }
        out.jobMs.push_back(msSince(beginUs));

        ++out.attempted;
        if (!st.ok()) {
            ++out.failed;
            out.failures.push_back(job.app + ": " + st.toString());
        }
        return simulated;
    }

    std::vector<std::string> apps_;
    uint32_t reps_;
    bool restage_;
    uint64_t seed_;
    Tracer &tr_;
    std::vector<Job> jobs_;
};

// ---------------------------------------------------------------------

/**
 * A design-space sweep through the serve daemon: seeded fuzz programs
 * on sampled architecture points, submitted by one closed-loop client
 * that keeps a fixed window of jobs in flight.
 */
class ServeSweep : public Workload
{
  public:
    static constexpr size_t kJobs = 1280;
    static constexpr size_t kRecent = 192;

    ServeSweep(uint64_t seed, Tracer &tr) : seed_(seed), tr_(tr)
    {
        // Workers plus the submitting thread stay within the cores.
        uint32_t hw = std::max(2u, std::thread::hardware_concurrency());
        workers_ = std::min(3u, hw - 1);
        window_ = 2 * workers_ + 2;
    }

    void
    setup() override
    {
        buildJobs();
        serve::ServeOptions opts;
        opts.workers = workers_;
        server_ = std::make_unique<serve::Server>(opts);
        server_->setResultHook([this](const serve::JobResult &r) {
            uint64_t now = Tracer::nowUs();
            if (tr_.on()) {
                uint64_t exec = static_cast<uint64_t>(r.execUs);
                tr_.record("serve.exec", r.id, now - std::min(now, exec),
                           now);
            }
            std::lock_guard<std::mutex> lk(mu_);
            doneUs_[r.id] = now;
            --inflight_;
            cv_.notify_all();
        });
        server_->start();
    }

    PassResult
    pass() override
    {
        PassResult out;
        std::vector<uint64_t> ids(jobs_.size());
        std::vector<uint64_t> submitUs(jobs_.size());
        auto t0 = std::chrono::steady_clock::now();
        out.beginUs = Tracer::nowUs();
        std::unique_lock<std::mutex> lk(mu_);
        doneUs_.clear();
        for (size_t i = 0; i < jobs_.size(); ++i) {
            {
                Traced t(tr_, "serve.await");
                cv_.wait(lk, [&] { return inflight_ < window_; });
                ++inflight_;
            }
            lk.unlock();
            {
                Traced t(tr_, "serve.submit", i + 1);
                submitUs[i] = Tracer::nowUs();
                ids[i] = server_->submit(jobs_[i].spec);
            }
            lk.lock();
        }
        {
            Traced t(tr_, "serve.await");
            cv_.wait(lk, [&] { return inflight_ == 0; });
        }
        lk.unlock();
        {
            Traced t(tr_, "serve.drain");
            server_->drain();
        }
        std::vector<serve::JobResult> results;
        {
            Traced t(tr_, "serve.results");
            results = server_->results();
        }
        out.endUs = Tracer::nowUs();
        out.wallS = secondsSince(t0);

        ensureReferences();
        out.routedHops = routedHops_;
        out.routeRounds = routeRounds_;
        std::map<uint64_t, const serve::JobResult *> byId;
        for (const serve::JobResult &r : results)
            byId[r.id] = &r;
        out.workers = workers_;
        for (size_t i = 0; i < jobs_.size(); ++i) {
            ++out.attempted;
            auto it = byId.find(ids[i]);
            if (it == byId.end() || !it->second->outcome) {
                // Never came back within the pass: its latency is at
                // least the pass.
                out.jobMs.push_back(out.wallS * 1e3);
                ++out.failed;
                out.failures.push_back(jobs_[i].spec.source + ": lost");
                continue;
            }
            const serve::JobResult &r = *it->second;
            out.jobMs.push_back(
                static_cast<double>(doneUs_.at(r.id) - submitUs[i]) * 1e-3);
            out.waitMs.push_back(r.waitUs * 1e-3);
            out.execMs.push_back(r.execUs * 1e-3);
            out.execS += r.execUs * 1e-6;
            const serve::JobOutcome &o = *r.outcome;
            std::string why = o.outcome != statusCodeName(StatusCode::kOk)
                                  ? o.outcome + ": " + o.detail
                                  : compare(jobs_[i].spec.prog,
                                            *refs_[jobs_[i].caseIdx], o);
            if (!why.empty()) {
                ++out.failed;
                out.failures.push_back(r.source + ": " + why);
            }
            out.digest = foldCounters(out.digest, r.source, o.stats);
            if (!r.resultHit && r.executed)
                out.sim.add(o.stats, o.cycles);
        }
        serve::CacheStats cs = server_->configCacheStats();
        serve::CacheStats rs = server_->resultCacheStats();
        out.configHitFrac = frac(cs.hits, cs.hits + cs.misses);
        out.resultHitFrac = frac(rs.hits, rs.hits + rs.misses);
        return out;
    }

    void teardown() override { server_.reset(); }

  private:
    struct Job
    {
        serve::JobSpec spec;
        size_t caseIdx = 0;
    };

    static double
    frac(uint64_t num, uint64_t den)
    {
        return den ? static_cast<double>(num) / static_cast<double>(den) : 0;
    }

    /**
     * Half the submissions are fresh (program, arch) points; a quarter
     * repeat an earlier submission exactly (result-cache hit); a
     * quarter re-run an earlier point with a different cycle budget,
     * which changes the options hash but not the outputs (config-cache
     * hit, result-cache miss). Repeats and variants draw from the last
     * kRecent submissions, fewer distinct keys than either cache's
     * default capacity holds, so which jobs hit never depends on timing.
     */
    void
    buildJobs()
    {
        jobs_.clear();
        caseJob_.clear();
        Rng rng(seed_ * 0x9e3779b97f4a7c15ull + 0x5e7e);
        std::vector<int> kinds(kJobs, 0); // 0 fresh, 1 repeat, 2 variant
        std::fill(kinds.begin() + kJobs / 2, kinds.end() - kJobs / 4, 1);
        std::fill(kinds.end() - kJobs / 4, kinds.end(), 2);
        std::vector<int> rest(kinds.begin() + 1, kinds.end());
        shuffle(rest, rng);
        std::copy(rest.begin(), rest.end(), kinds.begin() + 1);

        uint64_t variants = 0;
        for (int kind : kinds) {
            Job job;
            if (kind == 0) {
                Rng caseRng(rng.next());
                job.spec.params = fuzz::sampleArch(caseRng);
                job.spec.prog = fuzz::generateProgram(caseRng);
                job.caseIdx = caseJob_.size();
                job.spec.source = "fuzz:" + std::to_string(job.caseIdx);
                caseJob_.push_back(jobs_.size());
            } else {
                size_t recent = std::min(jobs_.size(), kRecent);
                job = jobs_[jobs_.size() - 1 - rng.nextBounded(recent)];
                if (kind == 2) {
                    job.spec.maxCycles = 1'000'000'000ull + ++variants;
                    job.spec.source = "fuzz:" + std::to_string(job.caseIdx) +
                                      "/v" + std::to_string(variants);
                }
            }
            jobs_.push_back(std::move(job));
        }
    }

    /**
     * validate stays off in the daemon, as in production. The
     * reference outputs of every distinct (program, arch) point are
     * computed once, after the first timed pass, and every job of every
     * pass is compared against them after its pass. The same compiles
     * give the mapping-quality counters.
     */
    void
    ensureReferences()
    {
        if (!refs_.empty())
            return;
        for (size_t j : caseJob_) {
            const serve::JobSpec &spec = jobs_[j].spec;
            refRunners_.push_back(
                std::make_unique<Runner>(spec.prog, spec.params));
            Runner &r = *refRunners_.back();
            fuzz::fillInputs(r, spec.prog);
            refs_.push_back(std::make_unique<pir::Evaluator>(r.runReference()));
            if (r.tryCompile().ok()) {
                routedHops_ += r.report().diag.routedHops;
                routeRounds_ += r.report().diag.routeRounds;
            }
        }
    }

    /** First difference between the daemon's outputs and the
     *  reference's, or empty. */
    static std::string
    compare(const pir::Program &prog, const pir::Evaluator &ev,
            const serve::JobOutcome &o)
    {
        for (uint32_t s = 0; s < prog.numArgOuts; ++s) {
            const std::vector<Word> &want =
                ev.argOuts(static_cast<int32_t>(s));
            if (s >= o.argOuts.size() || o.argOuts[s].size() != want.size() ||
                !std::equal(want.begin(), want.end(), o.argOuts[s].begin()))
                return "argOut[" + std::to_string(s) + "] differs";
        }
        for (size_t m = 0; m < prog.mems.size(); ++m) {
            if (prog.mems[m].kind != pir::MemKind::kDram)
                continue;
            if (m >= o.dram.size() ||
                o.dram[m] != ev.dramBuf(static_cast<pir::MemId>(m)))
                return "dram '" + prog.mems[m].name + "' differs";
        }
        return "";
    }

    uint64_t seed_;
    Tracer &tr_;
    uint32_t workers_ = 1;
    uint32_t window_ = 1;
    std::vector<Job> jobs_;
    std::vector<size_t> caseJob_; ///< the fresh submission of each case
    /** Reference evaluations per case; an Evaluator refers to its
     *  runner's program, so the runners stay alive beside them. */
    std::vector<std::unique_ptr<Runner>> refRunners_;
    std::vector<std::unique_ptr<pir::Evaluator>> refs_;
    uint64_t routedHops_ = 0;
    uint64_t routeRounds_ = 0;

    std::mutex mu_; ///< guards inflight_ and doneUs_
    std::condition_variable cv_;
    uint32_t inflight_ = 0;
    std::map<uint64_t, uint64_t> doneUs_;
    /** Last: its result hook uses the members above until it drains. */
    std::unique_ptr<serve::Server> server_;
};

} // namespace

void
SimCounters::add(const StatSet &stats, uint64_t jobCycles)
{
    static const char *kClasses[] = {"pcu", "pmu", "ag", "box"};
    cycles += jobCycles;
    for (const auto &[key, value] : stats.all()) {
        if (endsWith(key, ".cycles.stepped")) {
            for (size_t c = 0; c < 4; ++c) {
                if (startsWith(key, kClasses[c]) &&
                    std::isdigit(static_cast<unsigned char>(
                        key[std::strlen(kClasses[c])]))) {
                    steps[c] += value;
                    unitCycles += jobCycles;
                }
            }
        } else if (startsWith(key, "dram")) {
            if (endsWith(key, ".busBusyCycles")) {
                busBusy += value;
                channelCycles += jobCycles;
            } else if (endsWith(key, ".rowHits")) {
                rowHits += value;
            } else if (endsWith(key, ".rowMisses")) {
                rowMisses += value;
            }
        } else if (startsWith(key, "ag") && endsWith(key, ".sparseVecs")) {
            sparseVecs += value;
        }
    }
    bursts += stats.get("mem.bursts");
    coalescedLanes += stats.get("mem.coalescedLanes");
}

uint64_t
foldCounters(uint64_t h, const std::string &job, const StatSet &stats)
{
    h = fnv(fnv(h, job), "\n");
    char digits[24];
    for (const auto &[key, value] : stats.all()) {
        if (startsWith(key, "trace."))
            continue;
        char *end = std::to_chars(digits, digits + sizeof digits, value).ptr;
        std::string_view text(digits, static_cast<size_t>(end - digits));
        h = fnv(fnv(fnv(fnv(h, key), "="), text), "\n");
    }
    return h;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed, Tracer &tracer)
{
    if (name == "apps-stream") {
        return std::make_unique<AppsWorkload>(
            std::vector<std::string>{"InnerProduct", "OuterProduct",
                                     "TPC-H Query 6", "Black-Scholes"},
            1, false, seed, tracer);
    }
    if (name == "apps-tile") {
        return std::make_unique<AppsWorkload>(
            std::vector<std::string>{"GEMM", "GDA", "CNN", "Kmeans",
                                     "LogReg", "SGD"},
            1, false, seed, tracer);
    }
    if (name == "apps-sparse") {
        return std::make_unique<AppsWorkload>(
            std::vector<std::string>{"SMDV", "PageRank", "BFS"}, 70, true,
            seed, tracer);
    }
    if (name == "serve-sweep")
        return std::make_unique<ServeSweep>(seed, tracer);
    return nullptr;
}

} // namespace perfbench
