/**
 * @file
 * google-benchmark microbenchmarks of the simulator substrate itself:
 * DRAM channel scheduling, scratchpad banking, PCU pipeline stepping,
 * the end-to-end compile path and the PIR reference evaluator. These
 * guard the simulator's own performance (host seconds per simulated
 * cycle), not modelled hardware performance.
 */

#include <benchmark/benchmark.h>

#include "apps/apps.hpp"
#include "compiler/mapper.hpp"
#include "pir/eval.hpp"
#include "sim/dram.hpp"
#include "sim/scratchpad.hpp"

using namespace plast;

static void
BM_DramChannel(benchmark::State &state)
{
    DramParams params;
    DramChannel ch(params, 0);
    std::vector<DramReq> done;
    uint64_t addr = 0, tag = 0;
    Cycles now = 0;
    for (auto _ : state) {
        if (ch.canSubmit())
            ch.submit({(addr += 64), false, ++tag}, now);
        done.clear();
        ch.step(++now, done);
        benchmark::DoNotOptimize(done.size());
    }
}
BENCHMARK(BM_DramChannel);

static void
BM_ScratchpadConflict(benchmark::State &state)
{
    Scratchpad sp;
    ScratchCfg cfg;
    cfg.sizeWords = 4096;
    sp.configure(cfg, 16, 65536);
    std::vector<uint32_t> addrs;
    for (uint32_t i = 0; i < 16; ++i)
        addrs.push_back(i * 17);
    for (auto _ : state)
        benchmark::DoNotOptimize(sp.conflictCycles(addrs));
}
BENCHMARK(BM_ScratchpadConflict);

static void
BM_CompileInnerProduct(benchmark::State &state)
{
    setVerbose(false);
    for (auto _ : state) {
        apps::AppInstance app =
            apps::makeInnerProduct(apps::Scale::kTiny, 2);
        auto res = compiler::compileProgram(
            app.prog, ArchParams::plasticineFinal());
        benchmark::DoNotOptimize(res.report.pcusUsed);
    }
}
BENCHMARK(BM_CompileInnerProduct);

static void
BM_SimulateInnerProduct(benchmark::State &state)
{
    setVerbose(false);
    for (auto _ : state) {
        apps::AppInstance app =
            apps::makeInnerProduct(apps::Scale::kTiny, 2);
        Runner r(app.prog);
        app.load(r);
        auto res = r.run();
        benchmark::DoNotOptimize(res.cycles);
    }
}
BENCHMARK(BM_SimulateInnerProduct);

/** One reference-evaluator run (the validation step of every job) on a
 *  registered app; reports host time per ALU lane-op and per
 *  wavefront. */
static void
BM_Evaluator(benchmark::State &state, const char *name,
             apps::Scale scale)
{
    setVerbose(false);
    const apps::AppSpec *spec = nullptr;
    for (const apps::AppSpec &s : apps::allApps())
        if (s.name == name)
            spec = &s;
    if (!spec) {
        state.SkipWithError("unknown app");
        return;
    }
    apps::AppInstance app = spec->make(scale);
    Runner r(app.prog);
    app.load(r);
    uint64_t ops = 0, wavefronts = 0;
    for (auto _ : state) {
        pir::Evaluator ev = r.runReference();
        ops = ev.counts().aluOps;
        wavefronts = ev.counts().wavefronts;
        benchmark::DoNotOptimize(ops);
    }
    // Inverted rates: seconds per ALU lane-op and per wavefront
    // (printed as ns).
    const double runs = static_cast<double>(state.iterations());
    state.counters["per_alu_op"] = benchmark::Counter(
        static_cast<double>(ops) * runs,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
    state.counters["per_wavefront"] = benchmark::Counter(
        static_cast<double>(wavefronts) * runs,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_Evaluator, GEMM, "GEMM", apps::Scale::kDefault)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Evaluator, TPCHQ6, "TPC-H Query 6",
                  apps::Scale::kDefault)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Evaluator, GDA, "GDA", apps::Scale::kDefault)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Evaluator, CNN, "CNN", apps::Scale::kDefault)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
