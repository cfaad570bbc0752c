/**
 * @file
 * Reproduces the §IV overhead claim: adding multi-stage CPI stack and
 * FLOPS stack accounting to the simulator costs ~nothing (the paper
 * reports <1% slowdown over Sniper, which already measured dispatch
 * stacks) — and extends it to the host-side telemetry added on top: the
 * metrics registry and disabled-level logging must stay under 2% vs a
 * telemetry-free loop.
 *
 * Two outputs:
 *  - the usual google-benchmark table (all BM_* variants), and
 *  - a machine-readable BENCH_overhead.json (path overridable via
 *    STACKSCOPE_BENCH_JSON) from a self-timed baseline-vs-telemetry
 *    comparison: per-variant median and stddev of ns per simulated
 *    cycle, the derived telemetry overhead percentage, and a snapshot
 *    of the metrics the instrumented loop produced. CI archives it and
 *    the overhead figure is the one docs/observability.md quotes.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/stats_math.hpp"
#include "core/ooo_core.hpp"
#include "obs/interval.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_events.hpp"
#include "sim/presets.hpp"
#include "trace/synthetic_generator.hpp"
#include "trace/workload_library.hpp"

namespace {

using namespace stackscope;

constexpr std::uint64_t kInstrs = 50'000;
constexpr int kRepetitions = 9;  // odd, so the median is one sample

trace::SyntheticParams
workloadParams()
{
    trace::SyntheticParams p = trace::findWorkload("gcc").params;
    p.num_instrs = kInstrs;
    return p;
}

core::OooCore
makeCore(bool accounting, stacks::SpeculationMode mode)
{
    core::CoreParams params = sim::bdwConfig().core;
    params.accounting_enabled = accounting;
    params.spec_mode = mode;
    return core::OooCore(
        params, std::make_unique<trace::SyntheticGenerator>(workloadParams()));
}

// ---------------------------------------------------------------------
// google-benchmark variants (human-readable table)

void
runOnce(benchmark::State &state, bool accounting,
        stacks::SpeculationMode mode)
{
    std::uint64_t instrs = 0;
    for (auto _ : state) {
        core::OooCore core = makeCore(accounting, mode);
        core.run(0);
        benchmark::DoNotOptimize(core.cycles());
        instrs += core.stats().instrs_committed;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(instrs));
    state.counters["MIPS"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate,
        benchmark::Counter::kIs1000);
}

void
BM_AccountingOff(benchmark::State &state)
{
    runOnce(state, false, stacks::SpeculationMode::kOracle);
}

void
BM_AccountingOn(benchmark::State &state)
{
    runOnce(state, true, stacks::SpeculationMode::kOracle);
}

void
BM_AccountingSpecCounters(benchmark::State &state)
{
    runOnce(state, true, stacks::SpeculationMode::kSpecCounters);
}

void
BM_AccountingWithTelemetry(benchmark::State &state)
{
    // Accounting plus the host-telemetry hot path: one counter increment
    // and one disabled log::debug per cycle, a histogram record and a
    // gauge store every 1024 cycles. The delta vs BM_AccountingOn is the
    // telemetry overhead the <2% budget covers.
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    obs::Counter cycles_total = reg.counter("bench.cycles_total");
    obs::Gauge progress = reg.gauge("bench.progress_cycles");
    obs::Histogram blocks = reg.histogram(
        "bench.block_kilocycles", {1.0, 4.0, 16.0, 64.0, 256.0});
    log::setThreshold(log::Level::kError);  // debug records are disabled

    std::uint64_t instrs = 0;
    for (auto _ : state) {
        core::OooCore core =
            makeCore(true, stacks::SpeculationMode::kOracle);
        while (!core.done()) {
            core.cycle();
            cycles_total.inc();
            log::debug("bench", "tick");
            if ((core.cycles() & 1023) == 0) {
                progress.set(static_cast<double>(core.cycles()));
                blocks.record(static_cast<double>(core.cycles()) / 1000.0);
            }
        }
        benchmark::DoNotOptimize(core.cycles());
        instrs += core.stats().instrs_committed;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(instrs));
    state.counters["MIPS"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate,
        benchmark::Counter::kIs1000);
}

void
BM_AccountingWithObservability(benchmark::State &state)
{
    // Full observability on top of accounting: interval snapshots every
    // 1000 cycles plus per-cycle pipeline event tracing. The delta vs
    // BM_AccountingOn is the observability overhead quoted in
    // docs/observability.md.
    std::uint64_t instrs = 0;
    for (auto _ : state) {
        core::OooCore core =
            makeCore(true, stacks::SpeculationMode::kOracle);
        obs::IntervalAccountant iacct(1000);
        obs::PipelineTracer tracer(stacks::SpeculationMode::kOracle);
        while (!core.done()) {
            core.cycle();
            tracer.observe(core.cycles() - 1, core.cycleState(),
                           core.stats().squashed_uops);
            if (iacct.due(core.cycles()))
                iacct.snapshot(core);
        }
        iacct.finish(core);
        tracer.finish(core.cycles());
        benchmark::DoNotOptimize(iacct.take().samples.size());
        benchmark::DoNotOptimize(tracer.take().events.size());
        instrs += core.stats().instrs_committed;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(instrs));
    state.counters["MIPS"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate,
        benchmark::Counter::kIs1000);
}

void
BM_AccountantTickOnly(benchmark::State &state)
{
    // Isolate the marginal cost of one tick: all four stacks, one cycle.
    stacks::StackAccountant acct({});
    stacks::CycleState s;
    s.n_dispatch = 3;
    s.fe_has_correct = true;
    s.fe_has_any = true;
    for (auto _ : state) {
        acct.tick(s);
        benchmark::DoNotOptimize(&acct);
    }
}

BENCHMARK(BM_AccountingOff)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AccountingOn)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AccountingSpecCounters)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AccountingWithTelemetry)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AccountingWithObservability)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AccountantTickOnly);

// ---------------------------------------------------------------------
// Self-timed comparison feeding BENCH_overhead.json

enum class Variant
{
    kAccountingOff,
    kBaseline,    // accounting on, no telemetry in the loop
    kTelemetry,   // accounting on + metrics + disabled logging
};

const char *
variantName(Variant v)
{
    switch (v) {
      case Variant::kAccountingOff: return "accounting_off";
      case Variant::kBaseline: return "accounting_on";
      default: return "accounting_on_telemetry";
    }
}

/** One run; returns ns per simulated cycle. */
double
timedRun(Variant variant, std::uint64_t &cycles_out)
{
    core::OooCore core =
        makeCore(variant != Variant::kAccountingOff,
                 stacks::SpeculationMode::kOracle);

    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    obs::Counter cycles_total = reg.counter("bench.cycles_total");
    obs::Gauge progress = reg.gauge("bench.progress_cycles");
    obs::Histogram blocks = reg.histogram(
        "bench.block_kilocycles", {1.0, 4.0, 16.0, 64.0, 256.0});

    const auto start = std::chrono::steady_clock::now();
    if (variant == Variant::kTelemetry) {
        while (!core.done()) {
            core.cycle();
            cycles_total.inc();
            log::debug("bench", "tick");
            if ((core.cycles() & 1023) == 0) {
                progress.set(static_cast<double>(core.cycles()));
                blocks.record(static_cast<double>(core.cycles()) / 1000.0);
            }
        }
    } else {
        while (!core.done())
            core.cycle();
    }
    const auto stop = std::chrono::steady_clock::now();

    cycles_out = core.cycles();
    const double ns =
        std::chrono::duration<double, std::nano>(stop - start).count();
    return cycles_out > 0 ? ns / static_cast<double>(cycles_out) : 0.0;
}

struct VariantStats
{
    Variant variant;
    std::vector<double> ns_per_cycle;
    std::uint64_t cycles = 0;
};

void
writeMetricsSnapshot(obs::JsonWriter &w, const obs::MetricsSnapshot &snap)
{
    w.beginObject();
    w.key("counters").beginObject();
    for (const obs::CounterValue &c : snap.counters)
        w.key(c.name).value(c.value);
    w.endObject();
    w.key("gauges").beginObject();
    for (const obs::GaugeValue &g : snap.gauges)
        w.key(g.name).value(g.value);
    w.endObject();
    w.key("histograms").beginObject();
    for (const obs::HistogramValue &h : snap.histograms) {
        w.key(h.name).beginObject();
        w.key("bounds").beginArray();
        for (const double b : h.bounds)
            w.value(b);
        w.endArray();
        w.key("counts").beginArray();
        for (const std::uint64_t c : h.counts)
            w.value(c);
        w.endArray();
        w.key("total").value(h.total);
        w.key("sum").value(h.sum);
        w.endObject();
    }
    w.endObject();
    w.endObject();
}

int
measureOverheadAndWriteJson()
{
    log::setThreshold(log::Level::kError);

    std::vector<VariantStats> stats;
    for (const Variant v : {Variant::kAccountingOff, Variant::kBaseline,
                            Variant::kTelemetry}) {
        VariantStats s;
        s.variant = v;
        timedRun(v, s.cycles);  // warmup, not recorded
        stats.push_back(std::move(s));
    }
    // Interleave repetitions round-robin so slow drift (thermals, other
    // tenants) hits every variant equally instead of biasing the last.
    for (int rep = 0; rep < kRepetitions; ++rep) {
        for (VariantStats &s : stats)
            s.ns_per_cycle.push_back(timedRun(s.variant, s.cycles));
    }

    const auto median = [](const std::vector<double> &xs) {
        return percentile(xs, 0.5);
    };
    // The overhead figure uses the per-variant *minimum*: scheduler and
    // cache noise only ever add time, so min is the noise-robust
    // estimator of the true cost (medians swing several percent on a
    // busy host; the medians and raw samples are still in the JSON).
    const auto minimum = [](const std::vector<double> &xs) {
        return *std::min_element(xs.begin(), xs.end());
    };
    const double base = minimum(stats[1].ns_per_cycle);
    const double tele = minimum(stats[2].ns_per_cycle);
    const double overhead_pct =
        base > 0.0 ? (tele - base) / base * 100.0 : 0.0;

    obs::JsonWriter w;
    w.beginObject();
    w.key("schema").value("stackscope-bench");
    w.key("version").value(1);
    w.key("benchmark").value("overhead_accounting");
    w.key("workload").value("gcc");
    w.key("instrs").value(kInstrs);
    w.key("repetitions").value(kRepetitions);
    w.key("variants").beginArray();
    for (const VariantStats &s : stats) {
        w.beginObject();
        w.key("name").value(variantName(s.variant));
        w.key("min_ns_per_cycle").value(minimum(s.ns_per_cycle));
        w.key("median_ns_per_cycle").value(median(s.ns_per_cycle));
        w.key("stddev_ns_per_cycle").value(stddev(s.ns_per_cycle));
        w.key("cycles").value(s.cycles);
        w.key("samples_ns_per_cycle").beginArray();
        for (const double x : s.ns_per_cycle)
            w.value(x);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.key("telemetry_overhead_pct").value(overhead_pct);
    w.key("host_metrics");
    writeMetricsSnapshot(w, obs::MetricsRegistry::global().snapshot());
    w.endObject();

    const char *env = std::getenv("STACKSCOPE_BENCH_JSON");
    const std::string path = env != nullptr ? env : "BENCH_overhead.json";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
        std::fprintf(stderr, "overhead_accounting: cannot write %s\n",
                     path.c_str());
        return 1;
    }
    std::fwrite(w.str().data(), 1, w.str().size(), f);
    std::fputc('\n', f);
    std::fclose(f);

    std::printf(
        "telemetry overhead: %.2f%% (baseline %.2f ns/cycle, "
        "telemetry %.2f ns/cycle, %d reps) -> %s\n",
        overhead_pct, base, tele, kRepetitions, path.c_str());
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    const int rc = measureOverheadAndWriteJson();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return rc;
}
