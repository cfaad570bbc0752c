/** Tests for homogeneous multi-core simulation and stack aggregation. */

#include "sim/multicore.hpp"

#include <gtest/gtest.h>

#include <string>

#include "obs/report.hpp"
#include "sim/presets.hpp"
#include "trace/hpc_kernels.hpp"
#include "trace/synthetic_generator.hpp"
#include "trace/workload_library.hpp"

namespace stackscope::sim {
namespace {

using stacks::FlopsComponent;
using stacks::Stage;

trace::SyntheticGenerator
shortWorkload(const char *name, std::uint64_t n = 50'000)
{
    trace::SyntheticParams p = trace::findWorkload(name).params;
    p.num_instrs = n;
    return trace::SyntheticGenerator(p);
}

/** The deterministic report bytes of @p r as a single-core job. */
std::string
reportBytes(const SimResult &r, const SimOptions &options)
{
    obs::ReportBuilder report("run");
    report.add("job", options, r);
    return report.json();
}

TEST(Multicore, RunsAllCoresToCompletion)
{
    const auto gen = shortWorkload("exchange2");
    const MulticoreResult r = simulateMulticore(bdwConfig(), gen, 4);
    ASSERT_EQ(r.per_core.size(), 4u);
    for (const SimResult &c : r.per_core) {
        EXPECT_EQ(c.instrs, 50'000u);
        EXPECT_GT(c.cycles, 0u);
    }
}

TEST(Multicore, AggregationIsComponentWiseAverage)
{
    const auto gen = shortWorkload("gcc");
    const MulticoreResult r = simulateMulticore(bdwConfig(), gen, 2);
    for (std::size_t s = 0; s < stacks::kNumStages; ++s) {
        stacks::CpiStack manual;
        for (const SimResult &c : r.per_core)
            manual += c.cpi_stacks[s].scaled(0.5);
        manual.forEach([&](stacks::CpiComponent comp, double v) {
            EXPECT_NEAR(r.avg_cpi_stacks[s][comp], v, 1e-12);
        });
    }
}

TEST(Multicore, HomogeneousCoresBehaveSimilarly)
{
    const auto gen = shortWorkload("exchange2");
    const MulticoreResult r = simulateMulticore(skxConfig(), gen, 4);
    const double cpi0 = r.per_core[0].cpi;
    for (const SimResult &c : r.per_core)
        EXPECT_NEAR(c.cpi, cpi0, cpi0 * 0.2);
}

TEST(Multicore, SingleCoreMatchesSimulateExactly)
{
    // simulate() is the one-core case of simulateMulticore(): the same
    // run, down to the report bytes. The strict run with interval
    // snapshots puts every skip-ahead horizon term in play.
    SimOptions plain;
    plain.warmup_instrs = 10'000;
    SimOptions strict = plain;
    strict.validation = validate::ValidationPolicy::kStrict;
    strict.obs.interval_cycles = 700;
    for (const MachineConfig &machine : {bdwConfig(), knlConfig()}) {
        for (const char *workload : {"mcf", "exchange2", "lbm", "povray"}) {
            const auto gen = shortWorkload(workload, 30'000);
            for (const SimOptions &opt : {plain, strict}) {
                const MulticoreResult multi =
                    simulateMulticore(machine, gen, 1, opt);
                ASSERT_EQ(multi.per_core.size(), 1u);
                EXPECT_EQ(reportBytes(multi.per_core[0], opt),
                          reportBytes(simulate(machine, gen, opt), opt))
                    << workload << " on " << machine.name
                    << (opt.obs.interval_cycles != 0 ? " (strict)" : "");
            }
        }
    }
}

TEST(Multicore, WarmupLongerThanTraceIsHarmless)
{
    // A core whose trace ends inside the warmup window restarts
    // measurement there: an empty window, never the warmup reported as
    // if it were measured.
    const auto gen = shortWorkload("exchange2", 5'000);
    SimOptions opt;
    opt.warmup_instrs = 50'000;
    opt.validation = validate::ValidationPolicy::kWarn;
    for (unsigned cores : {1u, 2u}) {
        const MulticoreResult r =
            simulateMulticore(bdwConfig(), gen, cores, opt);
        ASSERT_EQ(r.per_core.size(), cores);
        EXPECT_TRUE(r.validation.passed()) << r.validation.summary();
        for (const SimResult &c : r.per_core) {
            EXPECT_EQ(c.instrs, 0u) << cores << " cores";
            EXPECT_EQ(c.cycles, 0u) << cores << " cores";
            EXPECT_TRUE(c.validation.passed()) << c.validation.summary();
        }
    }
}

TEST(Multicore, SocketFlopsBelowPeak)
{
    const trace::HpcTarget target{16, trace::SgemmCodegen::kSkxBroadcast};
    auto trace = trace::makeSgemmTrace({1760, 64, 1760}, target, 60'000);
    const MulticoreResult r = simulateMulticore(skxConfig(), *trace, 2);
    EXPECT_GT(r.socket_flops, 0.0);
    EXPECT_LT(r.socket_flops, r.socket_peak_flops);
    // The socket FLOPS stack sums to the peak.
    EXPECT_NEAR(r.socketFlopsStack().sum(), r.socket_peak_flops,
                r.socket_peak_flops * 0.01);
}

TEST(Multicore, IpcStackSumsToMaxIpc)
{
    const auto gen = shortWorkload("exchange2");
    const MulticoreResult r = simulateMulticore(skxConfig(), gen, 2);
    EXPECT_NEAR(r.ipcStack(4).sum(), 4.0, 0.05);
}

TEST(Multicore, WarmupTruncationIsReportedPerCore)
{
    // Same law as the single-core driver: a watchdog stop inside the
    // warmup window must surface as a progress violation on every core
    // that never started measuring.
    const auto gen = shortWorkload("gcc", 1'000'000);
    SimOptions opt;
    opt.warmup_instrs = 500'000;
    opt.max_cycles = 5'000;
    const MulticoreResult r = simulateMulticore(bdwConfig(), gen, 2, opt);
    EXPECT_FALSE(r.validation.passed());
    for (const SimResult &c : r.per_core) {
        EXPECT_TRUE(
            c.validation.contains(validate::Invariant::kProgress));
        ASSERT_FALSE(c.validation.violations.empty());
        EXPECT_NE(c.validation.violations[0].detail.find("warmup"),
                  std::string::npos);
    }
}

TEST(Multicore, SharedUncoreCreatesContention)
{
    // Memory-bound threads sharing an uncore must be slower than a single
    // thread using the same per-core slice alone would suggest... at equal
    // per-core resources the n-core run can only be equal or slower.
    trace::SyntheticParams p = trace::findWorkload("lbm").params;
    p.num_instrs = 40'000;
    trace::SyntheticGenerator gen(p);
    const SimResult single = simulate(bdwConfig(), gen);
    const MulticoreResult quad = simulateMulticore(bdwConfig(), gen, 4);
    double avg_cpi = 0.0;
    for (const SimResult &c : quad.per_core)
        avg_cpi += c.cpi / 4.0;
    EXPECT_GE(avg_cpi, single.cpi * 0.9);
}

}  // namespace
}  // namespace stackscope::sim
