/** Tests for measurement windows (warmup / resetMeasurement) and the
 *  width-normalization ablation knob. */

#include <gtest/gtest.h>

#include "sim/presets.hpp"
#include "sim/simulation.hpp"
#include "test_core_config.hpp"
#include "trace/synthetic_generator.hpp"
#include "trace/trace_builder.hpp"
#include "trace/workload_library.hpp"

namespace stackscope::core {
namespace {

using stacks::CpiComponent;
using stacks::Stage;
using testing::idealCoreParams;

TEST(Measurement, ResetZeroesCountersKeepsState)
{
    trace::TraceBuilder b;
    for (int i = 0; i < 2000; ++i)
        b.alu();
    OooCore core(idealCoreParams(), b.build());
    while (core.stats().instrs_committed < 1000)
        core.cycle();
    const Cycle before = core.absoluteCycles();
    core.resetMeasurement();
    EXPECT_EQ(core.cycles(), 0u);
    EXPECT_EQ(core.stats().instrs_committed, 0u);
    core.run(0);
    EXPECT_EQ(core.absoluteCycles() - before, core.cycles());
    // Roughly the second half of the trace commits in the window.
    EXPECT_NEAR(static_cast<double>(core.stats().instrs_committed), 1000.0,
                16.0);
}

/** A reset inside an idle run drops the run: the warmup cycles it holds
 *  must not reach the fresh stacks. */
TEST(Measurement, ResetDropsPendingIdleRun)
{
    trace::TraceBuilder b;
    for (int i = 0; i < 200; ++i)
        b.alu();
    OooCore core(idealCoreParams(), b.build());
    core.cycle();  // nothing fetched yet: an idle cycle, held pending
    const stacks::CycleState &first = core.cycleState();
    ASSERT_EQ(first.n_dispatch + first.n_issue + first.n_commit, 0u);
    core.resetMeasurement();
    core.run(0);
    const auto cycles = static_cast<double>(core.cycles());
    for (Stage s : {Stage::kDispatch, Stage::kIssue, Stage::kCommit})
        EXPECT_EQ(core.accountant().cycles(s).sum(), cycles);
    EXPECT_EQ(core.accountant().flopsCycles().sum(), cycles);
}

TEST(Measurement, WarmupReducesColdStartCpi)
{
    // Cold caches inflate CPI; measuring after warmup gets closer to the
    // steady state of a longer run.
    trace::SyntheticParams p = trace::findWorkload("gcc").params;

    p.num_instrs = 150'000;
    trace::SyntheticGenerator gen(p);
    const sim::SimResult cold = sim::simulate(sim::bdwConfig(), gen);

    sim::SimOptions warm_opt;
    warm_opt.warmup_instrs = 75'000;
    p.num_instrs = 225'000;
    trace::SyntheticGenerator gen_w(p);
    const sim::SimResult warm =
        sim::simulate(sim::bdwConfig(), gen_w, warm_opt);
    EXPECT_NEAR(static_cast<double>(warm.instrs), 150'000.0, 8.0);
    EXPECT_LT(warm.cpi, cold.cpi);
}

TEST(Measurement, WarmupStacksStillSumToCpi)
{
    trace::SyntheticParams p = trace::findWorkload("mcf").params;
    p.num_instrs = 90'000;
    trace::SyntheticGenerator gen(p);
    sim::SimOptions opt;
    opt.warmup_instrs = 30'000;
    const sim::SimResult r = sim::simulate(sim::bdwConfig(), gen, opt);
    // The warmup boundary lands mid-commit-group, so the measured window
    // may be a few uops short.
    EXPECT_NEAR(static_cast<double>(r.instrs), 60'000.0, 8.0);
    for (Stage s : {Stage::kDispatch, Stage::kIssue, Stage::kCommit})
        EXPECT_NEAR(r.cpiStack(s).sum(), r.cpi, r.cpi * 0.002 + 1e-6);
}

TEST(Measurement, WarmupLongerThanTraceIsHarmless)
{
    trace::SyntheticParams p = trace::findWorkload("exchange2").params;
    p.num_instrs = 5'000;
    trace::SyntheticGenerator gen(p);
    sim::SimOptions opt;
    opt.warmup_instrs = 50'000;  // exceeds the trace
    const sim::SimResult r = sim::simulate(sim::bdwConfig(), gen, opt);
    EXPECT_EQ(r.instrs, 0u);
    EXPECT_EQ(r.cycles, 0u);
}

TEST(WidthNormalization, NormalizedBasesAreEqualNativeAreNot)
{
    // The §III-A ablation: the wider issue stage only reports the same
    // base component as the others under min-width accounting.
    trace::SyntheticParams p = trace::findWorkload("exchange2").params;
    p.num_instrs = 40'000;
    trace::SyntheticGenerator gen(p);

    CoreParams params = sim::bdwConfig().core;  // issue 6-wide, others 4
    ASSERT_GT(params.issue_width, params.dispatch_width);

    OooCore normalized(params, gen.clone());
    normalized.run(0);
    params.accounting_native_widths = true;
    OooCore native(params, gen.clone());
    native.run(0);

    const double n_disp =
        normalized.accountant().cycles(Stage::kDispatch)[CpiComponent::kBase];
    const double n_iss =
        normalized.accountant().cycles(Stage::kIssue)[CpiComponent::kBase];
    EXPECT_NEAR(n_disp, n_iss, n_disp * 0.005 + 1.0);

    const double v_disp =
        native.accountant().cycles(Stage::kDispatch)[CpiComponent::kBase];
    const double v_iss =
        native.accountant().cycles(Stage::kIssue)[CpiComponent::kBase];
    // Native issue base = instrs/6 instead of instrs/4: 1/3 smaller.
    EXPECT_NEAR(v_iss, v_disp * 4.0 / 6.0, v_disp * 0.02);

    // Timing itself is unaffected by the accounting width.
    EXPECT_EQ(normalized.cycles(), native.cycles());
}

TEST(WidthNormalization, NativeWidthsStillSumToCycles)
{
    trace::SyntheticParams p = trace::findWorkload("gcc").params;
    p.num_instrs = 40'000;
    trace::SyntheticGenerator gen(p);
    CoreParams params = sim::bdwConfig().core;
    params.accounting_native_widths = true;
    OooCore core(params, gen.clone());
    core.run(0);
    for (Stage s : {Stage::kDispatch, Stage::kIssue, Stage::kCommit}) {
        EXPECT_NEAR(core.accountant().cycles(s).sum(),
                    static_cast<double>(core.cycles()),
                    core.cycles() * 0.001 + 2.0)
            << toString(s);
    }
}

}  // namespace
}  // namespace stackscope::core
