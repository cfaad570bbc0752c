/** Integration tests: the stack accountant attached to the live core,
 *  checking the paper's structural invariants end to end. */

#include <gtest/gtest.h>

#include "test_core_config.hpp"
#include "trace/synthetic_generator.hpp"
#include "trace/workload_library.hpp"

namespace stackscope::core {
namespace {

using stacks::CpiComponent;
using stacks::SpeculationMode;
using stacks::Stage;
using testing::idealCoreParams;

CoreParams
realisticParams()
{
    CoreParams p = idealCoreParams();
    p.mem.perfect_icache = false;
    p.mem.perfect_dcache = false;
    p.bpred.perfect = false;
    p.rob_size = 64;
    p.rs_size = 32;
    return p;
}

std::unique_ptr<trace::TraceSource>
mixedTrace(std::uint64_t n = 200'000)
{
    trace::SyntheticParams sp = trace::findWorkload("gcc").params;
    sp.num_instrs = n;
    return std::make_unique<trace::SyntheticGenerator>(sp);
}

TEST(AccountingIntegration, StacksSumToTotalCycles)
{
    OooCore core(realisticParams(), mixedTrace());
    core.run(0);
    const double cycles = static_cast<double>(core.cycles());
    for (Stage s : {Stage::kDispatch, Stage::kIssue, Stage::kCommit}) {
        EXPECT_NEAR(core.accountant().cycles(s).sum(), cycles,
                    cycles * 1e-9 + 2.0)
            << toString(s);
    }
    EXPECT_NEAR(core.accountant().flopsCycles().sum(), cycles, 2.0);
}

TEST(AccountingIntegration, BaseComponentEqualAcrossStages)
{
    // Oracle mode: wrong-path is excluded everywhere, so every correct
    // uop contributes 1/W at each stage (§III-A).
    OooCore core(realisticParams(), mixedTrace());
    core.run(0);
    const double base_d =
        core.accountant().cycles(Stage::kDispatch)[CpiComponent::kBase];
    const double base_i =
        core.accountant().cycles(Stage::kIssue)[CpiComponent::kBase];
    const double base_c =
        core.accountant().cycles(Stage::kCommit)[CpiComponent::kBase];
    EXPECT_NEAR(base_d, base_c, base_c * 0.001 + 2.0);
    EXPECT_NEAR(base_i, base_c, base_c * 0.001 + 2.0);
}

TEST(AccountingIntegration, FrontendComponentsShrinkTowardCommit)
{
    OooCore core(realisticParams(), mixedTrace());
    core.run(0);
    auto fe_sum = [&](Stage s) {
        const auto &c = core.accountant().cycles(s);
        return c[CpiComponent::kIcache] + c[CpiComponent::kBpred] +
               c[CpiComponent::kMicrocode];
    };
    const double d = fe_sum(Stage::kDispatch);
    const double i = fe_sum(Stage::kIssue);
    const double c = fe_sum(Stage::kCommit);
    const double slack = d * 0.02 + 5.0;
    EXPECT_GE(d, i - slack);
    EXPECT_GE(i, c - slack);
}

TEST(AccountingIntegration, BackendComponentsGrowTowardCommit)
{
    OooCore core(realisticParams(), mixedTrace());
    core.run(0);
    auto be_sum = [&](Stage s) {
        const auto &c = core.accountant().cycles(s);
        return c[CpiComponent::kDcache] + c[CpiComponent::kAluLat] +
               c[CpiComponent::kDepend];
    };
    const double d = be_sum(Stage::kDispatch);
    const double i = be_sum(Stage::kIssue);
    const double c = be_sum(Stage::kCommit);
    const double slack = c * 0.05 + 5.0;
    EXPECT_LE(d, i + slack);
    EXPECT_LE(i, c + slack);
}

TEST(AccountingIntegration, AllComponentsNonNegative)
{
    OooCore core(realisticParams(), mixedTrace());
    core.run(0);
    for (Stage s : {Stage::kDispatch, Stage::kIssue, Stage::kCommit}) {
        core.accountant().cycles(s).forEach(
            [&](CpiComponent, double v) { EXPECT_GE(v, 0.0); });
    }
    core.accountant().flopsCycles().forEach(
        [&](stacks::FlopsComponent, double v) { EXPECT_GE(v, 0.0); });
}

TEST(AccountingIntegration, SpecCountersApproximateOracle)
{
    // §III-B: the speculative-counter architecture reproduces the oracle
    // attribution closely.
    CoreParams oracle_params = realisticParams();
    oracle_params.spec_mode = SpeculationMode::kOracle;
    OooCore oracle(oracle_params, mixedTrace());
    oracle.run(0);

    CoreParams sc_params = realisticParams();
    sc_params.spec_mode = SpeculationMode::kSpecCounters;
    OooCore sc(sc_params, mixedTrace());
    sc.run(0);

    ASSERT_EQ(oracle.cycles(), sc.cycles());  // timing is unaffected
    const auto &od = oracle.accountant().cycles(Stage::kDispatch);
    const auto &sd = sc.accountant().cycles(Stage::kDispatch);
    const double total = od.sum();
    EXPECT_NEAR(sd.sum(), total, total * 0.001 + 2.0);
    // The bpred component agrees within a few percent of total cycles.
    EXPECT_NEAR(sd[CpiComponent::kBpred], od[CpiComponent::kBpred],
                total * 0.05);
}

TEST(AccountingIntegration, SimpleModeBaseMatchesCommitAfterFixup)
{
    CoreParams p = realisticParams();
    p.spec_mode = SpeculationMode::kSimple;
    OooCore core(p, mixedTrace());
    core.run(0);
    const double base_d =
        core.accountant().cycles(Stage::kDispatch)[CpiComponent::kBase];
    const double base_c =
        core.accountant().cycles(Stage::kCommit)[CpiComponent::kBase];
    // After the fixup the dispatch base cannot exceed the commit base.
    EXPECT_LE(base_d, base_c + 1e-6);
    // And the stack still sums to the cycle count.
    EXPECT_NEAR(core.accountant().cycles(Stage::kDispatch).sum(),
                static_cast<double>(core.cycles()), 2.0);
}

TEST(AccountingIntegration, SimpleModeMovesWrongPathToBpred)
{
    // With mispredictions present, kSimple attributes at least as much to
    // bpred at dispatch as the base surplus implies.
    CoreParams p = realisticParams();
    p.spec_mode = SpeculationMode::kSimple;
    OooCore core(p, mixedTrace());
    core.run(0);
    ASSERT_GT(core.stats().branch_mispredicts, 100u);
    EXPECT_GT(
        core.accountant().cycles(Stage::kDispatch)[CpiComponent::kBpred],
        0.0);
}

TEST(AccountingIntegration, TimingIndependentOfAccounting)
{
    // Accounting must be a pure observer: cycles identical with it off.
    CoreParams on = realisticParams();
    CoreParams off = realisticParams();
    off.accounting_enabled = false;
    OooCore a(on, mixedTrace());
    OooCore b(off, mixedTrace());
    a.run(0);
    b.run(0);
    EXPECT_EQ(a.cycles(), b.cycles());
    EXPECT_EQ(a.stats().instrs_committed, b.stats().instrs_committed);
}

TEST(AccountingIntegration, CpiMatchesCyclesOverInstructions)
{
    OooCore core(realisticParams(), mixedTrace());
    core.run(0);
    const auto cpi_stack =
        core.accountant().cpi(Stage::kCommit, core.stats().instrs_committed);
    EXPECT_NEAR(cpi_stack.sum(), core.cpi(), core.cpi() * 1e-6 + 1e-6);
}

}  // namespace
}  // namespace stackscope::core
