/** Stall-mechanism tests: icache, dcache, branches, microcode, yields and
 *  load-store conflicts, each observed through the matching component. */

#include <gtest/gtest.h>

#include "test_core_config.hpp"
#include "trace/trace_builder.hpp"

namespace stackscope::core {
namespace {

using stacks::CpiComponent;
using stacks::Stage;
using testing::idealCoreParams;
using trace::TraceBuilder;

TEST(PipelineStalls, IcacheMissesShowAtDispatchFirst)
{
    CoreParams p = idealCoreParams();
    p.mem.perfect_icache = false;
    p.mem.l1i = {1 << 10, 2, 64};  // tiny L1I
    TraceBuilder b;
    // Walk a large code footprint sequentially: misses every 16 uops.
    for (int i = 0; i < 20000; ++i) {
        b.at(0x400000 + i * 4);
        b.alu();
    }
    OooCore core(p, b.build());
    core.run(0);
    const auto &disp = core.accountant().cycles(Stage::kDispatch);
    const auto &iss = core.accountant().cycles(Stage::kIssue);
    const auto &com = core.accountant().cycles(Stage::kCommit);
    EXPECT_GT(disp[CpiComponent::kIcache], 0.0);
    // Frontend components shrink toward the commit stage (§III-A).
    EXPECT_GE(disp[CpiComponent::kIcache], iss[CpiComponent::kIcache]);
    EXPECT_GE(iss[CpiComponent::kIcache], com[CpiComponent::kIcache]);
}

TEST(PipelineStalls, DcacheMissesShowAtCommitFirst)
{
    CoreParams p = idealCoreParams();
    p.mem.perfect_dcache = false;
    p.mem.uncore.mem_lat = 150;
    TraceBuilder b;
    for (int i = 0; i < 3000; ++i) {
        auto ld = b.load(0x100000 + i * 4096);
        b.alu({ld});
        b.alu();
        b.alu();
    }
    OooCore core(p, b.build());
    core.run(0);
    const auto &disp = core.accountant().cycles(Stage::kDispatch);
    const auto &iss = core.accountant().cycles(Stage::kIssue);
    const auto &com = core.accountant().cycles(Stage::kCommit);
    EXPECT_GT(com[CpiComponent::kDcache], 0.0);
    // Backend accounting starts soonest at commit, latest at dispatch
    // (the paper guarantees commit >= dispatch; issue lies in between
    // when aggregated with the other backend components).
    EXPECT_GE(com[CpiComponent::kDcache], disp[CpiComponent::kDcache] - 1e-9);
    EXPECT_GE(iss[CpiComponent::kDcache], disp[CpiComponent::kDcache] - 1e-9);
    const double be_iss = iss[CpiComponent::kDcache] +
                          iss[CpiComponent::kAluLat] +
                          iss[CpiComponent::kDepend] +
                          iss[CpiComponent::kOther];
    const double be_com = com[CpiComponent::kDcache] +
                          com[CpiComponent::kAluLat] +
                          com[CpiComponent::kDepend] +
                          com[CpiComponent::kOther];
    EXPECT_GE(be_com, be_iss - be_iss * 0.2);
}

TEST(PipelineStalls, MispredictionsCostCyclesAndShowAsBpred)
{
    CoreParams p = idealCoreParams();
    p.bpred.perfect = false;
    // One branch whose outcome follows an unlearnable pseudo-random
    // sequence.
    TraceBuilder b;
    std::uint64_t lfsr = 0xace1u;
    for (int i = 0; i < 5000; ++i) {
        b.alu();
        b.alu();
        b.alu();
        lfsr = (lfsr >> 1) ^ (-(lfsr & 1u) & 0xb400u);
        b.at(0x400000);  // same branch PC every time
        b.branch((lfsr & 1) != 0);
    }
    OooCore core(p, b.build());
    core.run(0);
    EXPECT_GT(core.stats().branch_mispredicts, 500u);
    EXPECT_GT(core.stats().wrong_path_dispatched, 0u);
    EXPECT_GT(core.stats().squashed_uops, 0u);
    const auto &disp = core.accountant().cycles(Stage::kDispatch);
    EXPECT_GT(disp[CpiComponent::kBpred], 0.0);
    // Perfect prediction removes the cost.
    CoreParams ideal = idealCoreParams();
    TraceBuilder b2;
    lfsr = 0xace1u;
    for (int i = 0; i < 5000; ++i) {
        b2.alu();
        b2.alu();
        b2.alu();
        lfsr = (lfsr >> 1) ^ (-(lfsr & 1u) & 0xb400u);
        b2.at(0x400000);
        b2.branch((lfsr & 1) != 0);
    }
    OooCore perfect(ideal, b2.build());
    perfect.run(0);
    EXPECT_LT(perfect.cycles() * 2, core.cycles());
}

TEST(PipelineStalls, WellPredictedBranchesAreCheap)
{
    CoreParams p = idealCoreParams();
    p.bpred.perfect = false;
    TraceBuilder b;
    for (int i = 0; i < 5000; ++i) {
        b.alu();
        b.alu();
        b.alu();
        b.at(0x400000);
        b.branch(true);  // always taken: trivially learnable
    }
    OooCore core(p, b.build());
    core.run(0);
    EXPECT_LT(core.stats().branch_mispredicts, 10u);
    EXPECT_NEAR(core.cpi(), 0.25, 0.05);
}

TEST(PipelineStalls, MicrocodeOccupiesDecoder)
{
    CoreParams p = idealCoreParams();
    TraceBuilder b;
    for (int i = 0; i < 2000; ++i) {
        b.microcoded(5);
        b.alu();
        b.alu();
        b.alu();
    }
    OooCore core(p, b.build());
    core.run(0);
    const auto &disp = core.accountant().cycles(Stage::kDispatch);
    EXPECT_GT(disp[CpiComponent::kMicrocode], 0.0);
    // Each microcoded uop holds the decoder 4 extra cycles; with 4 uops
    // per iteration the CPI is dominated by decode: ~5 cycles / 4 uops.
    EXPECT_GT(core.cpi(), 1.0);
}

TEST(PipelineStalls, YieldsFreezeTheCoreAndCountAsUnsched)
{
    CoreParams p = idealCoreParams();
    TraceBuilder b;
    for (int i = 0; i < 100; ++i)
        b.alu();
    b.yield(500);
    for (int i = 0; i < 100; ++i)
        b.alu();
    OooCore core(p, b.build());
    core.run(0);
    EXPECT_GT(core.cycles(), 500u);
    for (Stage s : {Stage::kDispatch, Stage::kIssue, Stage::kCommit}) {
        EXPECT_NEAR(core.accountant().cycles(s)[CpiComponent::kUnsched],
                    500.0, 1.0)
            << toString(s);
    }
    EXPECT_NEAR(
        core.accountant().flopsCycles()[stacks::FlopsComponent::kUnsched],
        500.0, 1.0);
}

TEST(PipelineStalls, LoadStoreConflictDelaysLoadAsOther)
{
    CoreParams p = idealCoreParams();
    TraceBuilder b;
    for (int i = 0; i < 2000; ++i) {
        auto slow = b.mul();
        auto slow2 = b.mul({slow});
        auto slow3 = b.mul({slow2});
        auto st = b.store(0x1000, {slow3});  // store waits on mul chain
        b.load(0x1000);  // aliases the pending store
        (void)st;
    }
    OooCore core(p, b.build());
    core.run(0);
    const auto &iss = core.accountant().cycles(Stage::kIssue);
    EXPECT_GT(iss[CpiComponent::kOther], 0.0);
}

TEST(PipelineStalls, DisabledAccountingProducesNoStacks)
{
    CoreParams p = idealCoreParams();
    p.accounting_enabled = false;
    TraceBuilder b;
    for (int i = 0; i < 1000; ++i)
        b.alu();
    OooCore core(p, b.build());
    core.run(0);
    EXPECT_GT(core.cycles(), 0u);
    EXPECT_DOUBLE_EQ(core.accountant().cycles(Stage::kDispatch).sum(), 0.0);
}

}  // namespace
}  // namespace stackscope::core
