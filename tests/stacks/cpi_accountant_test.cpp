/** Unit tests for the Table II per-stage CPI accounting algorithms of
 *  StackAccountant, driven by hand-constructed CycleState sequences and
 *  read one stage's stack at a time. */

#include "stacks/stack_accountant.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace stackscope::stacks {
namespace {

/** Every stage accounted at @p width. */
StackAccountantConfig
cfg(unsigned width = 4, SpeculationMode mode = SpeculationMode::kOracle)
{
    StackAccountantConfig c;
    c.widths = {width, width, width};
    c.spec_mode = mode;
    return c;
}

/** A fully-utilized cycle. */
CycleState
fullCycle(unsigned width = 4)
{
    CycleState s;
    s.n_dispatch = width;
    s.n_issue = width;
    s.n_commit = width;
    s.fe_has_correct = true;
    s.fe_has_any = true;
    s.rob_empty_correct = false;
    s.rob_empty_any = false;
    s.rs_empty_correct = false;
    s.rs_empty_any = false;
    return s;
}

TEST(CpiAccountant, FullWidthAccountsBaseOnly)
{
    StackAccountant a(cfg());
    const Stage stage = Stage::kDispatch;
    for (int i = 0; i < 10; ++i)
        a.tick(fullCycle());
    a.finalize();
    EXPECT_DOUBLE_EQ(a.cycles(stage)[CpiComponent::kBase], 10.0);
    EXPECT_DOUBLE_EQ(a.cycles(stage).sum(), 10.0);
}

TEST(CpiAccountant, PartialWidthSplitsBaseAndStall)
{
    StackAccountant a(cfg());
    const Stage stage = Stage::kDispatch;
    CycleState s = fullCycle();
    s.n_dispatch = 1;  // f = 1/4
    s.fe_has_correct = false;
    s.fe_has_any = false;
    s.fe_reason = FrontendReason::kIcache;
    a.tick(s);
    a.finalize();
    EXPECT_DOUBLE_EQ(a.cycles(stage)[CpiComponent::kBase], 0.25);
    EXPECT_DOUBLE_EQ(a.cycles(stage)[CpiComponent::kIcache], 0.75);
}

TEST(CpiAccountant, DispatchFrontendReasons)
{
    const struct
    {
        FrontendReason reason;
        CpiComponent comp;
    } cases[] = {
        {FrontendReason::kIcache, CpiComponent::kIcache},
        {FrontendReason::kBpred, CpiComponent::kBpred},
        {FrontendReason::kMicrocode, CpiComponent::kMicrocode},
        {FrontendReason::kDrain, CpiComponent::kOther},
    };
    for (const auto &c : cases) {
        StackAccountant a(cfg());
        const Stage stage = Stage::kDispatch;
        CycleState s;
        s.fe_reason = c.reason;
        a.tick(s);
        a.finalize();
        EXPECT_DOUBLE_EQ(a.cycles(stage)[c.comp], 1.0)
            << static_cast<int>(c.reason);
    }
}

TEST(CpiAccountant, DispatchBackendFullBlamesHead)
{
    const struct
    {
        BackendBlame blame;
        CpiComponent comp;
    } cases[] = {
        {BackendBlame::kDcache, CpiComponent::kDcache},
        {BackendBlame::kAluLat, CpiComponent::kAluLat},
        {BackendBlame::kDepend, CpiComponent::kDepend},
    };
    for (const auto &c : cases) {
        StackAccountant a(cfg());
        const Stage stage = Stage::kDispatch;
        CycleState s;
        s.fe_has_correct = true;  // frontend has work, backend is full
        s.fe_has_any = true;
        s.backend_full = true;
        s.head_blame = c.blame;
        a.tick(s);
        a.finalize();
        EXPECT_DOUBLE_EQ(a.cycles(stage)[c.comp], 1.0);
    }
}

TEST(CpiAccountant, DispatchFrontendEmptyHasPriorityOverBackendFull)
{
    // Table II checks "FE empty" before "ROB or RS full".
    StackAccountant a(cfg());
    const Stage stage = Stage::kDispatch;
    CycleState s;
    s.fe_has_correct = false;
    s.fe_has_any = false;
    s.fe_reason = FrontendReason::kIcache;
    s.backend_full = true;
    s.head_blame = BackendBlame::kDcache;
    a.tick(s);
    a.finalize();
    EXPECT_DOUBLE_EQ(a.cycles(stage)[CpiComponent::kIcache], 1.0);
    EXPECT_DOUBLE_EQ(a.cycles(stage)[CpiComponent::kDcache], 0.0);
}

TEST(CpiAccountant, IssueBlamesProducerOfFirstNonReady)
{
    StackAccountant a(cfg());
    const Stage stage = Stage::kIssue;
    CycleState s;
    s.rs_empty_correct = false;
    s.rs_empty_any = false;
    s.issue_blame = BackendBlame::kDcache;
    a.tick(s);
    s.issue_blame = BackendBlame::kAluLat;
    a.tick(s);
    s.issue_blame = BackendBlame::kDepend;
    a.tick(s);
    a.finalize();
    EXPECT_DOUBLE_EQ(a.cycles(stage)[CpiComponent::kDcache], 1.0);
    EXPECT_DOUBLE_EQ(a.cycles(stage)[CpiComponent::kAluLat], 1.0);
    EXPECT_DOUBLE_EQ(a.cycles(stage)[CpiComponent::kDepend], 1.0);
}

TEST(CpiAccountant, IssueStructuralStallIsOther)
{
    StackAccountant a(cfg());
    const Stage stage = Stage::kIssue;
    CycleState s;
    s.rs_empty_correct = false;
    s.rs_empty_any = false;
    s.ready_unissued = true;
    s.issue_blame = BackendBlame::kNone;
    s.n_issue = 2;
    a.tick(s);
    a.finalize();
    EXPECT_DOUBLE_EQ(a.cycles(stage)[CpiComponent::kBase], 0.5);
    EXPECT_DOUBLE_EQ(a.cycles(stage)[CpiComponent::kOther], 0.5);
}

TEST(CpiAccountant, IssueRsEmptyUsesFrontendReason)
{
    StackAccountant a(cfg());
    const Stage stage = Stage::kIssue;
    CycleState s;
    s.rs_empty_correct = true;
    s.rs_empty_any = true;
    s.fe_reason = FrontendReason::kBpred;
    a.tick(s);
    a.finalize();
    EXPECT_DOUBLE_EQ(a.cycles(stage)[CpiComponent::kBpred], 1.0);
}

TEST(CpiAccountant, IssueRsEmptyWithBackendFullBlamesHead)
{
    // RS drained while the ROB is full (long Dcache miss): backend stall.
    StackAccountant a(cfg());
    const Stage stage = Stage::kIssue;
    CycleState s;
    s.rs_empty_correct = true;
    s.rs_empty_any = true;
    s.backend_full = true;
    s.head_blame = BackendBlame::kDcache;
    s.fe_reason = FrontendReason::kNone;
    a.tick(s);
    a.finalize();
    EXPECT_DOUBLE_EQ(a.cycles(stage)[CpiComponent::kDcache], 1.0);
}

TEST(CpiAccountant, CommitRobEmptyUsesFrontend)
{
    StackAccountant a(cfg());
    const Stage stage = Stage::kCommit;
    CycleState s;
    s.rob_empty_correct = true;
    s.rob_empty_any = true;
    s.fe_reason = FrontendReason::kIcache;
    a.tick(s);
    a.finalize();
    EXPECT_DOUBLE_EQ(a.cycles(stage)[CpiComponent::kIcache], 1.0);
}

TEST(CpiAccountant, CommitHeadIncompleteBlamesHead)
{
    StackAccountant a(cfg());
    const Stage stage = Stage::kCommit;
    CycleState s;
    s.rob_empty_correct = false;
    s.rob_empty_any = false;
    s.head_incomplete = true;
    s.head_blame = BackendBlame::kAluLat;
    s.n_commit = 1;
    a.tick(s);
    a.finalize();
    EXPECT_DOUBLE_EQ(a.cycles(stage)[CpiComponent::kBase], 0.25);
    EXPECT_DOUBLE_EQ(a.cycles(stage)[CpiComponent::kAluLat], 0.75);
}

TEST(CpiAccountant, UnschedCycles)
{
    StackAccountant a(cfg());
    const Stage stage = Stage::kCommit;
    CycleState s;
    s.unsched = true;
    a.tick(s);
    a.tick(s);
    a.finalize();
    EXPECT_DOUBLE_EQ(a.cycles(stage)[CpiComponent::kUnsched], 2.0);
    EXPECT_DOUBLE_EQ(a.cycles(stage).sum(), 2.0);
}

TEST(CpiAccountant, WidthCarryOverForWiderStage)
{
    // Issue stage wider than W: issuing 6 with W=4 gives f=1.5; the 0.5
    // excess transfers to the next cycle (§III-A).
    StackAccountant a(cfg(4));
    const Stage stage = Stage::kIssue;
    CycleState s = fullCycle();
    s.n_issue = 6;
    a.tick(s);
    CycleState idle;
    idle.rs_empty_correct = true;
    idle.rs_empty_any = true;
    idle.fe_reason = FrontendReason::kIcache;
    a.tick(idle);
    a.finalize();
    // Cycle 1: base 1.0. Cycle 2: carry 0.5 -> base 0.5, icache 0.5.
    EXPECT_DOUBLE_EQ(a.cycles(stage)[CpiComponent::kBase], 1.5);
    EXPECT_DOUBLE_EQ(a.cycles(stage)[CpiComponent::kIcache], 0.5);
    EXPECT_DOUBLE_EQ(a.cycles(stage).sum(), 2.0);
}

TEST(CpiAccountant, EveryCycleSumsToOne)
{
    // Property: whatever the state, each tick adds exactly 1 cycle
    // (barring carry-over, which this state sequence avoids).
    StackAccountant a(cfg());
    const Stage stage = Stage::kDispatch;
    CycleState states[4];
    states[0] = fullCycle();
    states[1].fe_reason = FrontendReason::kBpred;
    states[2].backend_full = true;
    states[2].fe_has_correct = true;
    states[2].fe_has_any = true;
    states[2].head_blame = BackendBlame::kDcache;
    states[3].unsched = true;
    double expected = 0.0;
    for (int i = 0; i < 100; ++i) {
        a.tick(states[i % 4]);
        expected += 1.0;
    }
    a.finalize();
    EXPECT_NEAR(a.cycles(stage).sum(), expected, 1e-9);
}

TEST(CpiAccountant, CpiDividesByInstructions)
{
    StackAccountant a(cfg());
    const Stage stage = Stage::kCommit;
    for (int i = 0; i < 8; ++i)
        a.tick(fullCycle());
    a.finalize();
    const CpiStack cpi = a.cpi(stage, 32);  // 8 cycles, 32 instrs
    EXPECT_DOUBLE_EQ(cpi[CpiComponent::kBase], 0.25);
    EXPECT_DOUBLE_EQ(a.cpi(stage, 0).sum(), 0.0);
}

TEST(CpiAccountant, SimpleModeCountsWrongPathThenFixup)
{
    StackAccountant a(cfg(4, SpeculationMode::kSimple));
    const Stage stage = Stage::kDispatch;
    // 2 correct + 2 wrong-path uops per cycle for 10 cycles, of which
    // only the 2 correct ones commit.
    CycleState s = fullCycle();
    s.n_dispatch = 2;
    s.n_dispatch_wrong = 2;
    s.n_commit = 2;
    for (int i = 0; i < 10; ++i)
        a.tick(s);
    EXPECT_DOUBLE_EQ(a.cycles(stage)[CpiComponent::kBase], 10.0);
    // finalize(): the commit-stage base is 5.0, so the surplus of 5
    // moves to bpred.
    a.finalize();
    EXPECT_DOUBLE_EQ(a.cycles(stage)[CpiComponent::kBase], 5.0);
    EXPECT_DOUBLE_EQ(a.cycles(stage)[CpiComponent::kBpred], 5.0);
}

TEST(CpiAccountant, OracleModeIgnoresWrongPath)
{
    StackAccountant a(cfg(4, SpeculationMode::kOracle));
    const Stage stage = Stage::kDispatch;
    CycleState s = fullCycle();
    s.n_dispatch = 0;
    s.n_dispatch_wrong = 4;
    s.fe_has_correct = false;  // only wrong-path work available
    s.fe_reason = FrontendReason::kBpred;
    a.tick(s);
    a.finalize();
    EXPECT_DOUBLE_EQ(a.cycles(stage)[CpiComponent::kBase], 0.0);
    EXPECT_DOUBLE_EQ(a.cycles(stage)[CpiComponent::kBpred], 1.0);
}

TEST(StackAccountant, ChecksConfigAndLifecycle)
{
    for (std::size_t stage = 0; stage < kNumStages; ++stage) {
        StackAccountantConfig c = cfg();
        c.widths[stage] = 0;
        EXPECT_THROW(StackAccountant{c}, StackscopeError);
    }
    StackAccountantConfig no_vpu = cfg();
    no_vpu.vpu_count = 0;
    EXPECT_THROW(StackAccountant{no_vpu}, StackscopeError);
    StackAccountantConfig no_lanes = cfg();
    no_lanes.vec_lanes = 0;
    EXPECT_THROW(StackAccountant{no_lanes}, StackscopeError);

    // Spec-counter stacks hold uncommitted epochs until finalize().
    StackAccountant spec(cfg(4, SpeculationMode::kSpecCounters));
    spec.tick(fullCycle());
    EXPECT_THROW((void)spec.cycles(Stage::kCommit), StackscopeError);
    spec.finalize();
    EXPECT_DOUBLE_EQ(spec.cycles(Stage::kCommit).sum(), 1.0);
    EXPECT_THROW(spec.tick(fullCycle()), StackscopeError);
}

}  // namespace
}  // namespace stackscope::stacks
