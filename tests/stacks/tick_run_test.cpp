/** Seeded property test for tick(state, n): accounting a run of n
 *  identical cycles in one call must equal n per-cycle ticks. The match
 *  is bitwise when every per-cycle fraction is dyadic (W in {2, 4} and
 *  the preset FLOPS peaks 2*2*{8, 16}) and within 1e-9 * n otherwise
 *  (W in {3, 6}), and every stack sums to the number of cycles ticked.
 *  Inputs cover active, idle, unscheduled and VFP states, run lengths
 *  from 1 to 10^6, and runs that start with a nonzero §III-A carry. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "stacks/stack_accountant.hpp"

namespace stackscope::stacks {
namespace {

constexpr std::uint64_t kSeed = 0x7a11c0de;
constexpr int kRunsPerConfig = 40;
constexpr Cycle kMaxRun = 1'000'000;

/** Table III inputs of n_vfp issued VFP uops, each consistent with its
 *  own a (1 = plain, 2 = FMA) and m active lanes out of v. */
void
addVfpIssue(Rng &rng, unsigned n_vfp, unsigned v, CycleState &s)
{
    s.n_vfp = n_vfp;
    for (unsigned i = 0; i < n_vfp; ++i) {
        const double a = rng.chance(0.5) ? 2.0 : 1.0;
        const double m = static_cast<double>(rng.range(1, v));
        s.vfp_lane_ops += a * m;
        s.vfp_nonfma_loss += (2.0 - a) * m;
        s.vfp_mask_loss += static_cast<double>(v) - m;
    }
}

/** A random observation; stage counts reach 2W so the carry builds up. */
CycleState
randomState(Rng &rng, unsigned w, unsigned k, unsigned v)
{
    CycleState s;
    s.fe_has_correct = rng.chance(0.5);
    s.fe_has_any = s.fe_has_correct || rng.chance(0.5);
    s.fe_reason = static_cast<FrontendReason>(rng.below(5));
    s.backend_full = rng.chance(0.3);
    s.rob_empty_correct = rng.chance(0.3);
    s.rob_empty_any = s.rob_empty_correct && rng.chance(0.5);
    s.head_incomplete = rng.chance(0.5);
    s.head_blame = static_cast<BackendBlame>(rng.below(4));
    s.rs_empty_correct = rng.chance(0.3);
    s.rs_empty_any = s.rs_empty_correct && rng.chance(0.5);
    s.ready_unissued = rng.chance(0.3);
    s.issue_blame = static_cast<BackendBlame>(rng.below(4));
    s.vfp_in_rs = rng.chance(0.4);
    s.vfp_blame = static_cast<VfpBlame>(rng.below(3));

    const std::uint64_t kind = rng.below(10);
    if (kind == 0) {
        s = CycleState{};
        s.unsched = true;
    } else if (kind <= 5) {
        // Active: counts up to 2W, and VFP issue up to the k units.
        s.n_dispatch = static_cast<std::uint32_t>(rng.below(2 * w + 1));
        s.n_dispatch_wrong = static_cast<std::uint32_t>(rng.below(w + 1));
        s.n_issue = static_cast<std::uint32_t>(rng.below(2 * w + 1));
        s.n_issue_wrong = static_cast<std::uint32_t>(rng.below(w + 1));
        s.n_commit = static_cast<std::uint32_t>(rng.below(2 * w + 1));
        s.nonvfp_on_vpu = static_cast<std::uint32_t>(rng.below(k + 1));
        addVfpIssue(rng, static_cast<unsigned>(rng.below(k + 1)), v, s);
    }
    // Otherwise idle: every stage count is zero.
    return s;
}

/** Log-uniform over [1, kMaxRun], with the short end well covered. */
Cycle
randomRunLength(Rng &rng)
{
    if (rng.chance(0.3))
        return 1 + rng.below(4);
    const double e = rng.uniform() * std::log10(static_cast<double>(kMaxRun));
    return static_cast<Cycle>(std::pow(10.0, e));
}

template <typename StackT>
std::vector<double>
components(const StackT &st)
{
    std::vector<double> out;
    st.forEach([&](auto, double x) { out.push_back(x); });
    return out;
}

/** Bitwise equal when @p exact, else within 1e-9 * run. */
template <typename StackT>
void
expectMatch(const StackT &folded, const StackT &stepped, bool exact,
            Cycle run)
{
    const std::vector<double> f = components(folded);
    const std::vector<double> s = components(stepped);
    ASSERT_EQ(f.size(), s.size());
    for (std::size_t i = 0; i < f.size(); ++i) {
        if (exact)
            EXPECT_EQ(f[i], s[i]) << "component " << i;
        else
            EXPECT_NEAR(f[i], s[i], 1e-9 * static_cast<double>(run))
                << "component " << i;
    }
}

void
expectSumsTo(double sum, Cycle cycles, bool exact)
{
    if (exact)
        EXPECT_EQ(sum, static_cast<double>(cycles));
    else
        EXPECT_NEAR(sum, static_cast<double>(cycles),
                    1e-9 * static_cast<double>(cycles));
}

/**
 * One seeded property sweep at accounting width @p w: each trial starts
 * both sides from the per-cycle accountant's state (carry included),
 * then runs tick(s, n) on a copy against n calls of tick(s).
 */
void
checkWidth(unsigned w, SpeculationMode mode, unsigned v)
{
    const bool exact = (w & (w - 1)) == 0;
    constexpr unsigned k = 2;
    StackAccountant stepped({{w, w, w}, mode, k, v});

    Rng rng(kSeed + w * 131 + static_cast<unsigned>(mode) * 7 + v);
    Cycle ticked = 0;
    bool saw_carry = false;
    for (int trial = 0; trial < kRunsPerConfig; ++trial) {
        SCOPED_TRACE("W=" + std::to_string(w) + " trial " +
                     std::to_string(trial));
        // Half the runs start with a burst wider than W, which leaves a
        // §III-A carry for the run to drain.
        if (rng.chance(0.5)) {
            CycleState burst;
            burst.n_dispatch = burst.n_issue = burst.n_commit =
                static_cast<std::uint32_t>(w + 1 + rng.below(2 * w));
            stepped.tick(burst);
            ++ticked;
            saw_carry = true;
        }

        const CycleState s = randomState(rng, w, k, v);
        const Cycle n = randomRunLength(rng);
        StackAccountant folded = stepped;
        folded.tick(s, n);
        for (Cycle i = 0; i < n; ++i)
            stepped.tick(s);
        ticked += n;

        for (std::size_t i = 0; i < kNumStages; ++i) {
            const auto stage = static_cast<Stage>(i);
            expectMatch(folded.cycles(stage), stepped.cycles(stage), exact,
                        n);
            expectSumsTo(folded.cycles(stage).sum(), ticked, exact);
            expectSumsTo(stepped.cycles(stage).sum(), ticked, exact);
        }
        // The FLOPS stack does not depend on W: its peaks are dyadic.
        expectMatch(folded.flopsCycles(), stepped.flopsCycles(), true, n);
        expectSumsTo(folded.flopsCycles().sum(), ticked, true);
        if (::testing::Test::HasFailure())
            return;
    }
    EXPECT_TRUE(saw_carry);
}

TEST(TickRun, DyadicWidthsFoldBitwise)
{
    for (unsigned w : {2u, 4u}) {
        for (SpeculationMode mode :
             {SpeculationMode::kOracle, SpeculationMode::kSimple})
            checkWidth(w, mode, w == 2 ? 8 : 16);
    }
}

TEST(TickRun, NonDyadicWidthsFoldWithinTolerance)
{
    for (unsigned w : {3u, 6u}) {
        for (SpeculationMode mode :
             {SpeculationMode::kOracle, SpeculationMode::kSimple})
            checkWidth(w, mode, w == 3 ? 8 : 16);
    }
}

/** An idle run after a wide burst drains the carry cycle by cycle before
 *  the fold: the first cycles are pure base, the rest pure stall. */
TEST(TickRun, CarryDrainsBeforeTheFold)
{
    StackAccountant a({{4, 4, 4}, SpeculationMode::kOracle, 2, 16});
    const Stage stage = Stage::kCommit;
    CycleState burst;
    burst.n_commit = 14;  // f = 3.5: one cycle of base, carry 2.5
    a.tick(burst);

    CycleState idle;
    idle.rob_empty_correct = false;
    idle.rob_empty_any = false;
    idle.head_incomplete = true;
    idle.head_blame = BackendBlame::kDcache;
    a.tick(idle, 1000);

    // Carry 2.5 drains as base 1 + 1 + 0.5; the remaining 997.5 cycles
    // land on the ROB head's Dcache miss.
    EXPECT_EQ(a.cycles(stage)[CpiComponent::kBase], 3.5);
    EXPECT_EQ(a.cycles(stage)[CpiComponent::kDcache], 997.5);
    EXPECT_EQ(a.cycles(stage).sum(), 1001.0);
}

}  // namespace
}  // namespace stackscope::stacks
