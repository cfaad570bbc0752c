/** Tests for the wrong-path handling strategies of §III-B. */

#include "stacks/speculation.hpp"

#include <gtest/gtest.h>

namespace stackscope::stacks {
namespace {

/** Add @p value to component @p c of stage 0's current stack, and
 *  (s + 1) * @p value to stage s's, so mixed-up stages show. */
void
add(SpeculativeCounters &sc, CpiComponent c, double value)
{
    StageStacks &stacks = sc.current();
    for (std::size_t s = 0; s < kNumStages; ++s)
        stacks[s][c] += static_cast<double>(s + 1) * value;
}

/** Component @p c of stage 0's committed stack; the other stages must
 *  hold their multiples of it. */
double
committed(const SpeculativeCounters &sc, CpiComponent c)
{
    const StageStacks &stacks = sc.committed();
    for (std::size_t s = 1; s < kNumStages; ++s)
        EXPECT_EQ(stacks[s][c], static_cast<double>(s + 1) * stacks[0][c]);
    return stacks[0][c];
}

/** Total of stage 0's committed stack, checked like committed(). */
double
committedSum(const SpeculativeCounters &sc)
{
    const StageStacks &stacks = sc.committed();
    for (std::size_t s = 1; s < kNumStages; ++s)
        EXPECT_EQ(stacks[s].sum(),
                  static_cast<double>(s + 1) * stacks[0].sum());
    return stacks[0].sum();
}

TEST(SpeculationModeNames, RoundTripAndStayStable)
{
    // The names are CLI and wire values and feed report bytes and spec
    // hashes, so they must never drift.
    EXPECT_EQ(toString(SpeculationMode::kOracle), "oracle");
    EXPECT_EQ(toString(SpeculationMode::kSimple), "simple");
    EXPECT_EQ(toString(SpeculationMode::kSpecCounters), "spec-counters");
    for (const SpeculationMode mode : kSpeculationModes)
        EXPECT_EQ(parseSpeculationMode(toString(mode)), mode);
    EXPECT_FALSE(parseSpeculationMode("Oracle").has_value());
    EXPECT_FALSE(parseSpeculationMode("").has_value());
}

TEST(SpeculativeCounters, NoBranchesGoesStraightToCommitted)
{
    SpeculativeCounters sc;
    add(sc, CpiComponent::kBase, 2.0);
    EXPECT_DOUBLE_EQ(committed(sc, CpiComponent::kBase), 2.0);
    EXPECT_EQ(sc.pendingEpochs(), 0u);
}

TEST(SpeculativeCounters, CorrectBranchFlushesEpoch)
{
    SpeculativeCounters sc;
    sc.onBranchFetched(1);
    add(sc, CpiComponent::kBase, 3.0);
    EXPECT_DOUBLE_EQ(committed(sc, CpiComponent::kBase), 0.0);
    sc.onBranchResolved(1, /*mispredicted=*/false);
    EXPECT_DOUBLE_EQ(committed(sc, CpiComponent::kBase), 3.0);
    EXPECT_EQ(sc.pendingEpochs(), 0u);
}

TEST(SpeculativeCounters, MispredictedBranchCreditsBpred)
{
    SpeculativeCounters sc;
    sc.onBranchFetched(1);
    add(sc, CpiComponent::kBase, 2.0);
    add(sc, CpiComponent::kDcache, 1.0);
    sc.onBranchResolved(1, /*mispredicted=*/true);
    // Everything buffered since the branch was speculative work.
    EXPECT_DOUBLE_EQ(committed(sc, CpiComponent::kBpred), 3.0);
    EXPECT_DOUBLE_EQ(committed(sc, CpiComponent::kBase), 0.0);
    EXPECT_DOUBLE_EQ(committed(sc, CpiComponent::kDcache), 0.0);
}

TEST(SpeculativeCounters, NestedBranchesMergeIntoParent)
{
    SpeculativeCounters sc;
    sc.onBranchFetched(1);
    add(sc, CpiComponent::kBase, 1.0);
    sc.onBranchFetched(2);
    add(sc, CpiComponent::kBase, 1.0);
    // Inner branch correct: merges into branch 1's epoch, not committed.
    sc.onBranchResolved(2, false);
    EXPECT_DOUBLE_EQ(committed(sc, CpiComponent::kBase), 0.0);
    EXPECT_EQ(sc.pendingEpochs(), 1u);
    sc.onBranchResolved(1, false);
    EXPECT_DOUBLE_EQ(committed(sc, CpiComponent::kBase), 2.0);
}

TEST(SpeculativeCounters, MispredictSquashesYoungerEpochs)
{
    SpeculativeCounters sc;
    sc.onBranchFetched(1);
    add(sc, CpiComponent::kBase, 1.0);
    sc.onBranchFetched(2);
    add(sc, CpiComponent::kIcache, 2.0);
    sc.onBranchFetched(3);
    add(sc, CpiComponent::kDepend, 4.0);
    // Branch 1 mispredicts: its epoch AND the younger ones go to bpred.
    sc.onBranchResolved(1, true);
    EXPECT_DOUBLE_EQ(committed(sc, CpiComponent::kBpred), 7.0);
    EXPECT_EQ(sc.pendingEpochs(), 0u);
    // Late resolutions of squashed branches are ignored.
    sc.onBranchResolved(2, false);
    sc.onBranchResolved(3, true);
    EXPECT_DOUBLE_EQ(committedSum(sc), 7.0);
}

TEST(SpeculativeCounters, FinalizeFlushesOutstanding)
{
    SpeculativeCounters sc;
    sc.onBranchFetched(1);
    add(sc, CpiComponent::kBase, 5.0);
    sc.finalize();
    EXPECT_DOUBLE_EQ(committed(sc, CpiComponent::kBase), 5.0);
    EXPECT_EQ(sc.pendingEpochs(), 0u);
}

TEST(SpeculativeCounters, TotalIsConservedAcrossOutcomes)
{
    // Property: whatever the resolution pattern, the committed total
    // equals everything ever added.
    SpeculativeCounters sc;
    double added = 0.0;
    for (int round = 0; round < 50; ++round) {
        sc.onBranchFetched(100 + round);
        add(sc, CpiComponent::kBase, 1.0);
        add(sc, CpiComponent::kDcache, 0.5);
        added += 1.5;
        sc.onBranchResolved(100 + round, round % 3 == 0);
    }
    sc.finalize();
    EXPECT_NEAR(committedSum(sc), added, 1e-9);
}

TEST(SimpleFixup, MovesSurplusBaseToBpred)
{
    CpiStack s;
    s[CpiComponent::kBase] = 10.0;
    s[CpiComponent::kIcache] = 2.0;
    applySimpleSpeculationFixup(s, 7.0);
    EXPECT_DOUBLE_EQ(s[CpiComponent::kBase], 7.0);
    EXPECT_DOUBLE_EQ(s[CpiComponent::kBpred], 3.0);
    EXPECT_DOUBLE_EQ(s[CpiComponent::kIcache], 2.0);
}

TEST(SimpleFixup, NoSurplusNoChange)
{
    CpiStack s;
    s[CpiComponent::kBase] = 5.0;
    applySimpleSpeculationFixup(s, 7.0);
    EXPECT_DOUBLE_EQ(s[CpiComponent::kBase], 5.0);
    EXPECT_DOUBLE_EQ(s[CpiComponent::kBpred], 0.0);
}

}  // namespace
}  // namespace stackscope::stacks
