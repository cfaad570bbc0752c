/**
 * @file
 * Wrong-path handling strategies for the dispatch and issue stacks
 * (paper §III-B).
 *
 * - kOracle: the simulator is functional-first, so wrong-path uops are
 *   known at dispatch; they are excluded from the useful-slot count and
 *   the cycles they occupy are attributed to the bpred component.
 * - kSimple: hardware-realistic approximation; all uops count as useful at
 *   dispatch/issue, and after the run the surplus of the stage's base
 *   component over the commit base component is moved to the bpred
 *   component (this is Yasin's "bad speculation = issue slots - retire
 *   slots" rule).
 * - kSpecCounters: the speculative counter architecture; contributions are
 *   buffered per branch epoch and either flushed to the global counters
 *   when the branch turns out correct, or moved wholesale to the bpred
 *   component when it mispredicts.
 */

#ifndef STACKSCOPE_STACKS_SPECULATION_HPP
#define STACKSCOPE_STACKS_SPECULATION_HPP

#include <deque>
#include <optional>
#include <string_view>

#include "common/types.hpp"
#include "stacks/stack.hpp"

namespace stackscope::stacks {

/** Strategy for discriminating wrong-path work. */
enum class SpeculationMode
{
    kOracle,
    kSimple,
    kSpecCounters,
};

/** Every mode, in declaration order. */
inline constexpr SpeculationMode kSpeculationModes[] = {
    SpeculationMode::kOracle,
    SpeculationMode::kSimple,
    SpeculationMode::kSpecCounters,
};

/** "oracle", "simple" or "spec-counters": the CLI, wire and report name. */
std::string_view toString(SpeculationMode mode);

/** Parse a toString() name; nullopt for anything else. */
std::optional<SpeculationMode> parseSpeculationMode(std::string_view text);

/**
 * Branch-epoch buffer for SpeculationMode::kSpecCounters.
 *
 * Every cycle contribution goes to the epoch of the youngest in-flight
 * branch. One epoch holds all three stage stacks, so a branch event is
 * one operation. When a branch resolves correctly its epoch merges into
 * its parent; when it mispredicts, its epoch and all younger epochs are
 * credited to the bpred component, stage by stage.
 */
class SpeculativeCounters
{
  public:
    /** Record that the branch with sequence number @p seq was fetched. */
    void onBranchFetched(SeqNum seq);

    /**
     * Record the resolution of branch @p seq.
     * @param mispredicted squashes this epoch and all younger ones into
     *        the bpred component of the committed stacks.
     */
    void onBranchResolved(SeqNum seq, bool mispredicted);

    /**
     * Where contributions go now: the youngest epoch's stacks, or the
     * committed stacks while no branch is in flight. A branch event
     * invalidates the reference.
     */
    StageStacks &
    current()
    {
        return epochs_.empty() ? committed_ : epochs_.back().pending;
    }

    /** Committed (architecturally proven) counters. */
    const StageStacks &committed() const { return committed_; }

    /** Flush all outstanding epochs into the committed counters. */
    void finalize();

    /** Number of currently buffered epochs (for tests). */
    std::size_t pendingEpochs() const { return epochs_.size(); }

  private:
    struct Epoch
    {
        SeqNum branch_seq;
        StageStacks pending;
    };

    std::deque<Epoch> epochs_;
    StageStacks committed_{};
};

/**
 * Apply the kSimple post-processing rule: move the surplus of @p stack's
 * base component over @p commit_base into the bpred component.
 */
void applySimpleSpeculationFixup(CpiStack &stack, double commit_base);

}  // namespace stackscope::stacks

#endif  // STACKSCOPE_STACKS_SPECULATION_HPP
