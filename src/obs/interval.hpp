/**
 * @file
 * Interval stack accounting: a time-series of per-window CPI and FLOPS
 * stacks alongside the whole-run aggregates.
 *
 * The paper's stacks are whole-run aggregates, but its case studies live
 * on seeing *where* in a run a bottleneck appears (cf. the sensitivity /
 * causality line of Dutilleul et al. and the bottleneck detection of
 * Pompougnac et al., which both need time-resolved data). The interval
 * accountant piggy-backs on the per-cycle accounting the core already
 * performs: at every window boundary it records the difference between
 * the accountant's cumulative stacks and the previous snapshot — no
 * second accounting pass, no per-cycle work beyond one comparison, in
 * the spirit of the paper's <1% overhead claim (§IV).
 *
 * Conservation by construction: the window stacks telescope, so their
 * component-wise sum equals the whole-run stack to within floating-point
 * rounding (each window's stack-law invariants hold up to the ±1-cycle
 * carry the §III-A width-normalization rule moves across boundaries).
 */

#ifndef STACKSCOPE_OBS_INTERVAL_HPP
#define STACKSCOPE_OBS_INTERVAL_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "stacks/stack.hpp"

namespace stackscope::core {
class OooCore;
}

namespace stackscope::obs {

/** The stacks accumulated over one window of measured cycles. */
struct IntervalSample
{
    /** Measured-cycle window [start, end). */
    Cycle start = 0;
    Cycle end = 0;
    /** Instructions committed within the window. */
    std::uint64_t instrs = 0;
    /** Per-stage CPI stacks in cycle units, indexed by stacks::Stage. */
    std::array<stacks::CpiStack, stacks::kNumStages> cycle_stacks{};
    /** FLOPS stack in cycle units. */
    stacks::FlopsStack flops_cycles{};

    Cycle cycles() const { return end - start; }

    const stacks::CpiStack &
    cycleStack(stacks::Stage s) const
    {
        return cycle_stacks[static_cast<std::size_t>(s)];
    }
};

/** The full interval time-series of one run. */
struct IntervalSeries
{
    /** Nominal window length in measured cycles (0 = disabled). */
    Cycle window = 0;
    /** Chronological samples; the last window may be shorter. */
    std::vector<IntervalSample> samples;

    bool enabled() const { return window != 0; }

    /**
     * Component-wise (cycle-weighted) sum of all window stacks for one
     * stage — equals the whole-run cycle stack within rounding.
     * Compensated (long double) accumulation keeps the telescoping error
     * below 1e-9 of the aggregate.
     */
    stacks::CpiStack summedCycleStack(stacks::Stage stage) const;

    /** Same for the FLOPS stack. */
    stacks::FlopsStack summedFlopsCycles() const;
};

/**
 * Snapshots a core's stack accountant at fixed cycle boundaries.
 *
 * Usage (mirrors validate::IntervalValidator): after every core cycle,
 * `if (acct.due(core.cycles())) acct.snapshot(core);`; after
 * finalizeAccounting() call finish(core) — it emits the final partial
 * window from the *finalized* stacks, so any mass finalize() moves
 * (e.g. the kSimple §III-B fixup) lands in the last sample and the
 * series still sums exactly to the aggregate.
 *
 * Not usable with SpeculationMode::kSpecCounters, whose stacks are
 * undefined before finalize(); the sim driver rejects that combination
 * with a kConfig error.
 */
class IntervalAccountant
{
  public:
    explicit IntervalAccountant(Cycle window);

    /** True when a boundary is due at measured cycle @p elapsed. */
    bool
    due(Cycle elapsed) const
    {
        return window_ != 0 && elapsed >= next_;
    }

    /**
     * The next boundary in measured cycles — drivers feed it into
     * core::OooCore::setCycleHorizon() so idle skip-ahead never jumps a
     * window edge (0 when disabled maps to an immediate horizon; callers
     * must check enabled() via window()).
     */
    Cycle nextBoundary() const { return next_; }

    /** Nominal window length (0 = disabled). */
    Cycle window() const { return window_; }

    /** Record the window ending at the current measured cycle. */
    void snapshot(const core::OooCore &core);

    /**
     * Close the series after finalizeAccounting(): emits the trailing
     * partial window (or folds any finalize()-time redistribution into
     * the last sample when the run ended exactly on a boundary).
     */
    void finish(const core::OooCore &core);

    /** Move the accumulated series out. */
    IntervalSeries take() { return std::move(series_); }

  private:
    void capture(const core::OooCore &core, Cycle now);

    Cycle window_;
    Cycle next_;
    IntervalSeries series_;

    /** Cumulative state at the previous boundary. */
    Cycle prev_cycles_ = 0;
    std::uint64_t prev_instrs_ = 0;
    std::array<stacks::CpiStack, stacks::kNumStages> prev_stacks_{};
    stacks::FlopsStack prev_flops_{};
};

}  // namespace stackscope::obs

#endif  // STACKSCOPE_OBS_INTERVAL_HPP
