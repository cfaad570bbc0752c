/**
 * @file
 * FLOPS stack accounting (paper Table III and Equation 1).
 *
 * A FLOPS stack is an issue-stage stack restricted to vector floating
 * point work. Peak per-cycle work is M = 2 * k * v flops (k vector units,
 * v lanes, factor 2 for FMA); each cycle is decomposed into the fraction
 * of peak achieved (base) and the reasons the rest was lost: non-FMA
 * instructions, masked lanes, no VFP instructions available (frontend),
 * vector units used by non-FP ops, and VFP work waiting on memory or on
 * other producers.
 */

#ifndef STACKSCOPE_STACKS_FLOPS_ACCOUNTANT_HPP
#define STACKSCOPE_STACKS_FLOPS_ACCOUNTANT_HPP

#include <cstdint>

#include "stacks/cycle_state.hpp"
#include "stacks/stack.hpp"

namespace stackscope::stacks {

/** Machine parameters of the FLOPS stack. */
struct FlopsAccountantConfig
{
    unsigned vpu_count = 2;  ///< k: vector floating-point units
    unsigned vec_lanes = 16; ///< v: SP elements per vector
};

/**
 * Accumulates a FLOPS stack cycle by cycle (Table III).
 *
 * Invariant: the per-cycle contributions of all components sum to exactly
 * 1, so cycles().sum() equals the number of accounted cycles.
 */
class FlopsAccountant
{
  public:
    explicit FlopsAccountant(const FlopsAccountantConfig &config);

    /**
     * Account @p n consecutive cycles that all observed @p state. Table
     * III has no cross-cycle carry, so each contribution is computed once
     * and scaled by n (bitwise equal to one per-cycle tick for n == 1).
     */
    void tick(const CycleState &state, Cycle n = 1);

    /** Per-component cycle counts. */
    const FlopsStack &cycles() const { return cycles_; }

    /** Peak flops per cycle: M = 2 * k * v. */
    double peakFlopsPerCycle() const
    {
        return 2.0 * config_.vpu_count * config_.vec_lanes;
    }

    /**
     * Convert to absolute FLOPS units (Equation 1): each component is
     * multiplied by freq_hz * M / total_cycles, so the stack height is
     * the machine peak and the base component is the achieved FLOPS.
     */
    FlopsStack asFlops(std::uint64_t total_cycles, double freq_hz) const;

    /** Achieved FLOPS (the base component of asFlops()). */
    double achievedFlops(std::uint64_t total_cycles, double freq_hz) const;

    const FlopsAccountantConfig &config() const { return config_; }

  private:
    FlopsAccountantConfig config_;
    FlopsStack cycles_;
};

}  // namespace stackscope::stacks

#endif  // STACKSCOPE_STACKS_FLOPS_ACCOUNTANT_HPP
