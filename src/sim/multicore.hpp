/**
 * @file
 * Homogeneous multi-core simulation with a shared uncore, plus the
 * component-wise stack aggregation of the paper's methodology (§IV,
 * following Heirman et al. [10]: threads behave homogeneously, so stacks
 * are averaged component per component).
 */

#ifndef STACKSCOPE_SIM_MULTICORE_HPP
#define STACKSCOPE_SIM_MULTICORE_HPP

#include <vector>

#include "sim/simulation.hpp"

namespace stackscope::sim {

/** Result of an n-core homogeneous run. */
struct MulticoreResult
{
    std::vector<SimResult> per_core;

    /** Component-wise average of the per-core CPI stacks (CPI units). */
    std::array<stacks::CpiStack, stacks::kNumStages> avg_cpi_stacks{};
    /** Component-wise average of the normalized per-core FLOPS stacks. */
    stacks::FlopsStack avg_flops_fraction{};
    /** Component-wise average of the normalized commit IPC stacks. */
    stacks::CpiStack avg_ipc_fraction{};

    double avg_cpi = 0.0;
    double avg_ipc = 0.0;

    /**
     * Merged validation outcome of all cores (each violation detail is
     * prefixed with the core index); per-core reports stay available in
     * per_core[i].validation.
     */
    validate::ValidationReport validation{};

    /** Socket-level achieved FLOPS (base fraction x socket peak). */
    double socket_flops = 0.0;
    /** Socket-level peak FLOPS. */
    double socket_peak_flops = 0.0;

    const stacks::CpiStack &
    cpiStack(stacks::Stage s) const
    {
        return avg_cpi_stacks[static_cast<std::size_t>(s)];
    }

    /** Socket FLOPS stack in flops/s units (height = socket peak). */
    stacks::FlopsStack socketFlopsStack() const
    {
        return avg_flops_fraction.scaled(socket_peak_flops);
    }

    /** Socket IPC stack scaled to per-core IPC units (height = max IPC). */
    stacks::CpiStack ipcStack(unsigned width) const
    {
        return avg_ipc_fraction.scaled(static_cast<double>(width));
    }
};

/**
 * Run @p num_cores clones of @p trace in lockstep on @p machine, sharing
 * one uncore whose resources are the per-core slice times @p num_cores;
 * one core owns its uncore, which makes the very run simulate() makes.
 * Each core's data addresses are offset into a private region (threads of
 * the paper's HPC workloads work on distinct tiles), while code addresses
 * are shared.
 */
MulticoreResult simulateMulticore(const MachineConfig &machine,
                                  const trace::TraceSource &trace,
                                  unsigned num_cores,
                                  const SimOptions &options = {});

}  // namespace stackscope::sim

#endif  // STACKSCOPE_SIM_MULTICORE_HPP
