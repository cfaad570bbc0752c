/**
 * @file
 * The simulation driver: run a trace on a machine configuration and
 * collect every stack plus summary statistics. simulate() is the
 * one-core case of the lockstep driver behind simulateMulticore()
 * (sim/multicore.hpp).
 */

#ifndef STACKSCOPE_SIM_SIMULATION_HPP
#define STACKSCOPE_SIM_SIMULATION_HPP

#include <array>
#include <memory>
#include <optional>
#include <string>

#include "obs/interval.hpp"
#include "obs/obs_options.hpp"
#include "obs/trace_events.hpp"
#include "sim/core_config.hpp"
#include "stacks/stack.hpp"
#include "trace/trace_source.hpp"
#include "validate/fault_injection.hpp"
#include "validate/invariants.hpp"

namespace stackscope::sim {

/** Run-time options independent of the machine. */
struct SimOptions
{
    stacks::SpeculationMode spec_mode = stacks::SpeculationMode::kOracle;
    bool accounting = true;
    /**
     * Select the per-cycle reference engine instead of the default
     * batched one (CLI `--engine reference`): every cycle ticks the
     * accountant on its own, with no idle-run fold and no skip-ahead
     * (CoreParams::batched_accounting = false). It is the per-cycle
     * oracle of the bit-identity suite and of bench/simspeed
     * (docs/performance.md).
     */
    bool reference_engine = false;
    /** Safety valve; 0 = unlimited. Truncates the run without error. */
    Cycle max_cycles = 0;
    /**
     * Instructions executed before measurement starts (caches and
     * predictor stay warm, counters reset) — the paper's fast-forward
     * methodology (§IV). std::nullopt means no warmup; the CLI defaults
     * this to half the measured instruction count.
     */
    std::optional<std::uint64_t> warmup_instrs{};
    /**
     * Runtime invariant checking: kOff skips all checks, kWarn records
     * violations in SimResult::validation, kStrict additionally raises
     * StackscopeError (category kValidation / kWatchdog).
     */
    validate::ValidationPolicy validation = validate::ValidationPolicy::kOff;
    /** Measured-cycle period of the in-flight periodic checks. */
    Cycle validation_interval = 8192;
    /**
     * No-retire watchdog window: abort (with a diagnostic snapshot in the
     * validation report) when no instruction commits for this many
     * cycles. 0 disables deadlock detection.
     */
    Cycle watchdog_cycles = 0;
    /**
     * Hard per-job cycle budget: unlike max_cycles, crossing it raises a
     * kWatchdog error (regardless of the validation policy) instead of
     * silently truncating. 0 disables it.
     */
    Cycle deadline_cycles = 0;
    /**
     * Hard per-job wall-clock deadline in seconds; 0 disables it. Same
     * error semantics as deadline_cycles.
     */
    double job_timeout_seconds = 0.0;
    /**
     * Zero-based retry attempt of the enclosing batch job. Runtime state
     * set by the BatchRunner retry loop, not a configuration knob: it is
     * excluded from report serialization and job-spec hashing so retried
     * and first-try runs stay byte-identical when they produce the same
     * result. Transient fault kinds consult it.
     */
    unsigned attempt = 0;
    /** Deterministic fault to inject, for validating the validators. */
    std::optional<validate::FaultSpec> fault{};
    /**
     * Observability: interval stack snapshots and pipeline event tracing
     * (docs/observability.md). Intervals require accounting and a spec
     * mode other than kSpecCounters (kConfig error otherwise).
     */
    obs::ObsOptions obs{};
};

/** Everything a single-core run produces. */
struct SimResult
{
    std::string machine;
    Cycle cycles = 0;
    std::uint64_t instrs = 0;
    double cpi = 0.0;
    double freq_hz = 0.0;
    double core_peak_flops = 0.0;

    /** CPI stacks (CPI units) indexed by stacks::Stage. */
    std::array<stacks::CpiStack, stacks::kNumStages> cpi_stacks{};
    /** The same stacks in raw cycle counts. */
    std::array<stacks::CpiStack, stacks::kNumStages> cycle_stacks{};
    /** FLOPS stack in cycle counts. */
    stacks::FlopsStack flops_cycles{};

    core::CoreStats stats{};

    /**
     * Outcome of the invariant checks that ran on this result (empty
     * when SimOptions::validation was kOff and no watchdog fired).
     */
    validate::ValidationReport validation{};

    /**
     * Interval stack time-series (enabled() false unless
     * SimOptions::obs.interval_cycles was set).
     */
    obs::IntervalSeries intervals{};

    /**
     * Pipeline event log (enabled false unless SimOptions::obs.trace_events
     * was set).
     */
    obs::EventLog events{};

    double ipc() const { return cpi == 0.0 ? 0.0 : 1.0 / cpi; }

    const stacks::CpiStack &
    cpiStack(stacks::Stage s) const
    {
        return cpi_stacks[static_cast<std::size_t>(s)];
    }

    /** FLOPS stack in flops/s units (Equation 1). */
    stacks::FlopsStack flopsStack() const;

    /** Achieved flops/s of this core. */
    double achievedFlops() const;

    /**
     * IPC stack: the commit-stage cycle stack rescaled so the stack height
     * is the maximum IPC and the base component the achieved IPC (§V-B).
     */
    stacks::CpiStack ipcStack(unsigned width) const;
};

/**
 * Simulate @p trace (cloned; the argument is not consumed) on @p machine.
 */
SimResult simulate(const MachineConfig &machine,
                   const trace::TraceSource &trace,
                   const SimOptions &options = {});

/**
 * Throw StackscopeError(kConfig) when @p options combines observability
 * switches with a run mode they cannot work under (interval snapshots
 * with accounting off, or with SpeculationMode::kSpecCounters whose
 * stacks are undefined before finalize()). Called by the simulation
 * driver; exposed so front-ends can fail fast before building jobs.
 */
void checkObsOptions(const SimOptions &options);

/**
 * Convenience: CPI delta of idealizing @p ideal relative to the
 * all-real configuration (Table I methodology). Positive = improvement.
 */
double cpiReduction(const MachineConfig &machine,
                    const trace::TraceSource &trace,
                    const Idealization &ideal,
                    const SimOptions &options = {});

}  // namespace stackscope::sim

#endif  // STACKSCOPE_SIM_SIMULATION_HPP
