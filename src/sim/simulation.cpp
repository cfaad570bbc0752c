#include "sim/simulation.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "core/ooo_core.hpp"
#include "obs/metrics.hpp"
#include "sim/sim_metrics.hpp"
#include "validate/watchdog.hpp"

namespace stackscope::sim {

using stacks::Stage;
using validate::FaultTarget;
using validate::ValidationPolicy;


void
checkObsOptions(const SimOptions &options)
{
    if (options.obs.interval_cycles == 0)
        return;
    if (!options.accounting) {
        throw StackscopeError(ErrorCategory::kConfig,
                              "interval stack snapshots require accounting "
                              "to be enabled");
    }
    if (options.spec_mode == stacks::SpeculationMode::kSpecCounters) {
        throw StackscopeError(
            ErrorCategory::kConfig,
            "interval stack snapshots are incompatible with "
            "spec-counters accounting (stacks are undefined before "
            "finalize)")
            .withContext("spec_mode", "spec-counters");
    }
}

stacks::FlopsStack
SimResult::flopsStack() const
{
    if (cycles == 0)
        return {};
    // Equation 1 generalized to every component: scale by freq * M /
    // cycles so the stack height equals the machine peak FLOPS.
    const double factor = core_peak_flops / static_cast<double>(cycles);
    return flops_cycles.scaled(factor);
}

double
SimResult::achievedFlops() const
{
    return flopsStack()[stacks::FlopsComponent::kBase];
}

stacks::CpiStack
SimResult::ipcStack(unsigned width) const
{
    if (cycles == 0)
        return {};
    // Divide cycle counts by total cycles and multiply by max IPC: the
    // base component becomes the achieved IPC, the height the max IPC.
    const double factor =
        static_cast<double>(width) / static_cast<double>(cycles);
    return cycle_stacks[static_cast<std::size_t>(Stage::kCommit)].scaled(
        factor);
}

SimResult
simulate(const MachineConfig &machine, const trace::TraceSource &trace,
         const SimOptions &options)
{
    core::CoreParams params = machine.core;
    params.spec_mode = options.spec_mode;
    params.accounting_enabled = options.accounting;
    // The pipeline tracer observes every individual cycle, so it runs the
    // per-cycle engine (no idle fold, no skip-ahead).
    params.batched_accounting =
        !options.reference_engine && !options.obs.trace_events;
    if (options.fault &&
        validate::targetOf(options.fault->kind) == FaultTarget::kConfig)
        validate::applyToConfig(*options.fault, params);

    std::unique_ptr<trace::TraceSource> src = trace.clone();
    if (options.fault &&
        validate::targetOf(options.fault->kind) == FaultTarget::kTrace)
        src = validate::wrapTrace(*options.fault, std::move(src));

    core::OooCore core(params, std::move(src));

    checkObsOptions(options);
    std::optional<obs::IntervalAccountant> iacct;
    if (options.obs.interval_cycles != 0)
        iacct.emplace(options.obs.interval_cycles);
    std::optional<obs::PipelineTracer> tracer;
    if (options.obs.trace_events)
        tracer.emplace(options.obs.trace_capacity);

    validate::Watchdog watchdog({options.max_cycles,
                                 options.watchdog_cycles,
                                 options.deadline_cycles,
                                 options.job_timeout_seconds});
    const bool checking =
        options.validation != ValidationPolicy::kOff && options.accounting;
    validate::IntervalValidator interval(options.validation_interval);
    validate::ValidationReport report;
    report.policy = options.validation;

    detail::SimMetrics &metrics = detail::simMetrics();
    metrics.runs.inc();
    const auto run_start = std::chrono::steady_clock::now();

    // Fast-forward (§IV): warm structures, then restart measurement. The
    // watchdog also guards this phase — a hung trace must not spin here.
    const std::uint64_t warmup = options.warmup_instrs.value_or(0);
    bool warmup_truncated = false;
    if (warmup > 0) {
        while (!core.done() &&
               core.stats().instrs_committed < warmup &&
               watchdog.poll(core.absoluteCycles(),
                             core.stats().instrs_committed)) {
            core.setCycleHorizon(watchdog.cycleHorizon());
            core.cycle();
        }
        metrics.warmup_micros.inc(detail::microsSince(run_start));
        if (watchdog.tripped()) {
            // resetMeasurement() never ran: the reported stacks include
            // the warmup phase. Even a plain max-cycles stop must not be
            // a silent truncation here.
            warmup_truncated = true;
            log::warn("sim", "stopped during warmup; stacks include warmup",
                      {{"machine", machine.name},
                       {"cycle", core.cycles()},
                       {"detail", watchdog.snapshot().describe()}});
            report.add(validate::Invariant::kProgress,
                       "stopped during warmup (" +
                           watchdog.snapshot().describe() +
                           "): measurement never started, stacks include "
                           "warmup",
                       core.cycles());
        } else {
            core.resetMeasurement();
        }
    }

    const auto measure_start = std::chrono::steady_clock::now();
    // Skip-ahead ceiling: never jump past a watchdog threshold, an
    // interval-snapshot boundary or a periodic-validation boundary, so a
    // skipping run observes them at exactly the same cycles as a
    // per-cycle run. The boundaries are in measured cycles; the horizon
    // is absolute.
    const Cycle measure_base = core.absoluteCycles() - core.cycles();
    while (!core.done() && !watchdog.tripped()) {
        if (!watchdog.poll(core.absoluteCycles(),
                           core.stats().instrs_committed))
            break;
        Cycle horizon = watchdog.cycleHorizon();
        if (iacct)
            horizon = std::min(horizon,
                               measure_base + iacct->nextBoundary());
        if (checking)
            horizon = std::min(horizon,
                               measure_base + interval.nextCheck());
        core.setCycleHorizon(horizon);
        core.cycle();
        if (tracer)
            tracer->observe(core.cycles() - 1, core.cycleState(),
                            core.stats().squashed_uops);
        if (iacct && iacct->due(core.cycles()))
            iacct->snapshot(core);
        if (checking && interval.due(core.cycles()))
            interval.check(core, report);
    }
    core.finalizeAccounting();
    const std::uint64_t measure_us = detail::microsSince(measure_start);
    metrics.measure_micros.inc(measure_us);

    const auto report_start = std::chrono::steady_clock::now();
    SimResult r;
    r.machine = machine.name;
    r.cycles = core.cycles();
    r.instrs = core.stats().instrs_committed;
    r.cpi = core.cpi();
    r.freq_hz = machine.freqHz();
    r.core_peak_flops = machine.corePeakFlops();
    r.stats = core.stats();
    r.stats.cycles = r.cycles;
    if (options.accounting) {
        for (std::size_t s = 0; s < stacks::kNumStages; ++s) {
            const auto stage = static_cast<Stage>(s);
            r.cycle_stacks[s] = core.accountant(stage).cycles();
            r.cpi_stacks[s] = core.accountant(stage).cpi(r.instrs);
        }
        r.flops_cycles = core.flopsAccountant().cycles();
    }

    if (options.fault &&
        validate::targetOf(options.fault->kind) == FaultTarget::kResult)
        validate::applyToResult(*options.fault, r, options.attempt);

    // A hard deadline (cycle budget / wall clock) is always an error —
    // the job ran away — independent of the validation policy.
    if (watchdog.deadlineExceeded()) {
        metrics.watchdog_fires.inc();
        throw StackscopeError(ErrorCategory::kWatchdog,
                              watchdog.snapshot().describe())
            .withContext("machine", machine.name)
            .withContext("cycles", std::to_string(core.cycles()));
    }

    // A no-retire watchdog trip is a detected deadlock and recorded even
    // with validation off; a max-cycles stop after warmup stays a silent
    // truncation (a trip *during* warmup was already recorded above).
    if (watchdog.deadlocked() && !warmup_truncated) {
        report.add(validate::Invariant::kProgress,
                   watchdog.snapshot().describe(), core.cycles());
    }
    if (watchdog.deadlocked()) {
        metrics.watchdog_fires.inc();
        log::warn("sim", "watchdog fired",
                  {{"machine", machine.name},
                   {"cycle", core.cycles()},
                   {"detail", watchdog.snapshot().describe()}});
    }
    if (checking)
        report.merge(validate::validateResult(r));
    r.validation = std::move(report);

    if (iacct) {
        iacct->finish(core);
        r.intervals = iacct->take();
    }
    if (tracer) {
        for (const validate::Violation &v : r.validation.violations)
            tracer->note(obs::TraceEventKind::kValidation, v.cycle, 1);
        if (watchdog.tripped())
            tracer->note(obs::TraceEventKind::kWatchdog, core.cycles());
        tracer->finish(core.cycles());
        r.events = tracer->take();
    }

    metrics.report_micros.inc(detail::microsSince(report_start));
    metrics.cycles.inc(r.cycles);
    metrics.instrs.inc(r.instrs);
    metrics.violations.inc(r.validation.violations.size());
    if (measure_us > 0) {
        const double secs = static_cast<double>(measure_us) * 1e-6;
        metrics.last_cycles_per_sec.set(static_cast<double>(r.cycles) /
                                        secs);
        metrics.last_instrs_per_sec.set(static_cast<double>(r.instrs) /
                                        secs);
    }
    metrics.peak_rss.set(static_cast<double>(obs::peakRssBytes()));
    metrics.run_seconds.record(
        static_cast<double>(detail::microsSince(run_start)) * 1e-6);

    if (options.validation == ValidationPolicy::kStrict &&
        !r.validation.passed()) {
        throw r.validation.toError()
            .withContext("machine", machine.name)
            .withContext("cycles", std::to_string(r.cycles));
    }
    return r;
}

double
cpiReduction(const MachineConfig &machine, const trace::TraceSource &trace,
             const Idealization &ideal, const SimOptions &options)
{
    const SimResult real = simulate(machine, trace, options);
    const SimResult idealized =
        simulate(applyIdealization(machine, ideal), trace, options);
    return real.cpi - idealized.cpi;
}

}  // namespace stackscope::sim
