#include "sim/simulation.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"
#include "core/ooo_core.hpp"
#include "obs/metrics.hpp"
#include "sim/multicore.hpp"
#include "uarch/cache_hierarchy.hpp"
#include "validate/watchdog.hpp"

namespace stackscope::sim {

namespace {

using stacks::Stage;
using validate::FaultTarget;
using validate::ValidationPolicy;

/** Host-side `sim.*` series: one aggregate whatever the core count. */
struct SimMetrics
{
    obs::Counter runs;
    obs::Counter cycles;
    obs::Counter instrs;
    obs::Counter warmup_micros;
    obs::Counter measure_micros;
    obs::Counter report_micros;
    obs::Counter violations;
    obs::Counter watchdog_fires;
    obs::Gauge last_cycles_per_sec;
    obs::Gauge last_instrs_per_sec;
    obs::Gauge peak_rss;
    obs::Histogram run_seconds;
};

SimMetrics &
simMetrics()
{
    static SimMetrics m = [] {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
        SimMetrics s;
        s.runs = reg.counter("sim.runs_total");
        s.cycles = reg.counter("sim.simulated_cycles_total");
        s.instrs = reg.counter("sim.instrs_committed_total");
        s.warmup_micros = reg.counter("sim.warmup_micros_total");
        s.measure_micros = reg.counter("sim.measure_micros_total");
        s.report_micros = reg.counter("sim.report_micros_total");
        s.violations = reg.counter("sim.validation_violations_total");
        s.watchdog_fires = reg.counter("sim.watchdog_fires_total");
        s.last_cycles_per_sec = reg.gauge("sim.last_cycles_per_sec");
        s.last_instrs_per_sec = reg.gauge("sim.last_instrs_per_sec");
        s.peak_rss = reg.gauge("sim.peak_rss_bytes");
        s.run_seconds = reg.histogram(
            "sim.run_seconds", {0.001, 0.01, 0.1, 1.0, 10.0, 100.0});
        return s;
    }();
    return m;
}

std::uint64_t
microsSince(std::chrono::steady_clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

/**
 * Decorator that shifts data addresses into a per-core region so
 * homogeneous threads do not alias each other's working set.
 */
class AddressOffsetSource : public trace::TraceSource
{
  public:
    AddressOffsetSource(std::unique_ptr<trace::TraceSource> inner,
                        Addr offset)
        : inner_(std::move(inner)), offset_(offset)
    {
    }

    bool
    next(trace::DynInstr &out) override
    {
        if (!inner_->next(out))
            return false;
        if (trace::isMemory(out.cls))
            out.mem_addr += offset_;
        return true;
    }

    void reset() override { inner_->reset(); }

    std::unique_ptr<trace::TraceSource>
    clone() const override
    {
        return std::make_unique<AddressOffsetSource>(inner_->clone(),
                                                     offset_);
    }

  private:
    std::unique_ptr<trace::TraceSource> inner_;
    Addr offset_;
};

/** One core of a lockstep run and the probes that watch it. */
struct CoreRun
{
    CoreRun(std::unique_ptr<core::OooCore> c, const SimOptions &options)
        : core(std::move(c)),
          watchdog({options.max_cycles, options.watchdog_cycles,
                    options.deadline_cycles, options.job_timeout_seconds}),
          interval(options.validation_interval),
          warmed(options.warmup_instrs.value_or(0) == 0)
    {
        report.policy = options.validation;
        if (options.obs.interval_cycles != 0)
            iacct.emplace(options.obs.interval_cycles);
        if (options.obs.trace_events)
            tracer.emplace(options.spec_mode, options.obs.trace_capacity);
    }

    std::unique_ptr<core::OooCore> core;
    validate::Watchdog watchdog;
    validate::IntervalValidator interval;
    validate::ValidationReport report;
    std::optional<obs::IntervalAccountant> iacct;
    std::optional<obs::PipelineTracer> tracer;
    /** Measurement restarted after warmup, or no warmup was asked. */
    bool warmed;
    /** Trace drained or watchdog tripped: parked while the others run. */
    bool stopped = false;
};

/**
 * The one simulation driver: run @p num_cores clones of @p trace in
 * lockstep and build one SimResult per core. A single core owns its
 * uncore and may skip ahead; n > 1 cores share one uncore of n per-core
 * slices, which rules skip-ahead out (core::OooCore's constructor).
 */
std::vector<SimResult>
runCores(const MachineConfig &machine, const trace::TraceSource &trace,
         unsigned num_cores, const SimOptions &options)
{
    checkObsOptions(options);
    const auto faults = [&](FaultTarget target) {
        return options.fault &&
               validate::targetOf(options.fault->kind) == target;
    };

    std::optional<uarch::Uncore> shared_uncore;
    if (num_cores > 1) {
        uarch::UncoreParams p = machine.core.mem.uncore;
        p.l3.size_bytes *= num_cores;
        p.mem_queue_slots *= num_cores;
        shared_uncore.emplace(p);
    }

    std::vector<CoreRun> runs;
    runs.reserve(num_cores);
    for (unsigned i = 0; i < num_cores; ++i) {
        core::CoreParams params = machine.core;
        params.spec_mode = options.spec_mode;
        params.accounting_enabled = options.accounting;
        // The pipeline tracer observes every individual cycle, so it runs
        // the per-cycle engine (no idle fold, no skip-ahead).
        params.batched_accounting =
            !options.reference_engine && !options.obs.trace_events;
        params.wrong_path_seed += i;
        if (faults(FaultTarget::kConfig))
            validate::applyToConfig(*options.fault, params);
        // Threads of the paper's HPC workloads work on distinct tiles:
        // data addresses move into a per-core region, code is shared.
        std::unique_ptr<trace::TraceSource> src = trace.clone();
        if (i > 0) {
            src = std::make_unique<AddressOffsetSource>(
                std::move(src), static_cast<Addr>(i) << 33);
        }
        if (faults(FaultTarget::kTrace))
            src = validate::wrapTrace(*options.fault, std::move(src));
        runs.emplace_back(
            std::make_unique<core::OooCore>(
                params, std::move(src),
                shared_uncore ? &*shared_uncore : nullptr),
            options);
    }

    const std::uint64_t warmup = options.warmup_instrs.value_or(0);
    const bool checking =
        options.validation != ValidationPolicy::kOff && options.accounting;

    SimMetrics &metrics = simMetrics();
    metrics.runs.inc();
    const auto run_start = std::chrono::steady_clock::now();
    auto measure_start = run_start;
    // Fast-forward (§IV): each core warms its structures, then restarts
    // measurement. The run's warmup phase lasts until the last core
    // leaves its own.
    unsigned warming = warmup > 0 ? num_cores : 0;
    const auto leaveWarmup = [&] {
        if (--warming == 0) {
            metrics.warmup_micros.inc(microsSince(run_start));
            measure_start = std::chrono::steady_clock::now();
        }
    };

    // Lockstep, so cores sharing an uncore contend for it fairly. The
    // watchdog also guards warmup: a hung trace must not spin there.
    unsigned running = num_cores;
    while (running > 0) {
        for (unsigned i = 0; i < num_cores; ++i) {
            CoreRun &k = runs[i];
            if (k.stopped)
                continue;
            core::OooCore &c = *k.core;
            if (c.done() || !k.watchdog.poll(c.absoluteCycles(),
                                             c.stats().instrs_committed)) {
                k.stopped = true;
                --running;
                if (k.warmed)
                    continue;
                if (k.watchdog.tripped()) {
                    // resetMeasurement() never ran: the stacks include
                    // warmup. Even a plain max-cycles stop must not be a
                    // silent truncation here.
                    log::warn("sim",
                              "stopped during warmup; stacks include warmup",
                              {{"machine", machine.name},
                               {"core", i},
                               {"cycle", c.cycles()},
                               {"detail", k.watchdog.snapshot().describe()}});
                    k.report.add(validate::Invariant::kProgress,
                                 "stopped during warmup (" +
                                     k.watchdog.snapshot().describe() +
                                     "): measurement never started, "
                                     "stacks include warmup",
                                 c.cycles());
                } else {
                    // The trace ended first: an empty measurement.
                    c.resetMeasurement();
                    k.warmed = true;
                }
                leaveWarmup();
                continue;
            }

            // Skip-ahead ceiling: never jump past a watchdog threshold, an
            // interval-snapshot boundary or a periodic-validation
            // boundary, so a skipping run observes them at exactly the
            // same cycles as a per-cycle run. The boundaries are in
            // measured cycles; the horizon is absolute.
            const bool measuring = k.warmed;
            Cycle horizon = k.watchdog.cycleHorizon();
            if (measuring) {
                const Cycle base = c.absoluteCycles() - c.cycles();
                if (k.iacct)
                    horizon = std::min(horizon,
                                       base + k.iacct->nextBoundary());
                if (checking)
                    horizon = std::min(horizon,
                                       base + k.interval.nextCheck());
            }
            c.setCycleHorizon(horizon);
            c.cycle();

            if (!measuring) {
                if (c.stats().instrs_committed >= warmup) {
                    c.resetMeasurement();
                    k.warmed = true;
                    leaveWarmup();
                }
                continue;
            }
            if (k.tracer)
                k.tracer->observe(c.cycles() - 1, c.cycleState(),
                                  c.stats().squashed_uops);
            if (k.iacct && k.iacct->due(c.cycles()))
                k.iacct->snapshot(c);
            if (checking && k.interval.due(c.cycles()))
                k.interval.check(c, k.report);
        }
    }
    for (CoreRun &k : runs)
        k.core->finalizeAccounting();
    const std::uint64_t measure_us = microsSince(measure_start);
    metrics.measure_micros.inc(measure_us);

    const auto report_start = std::chrono::steady_clock::now();
    std::vector<SimResult> results(num_cores);
    std::uint64_t total_cycles = 0;
    std::uint64_t total_instrs = 0;
    std::uint64_t total_violations = 0;
    for (unsigned i = 0; i < num_cores; ++i) {
        CoreRun &k = runs[i];
        const core::OooCore &c = *k.core;
        SimResult &r = results[i];
        r.machine = machine.name;
        r.cycles = c.cycles();
        r.instrs = c.stats().instrs_committed;
        r.cpi = c.cpi();
        r.freq_hz = machine.freqHz();
        r.core_peak_flops = machine.corePeakFlops();
        r.stats = c.stats();
        r.stats.cycles = r.cycles;
        if (options.accounting) {
            const stacks::StackAccountant &acct = c.accountant();
            for (std::size_t s = 0; s < stacks::kNumStages; ++s) {
                const auto stage = static_cast<Stage>(s);
                r.cycle_stacks[s] = acct.cycles(stage);
                r.cpi_stacks[s] = acct.cpi(stage, r.instrs);
            }
            r.flops_cycles = acct.flopsCycles();
        }

        if (faults(FaultTarget::kResult)) {
            validate::FaultSpec fault = *options.fault;
            fault.seed += i;
            validate::applyToResult(fault, r, options.attempt);
        }

        // A hard deadline (cycle budget / wall clock) is always an error —
        // the job ran away — independent of the validation policy.
        if (k.watchdog.deadlineExceeded()) {
            metrics.watchdog_fires.inc();
            throw StackscopeError(ErrorCategory::kWatchdog,
                                  k.watchdog.snapshot().describe())
                .withContext("machine", machine.name)
                .withContext("core", std::to_string(i))
                .withContext("cycles", std::to_string(c.cycles()));
        }

        // A no-retire watchdog trip is a detected deadlock and recorded
        // even with validation off; a max-cycles stop after warmup stays a
        // silent truncation (a trip *during* warmup was recorded above).
        if (k.watchdog.deadlocked()) {
            if (k.warmed) {
                k.report.add(validate::Invariant::kProgress,
                             k.watchdog.snapshot().describe(), c.cycles());
            }
            metrics.watchdog_fires.inc();
            log::warn("sim", "watchdog fired",
                      {{"machine", machine.name},
                       {"core", i},
                       {"cycle", c.cycles()},
                       {"detail", k.watchdog.snapshot().describe()}});
        }
        if (checking)
            k.report.merge(validate::validateResult(r));
        r.validation = std::move(k.report);

        if (k.iacct) {
            k.iacct->finish(c);
            r.intervals = k.iacct->take();
        }
        if (k.tracer) {
            for (const validate::Violation &v : r.validation.violations)
                k.tracer->note(obs::TraceEventKind::kValidation, v.cycle, 1);
            if (k.watchdog.tripped())
                k.tracer->note(obs::TraceEventKind::kWatchdog, c.cycles());
            k.tracer->finish(c.cycles());
            r.events = k.tracer->take();
        }
        total_cycles += r.cycles;
        total_instrs += r.instrs;
        total_violations += r.validation.violations.size();
    }

    metrics.report_micros.inc(microsSince(report_start));
    metrics.cycles.inc(total_cycles);
    metrics.instrs.inc(total_instrs);
    metrics.violations.inc(total_violations);
    if (measure_us > 0) {
        const double secs = static_cast<double>(measure_us) * 1e-6;
        metrics.last_cycles_per_sec.set(static_cast<double>(total_cycles) /
                                        secs);
        metrics.last_instrs_per_sec.set(static_cast<double>(total_instrs) /
                                        secs);
    }
    metrics.peak_rss.set(static_cast<double>(obs::peakRssBytes()));
    metrics.run_seconds.record(
        static_cast<double>(microsSince(run_start)) * 1e-6);
    return results;
}

}  // namespace

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
    SimResult r = std::move(runCores(machine, trace, 1, options).front());
    if (options.validation == ValidationPolicy::kStrict &&
        !r.validation.passed()) {
        throw r.validation.toError()
            .withContext("machine", machine.name)
            .withContext("cycles", std::to_string(r.cycles));
    }
    return r;
}

MulticoreResult
simulateMulticore(const MachineConfig &machine,
                  const trace::TraceSource &trace, unsigned num_cores,
                  const SimOptions &options)
{
    if (num_cores < 1) {
        throw StackscopeError(ErrorCategory::kConfig,
                              "simulateMulticore requires at least one core")
            .withContext("cores", std::to_string(num_cores));
    }

    MulticoreResult out;
    out.per_core = runCores(machine, trace, num_cores, options);
    out.validation.policy = options.validation;
    out.socket_peak_flops = machine.socketPeakFlops();
    // Component-wise aggregation (homogeneous threads, see [10]).
    const double inv = 1.0 / static_cast<double>(num_cores);
    for (unsigned i = 0; i < num_cores; ++i) {
        const SimResult &r = out.per_core[i];
        for (const validate::Violation &v : r.validation.violations) {
            out.validation.add(v.invariant,
                               "core " + std::to_string(i) + ": " + v.detail,
                               v.cycle);
        }
        out.validation.checks_run += r.validation.checks_run;

        for (std::size_t s = 0; s < stacks::kNumStages; ++s)
            out.avg_cpi_stacks[s] += r.cpi_stacks[s].scaled(inv);
        out.avg_flops_fraction +=
            r.flops_cycles
                .scaled(r.cycles == 0 ? 0.0 : 1.0 / r.cycles)
                .scaled(inv);
        out.avg_ipc_fraction +=
            r.cycle_stacks[static_cast<std::size_t>(Stage::kCommit)]
                .scaled(r.cycles == 0 ? 0.0 : 1.0 / r.cycles)
                .scaled(inv);
        out.avg_cpi += r.cpi * inv;
        out.avg_ipc += r.ipc() * inv;
    }
    out.socket_flops =
        out.avg_flops_fraction[stacks::FlopsComponent::kBase] *
        out.socket_peak_flops;

    if (options.validation == ValidationPolicy::kStrict &&
        !out.validation.passed()) {
        throw out.validation.toError()
            .withContext("machine", machine.name)
            .withContext("cores", std::to_string(num_cores));
    }
    return out;
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
