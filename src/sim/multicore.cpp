#include "sim/multicore.hpp"

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "core/ooo_core.hpp"
#include "obs/metrics.hpp"
#include "sim/sim_metrics.hpp"
#include "validate/watchdog.hpp"

namespace stackscope::sim {

namespace {

using stacks::Stage;
using validate::FaultTarget;
using validate::ValidationPolicy;

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

}  // namespace

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

    // The per-core config carries a per-core slice of the socket uncore;
    // the shared uncore of an n-core run is n slices.
    uarch::UncoreParams shared_params = machine.core.mem.uncore;
    shared_params.l3.size_bytes *= num_cores;
    shared_params.mem_queue_slots *= num_cores;
    uarch::Uncore uncore(shared_params);

    std::vector<std::unique_ptr<core::OooCore>> cores;
    cores.reserve(num_cores);
    for (unsigned i = 0; i < num_cores; ++i) {
        core::CoreParams params = machine.core;
        params.spec_mode = options.spec_mode;
        params.accounting_enabled = options.accounting;
        // Idle-run folding is per-core and legal under lockstep; idle
        // skip-ahead is not (shared-uncore timing), and the core disables
        // it itself when constructed with a shared uncore.
        params.batched_accounting = !options.reference_engine;
        params.wrong_path_seed = machine.core.wrong_path_seed + i;
        if (options.fault &&
            validate::targetOf(options.fault->kind) == FaultTarget::kConfig)
            validate::applyToConfig(*options.fault, params);
        std::unique_ptr<trace::TraceSource> src =
            std::make_unique<AddressOffsetSource>(
                trace.clone(), static_cast<Addr>(i) << 33);
        if (options.fault &&
            validate::targetOf(options.fault->kind) == FaultTarget::kTrace)
            src = validate::wrapTrace(*options.fault, std::move(src));
        cores.push_back(std::make_unique<core::OooCore>(params,
                                                        std::move(src),
                                                        &uncore));
    }

    checkObsOptions(options);
    std::vector<std::optional<obs::IntervalAccountant>> iaccts(num_cores);
    std::vector<std::optional<obs::PipelineTracer>> tracers(num_cores);
    for (unsigned i = 0; i < num_cores; ++i) {
        if (options.obs.interval_cycles != 0)
            iaccts[i].emplace(options.obs.interval_cycles);
        if (options.obs.trace_events)
            tracers[i].emplace(options.obs.trace_capacity);
    }

    const bool checking =
        options.validation != ValidationPolicy::kOff && options.accounting;
    const std::uint64_t warmup = options.warmup_instrs.value_or(0);
    std::vector<validate::Watchdog> watchdogs(
        num_cores,
        validate::Watchdog({options.max_cycles, options.watchdog_cycles,
                            options.deadline_cycles,
                            options.job_timeout_seconds}));
    std::vector<validate::IntervalValidator> intervals(
        num_cores,
        validate::IntervalValidator(options.validation_interval));
    std::vector<validate::ValidationReport> reports(num_cores);

    detail::SimMetrics &metrics = detail::simMetrics();
    metrics.runs.inc();
    const auto run_start = std::chrono::steady_clock::now();

    // Lockstep simulation so uncore contention is interleaved fairly.
    // Each core restarts measurement once it passes the warmup window; a
    // core whose watchdog trips is parked while the others finish.
    std::vector<bool> warmed(num_cores, warmup == 0);
    bool any_running = true;
    while (any_running) {
        any_running = false;
        for (unsigned i = 0; i < num_cores; ++i) {
            auto &c = cores[i];
            if (c->done() || watchdogs[i].tripped())
                continue;
            if (!watchdogs[i].poll(c->absoluteCycles(),
                                   c->stats().instrs_committed))
                continue;
            c->cycle();
            any_running = true;
            if (!warmed[i] &&
                c->stats().instrs_committed >= warmup) {
                c->resetMeasurement();
                warmed[i] = true;
            }
            // Observability covers the measured window only; cycles() > 0
            // also skips the reset cycle itself.
            if (warmed[i] && c->cycles() > 0) {
                if (tracers[i])
                    tracers[i]->observe(c->cycles() - 1, c->cycleState(),
                                        c->stats().squashed_uops);
                if (iaccts[i] && iaccts[i]->due(c->cycles()))
                    iaccts[i]->snapshot(*c);
            }
            if (checking && warmed[i] && intervals[i].due(c->cycles()))
                intervals[i].check(*c, reports[i]);
        }
    }

    // The lockstep loop interleaves warmup and measurement across cores,
    // so the whole loop counts as the measure phase.
    const std::uint64_t measure_us = detail::microsSince(run_start);
    metrics.measure_micros.inc(measure_us);

    const auto report_start = std::chrono::steady_clock::now();
    MulticoreResult out;
    out.validation.policy = options.validation;
    out.socket_peak_flops = machine.socketPeakFlops();
    for (unsigned i = 0; i < num_cores; ++i) {
        auto &c = cores[i];
        c->finalizeAccounting();

        SimResult r;
        r.machine = machine.name;
        r.cycles = c->cycles();
        r.instrs = c->stats().instrs_committed;
        r.cpi = c->cpi();
        r.freq_hz = machine.freqHz();
        r.core_peak_flops = machine.corePeakFlops();
        r.stats = c->stats();
        r.stats.cycles = r.cycles;
        if (options.accounting) {
            for (std::size_t s = 0; s < stacks::kNumStages; ++s) {
                const auto stage = static_cast<Stage>(s);
                r.cycle_stacks[s] = c->accountant(stage).cycles();
                r.cpi_stacks[s] = c->accountant(stage).cpi(r.instrs);
            }
            r.flops_cycles = c->flopsAccountant().cycles();
        }

        if (options.fault &&
            validate::targetOf(options.fault->kind) == FaultTarget::kResult) {
            validate::FaultSpec per_core = *options.fault;
            per_core.seed += i;
            validate::applyToResult(per_core, r, options.attempt);
        }

        if (watchdogs[i].deadlineExceeded()) {
            metrics.watchdog_fires.inc();
            throw StackscopeError(ErrorCategory::kWatchdog,
                                  watchdogs[i].snapshot().describe())
                .withContext("machine", machine.name)
                .withContext("core", std::to_string(i))
                .withContext("cycles", std::to_string(r.cycles));
        }

        validate::ValidationReport &rep = reports[i];
        rep.policy = options.validation;
        if (!warmed[i] && watchdogs[i].tripped()) {
            // Mirrors simulate(): a watchdog stop before the warmup window
            // closed means resetMeasurement() never ran, so this core's
            // stacks are warmup-polluted — never a silent truncation.
            rep.add(validate::Invariant::kProgress,
                    "stopped during warmup (" +
                        watchdogs[i].snapshot().describe() +
                        "): measurement never started, stacks include "
                        "warmup",
                    r.cycles);
        } else if (watchdogs[i].deadlocked()) {
            rep.add(validate::Invariant::kProgress,
                    watchdogs[i].snapshot().describe(), r.cycles);
        }
        if (watchdogs[i].deadlocked()) {
            metrics.watchdog_fires.inc();
            log::warn("sim", "watchdog fired",
                      {{"machine", machine.name},
                       {"core", i},
                       {"cycle", r.cycles},
                       {"detail", watchdogs[i].snapshot().describe()}});
        }
        if (checking)
            rep.merge(validate::validateResult(r));
        r.validation = std::move(rep);

        if (iaccts[i]) {
            iaccts[i]->finish(*c);
            r.intervals = iaccts[i]->take();
        }
        if (tracers[i]) {
            for (const validate::Violation &v : r.validation.violations)
                tracers[i]->note(obs::TraceEventKind::kValidation, v.cycle,
                                 1);
            if (watchdogs[i].tripped())
                tracers[i]->note(obs::TraceEventKind::kWatchdog,
                                 c->cycles());
            tracers[i]->finish(c->cycles());
            r.events = tracers[i]->take();
        }

        for (const validate::Violation &v : r.validation.violations) {
            out.validation.add(v.invariant,
                               "core " + std::to_string(i) + ": " + v.detail,
                               v.cycle);
        }
        out.validation.checks_run += r.validation.checks_run;

        out.per_core.push_back(std::move(r));
    }

    // Component-wise aggregation (homogeneous threads, see [10]).
    const double inv = 1.0 / static_cast<double>(num_cores);
    for (const SimResult &r : out.per_core) {
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

    std::uint64_t total_cycles = 0;
    std::uint64_t total_instrs = 0;
    for (const SimResult &r : out.per_core) {
        total_cycles += r.cycles;
        total_instrs += r.instrs;
    }
    metrics.report_micros.inc(detail::microsSince(report_start));
    metrics.cycles.inc(total_cycles);
    metrics.instrs.inc(total_instrs);
    metrics.violations.inc(out.validation.violations.size());
    if (measure_us > 0) {
        const double secs = static_cast<double>(measure_us) * 1e-6;
        metrics.last_cycles_per_sec.set(static_cast<double>(total_cycles) /
                                        secs);
        metrics.last_instrs_per_sec.set(static_cast<double>(total_instrs) /
                                        secs);
    }
    metrics.peak_rss.set(static_cast<double>(obs::peakRssBytes()));
    metrics.run_seconds.record(
        static_cast<double>(detail::microsSince(run_start)) * 1e-6);

    if (options.validation == ValidationPolicy::kStrict &&
        !out.validation.passed()) {
        throw out.validation.toError()
            .withContext("machine", machine.name)
            .withContext("cores", std::to_string(num_cores));
    }
    return out;
}

}  // namespace stackscope::sim
