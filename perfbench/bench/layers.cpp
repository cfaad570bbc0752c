#include "layers.hpp"

namespace perfbench {

namespace core = stackscope::core;

ProfiledRun
runProfiled(const CoreJob &job)
{
    // Mirrors sim::simulate: the same parameter mapping, the same
    // warmup loop and the same measurement reset.
    core::CoreParams params = job.machine.core;
    params.spec_mode = job.options.spec_mode;
    params.accounting_enabled = job.options.accounting;
    params.batched_accounting = !job.options.reference_engine;

    ProfiledRun r;
    const auto start = Clock::now();
    core::OooCore c(params, job.trace->clone());
    c.setStageProfile(&r.profile);
    const std::uint64_t warmup = job.options.warmup_instrs.value_or(0);
    if (warmup > 0) {
        while (!c.done() && c.stats().instrs_committed < warmup)
            c.cycle();
        c.resetMeasurement();
    }
    while (!c.done())
        c.cycle();
    c.finalizeAccounting();
    r.wall_ns = msBetween(start, Clock::now()) * 1e6;
    r.cycles = c.cycles();
    r.instrs = c.stats().instrs_committed;
    r.absolute_cycles = c.absoluteCycles();
    return r;
}

double
drainTrace(const stackscope::trace::TraceSource &trace, std::uint64_t &instrs)
{
    const auto start = Clock::now();
    std::unique_ptr<stackscope::trace::TraceSource> t = trace.clone();
    stackscope::trace::DynInstr in;
    instrs = 0;
    while (t->next(in))
        ++instrs;
    return msBetween(start, Clock::now()) * 1e6;
}

SimCounters
SimCounters::of(const stackscope::obs::MetricsSnapshot &snap)
{
    return {snap.counterOr("sim.warmup_micros_total"),
            snap.counterOr("sim.measure_micros_total"),
            snap.counterOr("sim.report_micros_total")};
}

SimCounters
SimCounters::operator-(const SimCounters &o) const
{
    return {warmup_us - o.warmup_us, measure_us - o.measure_us,
            report_us - o.report_us};
}

void
CoreLayers::addProfiled(const ProfiledRun &r)
{
    ++profiled_;
    profile_.writeback_ns += r.profile.writeback_ns;
    profile_.commit_ns += r.profile.commit_ns;
    profile_.issue_ns += r.profile.issue_ns;
    profile_.dispatch_ns += r.profile.dispatch_ns;
    profile_.fetch_ns += r.profile.fetch_ns;
    profile_.accounting_ns += r.profile.accounting_ns;
    profile_.cycles += r.profile.cycles;
    absolute_cycles_ += r.absolute_cycles;
    profiled_ns_ += r.wall_ns;
}

void
CoreLayers::addDrain(std::uint64_t instrs, double ns)
{
    ++drains_;
    drained_instrs_ += instrs;
    drain_ns_ += ns;
}

void
CoreLayers::addAccountingPair(double on_seconds, double off_seconds)
{
    ++pairs_;
    acct_on_s_ += on_seconds;
    acct_off_s_ += off_seconds;
}

void
CoreLayers::addSimCounters(const SimCounters &delta)
{
    ++sim_samples_;
    sim_.warmup_us += delta.warmup_us;
    sim_.measure_us += delta.measure_us;
    sim_.report_us += delta.report_us;
}

void
CoreLayers::emit(std::vector<Metric> &out) const
{
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    out.push_back(valueMetric("trace.ns_per_instr", "ns",
                              ratio(drain_ns_, double(drained_instrs_)),
                              drains_));
    const core::StageProfile &p = profile_;
    const double stage_ns =
        double(p.writeback_ns + p.commit_ns + p.issue_ns + p.dispatch_ns +
               p.fetch_ns + p.accounting_ns);
    out.push_back(valueMetric("core.ns_per_eval_cycle", "ns",
                              ratio(profiled_ns_, double(p.cycles)),
                              profiled_));
    out.push_back(valueMetric("core.eval_cycle_share", "share",
                              ratio(double(p.cycles),
                                    double(absolute_cycles_)),
                              profiled_));
    const struct
    {
        const char *name;
        std::uint64_t ns;
    } stages[] = {{"core.fetch_share", p.fetch_ns},
                  {"core.dispatch_share", p.dispatch_ns},
                  {"core.issue_share", p.issue_ns},
                  {"core.writeback_share", p.writeback_ns},
                  {"core.commit_share", p.commit_ns},
                  {"stacks.accounting_share", p.accounting_ns}};
    for (const auto &s : stages)
        out.push_back(valueMetric(s.name, "share",
                                  ratio(double(s.ns), stage_ns), profiled_));
    out.push_back(valueMetric("stacks.accounting_overhead", "share",
                              ratio(acct_on_s_, acct_off_s_) - 1.0, pairs_));
    const double sim_us =
        double(sim_.warmup_us + sim_.measure_us + sim_.report_us);
    out.push_back(valueMetric("sim.warmup_share", "share",
                              ratio(double(sim_.warmup_us), sim_us),
                              sim_samples_));
    out.push_back(valueMetric("sim.report_share", "share",
                              ratio(double(sim_.report_us), sim_us),
                              sim_samples_));
}

}  // namespace perfbench
