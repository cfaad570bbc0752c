#include "obs/report.hpp"

#include <fstream>
#include <utility>

#include "common/error.hpp"
#include "obs/json.hpp"
#include "stacks/speculation.hpp"

namespace stackscope::obs {

using stacks::Stage;

namespace {

template <typename E>
void
writeStack(JsonWriter &w, const stacks::StackT<E> &stack)
{
    w.beginObject();
    stack.forEach([&](E c, double v) {
        w.key(stacks::componentName(c)).value(v);
    });
    w.endObject();
}

void
writeStageStacks(JsonWriter &w,
                 const std::array<stacks::CpiStack, stacks::kNumStages> &s)
{
    w.beginObject();
    for (std::size_t i = 0; i < stacks::kNumStages; ++i) {
        w.key(stacks::toString(static_cast<Stage>(i)));
        writeStack(w, s[i]);
    }
    w.endObject();
}

void
writeValidation(JsonWriter &w, const validate::ValidationReport &report)
{
    w.beginObject()
        .key("policy").value(validate::toString(report.policy))
        .key("checks_run").value(report.checks_run)
        .key("passed").value(report.passed())
        .key("violations").beginArray();
    for (const validate::Violation &v : report.violations) {
        w.beginObject()
            .key("invariant").value(validate::toString(v.invariant))
            .key("cycle").value(static_cast<std::uint64_t>(v.cycle))
            .key("detail").value(v.detail)
            .endObject();
    }
    w.endArray().endObject();
}

void
writeStats(JsonWriter &w, const core::CoreStats &s)
{
    w.beginObject()
        .key("cycles").value(static_cast<std::uint64_t>(s.cycles))
        .key("instrs_committed").value(s.instrs_committed)
        .key("wrong_path_dispatched").value(s.wrong_path_dispatched)
        .key("branches").value(s.branches)
        .key("branch_mispredicts").value(s.branch_mispredicts)
        .key("loads").value(s.loads)
        .key("l1d_load_misses").value(s.l1d_load_misses)
        .key("squashed_uops").value(s.squashed_uops)
        .key("flops_issued").value(s.flops_issued)
        .endObject();
}

void
writeIntervals(JsonWriter &w, const IntervalSeries &series)
{
    if (!series.enabled()) {
        w.null();
        return;
    }
    w.beginObject()
        .key("window").value(static_cast<std::uint64_t>(series.window))
        .key("samples").beginArray();
    for (const IntervalSample &s : series.samples) {
        w.beginObject()
            .key("start").value(static_cast<std::uint64_t>(s.start))
            .key("end").value(static_cast<std::uint64_t>(s.end))
            .key("instrs").value(s.instrs)
            .key("cycle_stacks");
        writeStageStacks(w, s.cycle_stacks);
        w.key("flops_cycles");
        writeStack(w, s.flops_cycles);
        w.endObject();
    }
    w.endArray().endObject();
}

void
writeTrace(JsonWriter &w, const EventLog &log)
{
    if (!log.enabled) {
        w.null();
        return;
    }
    w.beginObject()
        .key("captured").value(static_cast<std::uint64_t>(log.events.size()))
        .key("emitted").value(log.emitted)
        .key("dropped").value(log.dropped)
        .key("end_cycle").value(static_cast<std::uint64_t>(log.end_cycle))
        .endObject();
}

void
writeResult(JsonWriter &w, unsigned core, const sim::SimResult &r)
{
    w.beginObject()
        .key("core").value(core)
        .key("machine").value(r.machine)
        .key("cycles").value(static_cast<std::uint64_t>(r.cycles))
        .key("instrs").value(r.instrs)
        .key("cpi").value(r.cpi)
        .key("ipc").value(r.ipc())
        .key("freq_hz").value(r.freq_hz)
        .key("core_peak_flops").value(r.core_peak_flops)
        .key("achieved_flops").value(r.achievedFlops())
        .key("stats");
    writeStats(w, r.stats);
    w.key("cpi_stacks");
    writeStageStacks(w, r.cpi_stacks);
    w.key("cycle_stacks");
    writeStageStacks(w, r.cycle_stacks);
    w.key("flops_cycles");
    writeStack(w, r.flops_cycles);
    w.key("validation");
    writeValidation(w, r.validation);
    w.key("intervals");
    writeIntervals(w, r.intervals);
    w.key("trace");
    writeTrace(w, r.events);
    w.endObject();
}

void
writeOptions(JsonWriter &w, const sim::SimOptions &o)
{
    w.beginObject()
        .key("spec_mode").value(stacks::toString(o.spec_mode))
        .key("accounting").value(o.accounting)
        .key("max_cycles").value(static_cast<std::uint64_t>(o.max_cycles))
        .key("warmup_instrs");
    if (o.warmup_instrs)
        w.value(*o.warmup_instrs);
    else
        w.null();
    w.key("validation").value(validate::toString(o.validation))
        .key("validation_interval")
        .value(static_cast<std::uint64_t>(o.validation_interval))
        .key("watchdog_cycles")
        .value(static_cast<std::uint64_t>(o.watchdog_cycles))
        .key("interval_cycles")
        .value(static_cast<std::uint64_t>(o.obs.interval_cycles))
        .key("trace_events").value(o.obs.trace_events)
        .endObject();
}

void
writeAggregate(JsonWriter &w, const sim::MulticoreResult &m)
{
    w.beginObject()
        .key("avg_cpi").value(m.avg_cpi)
        .key("avg_ipc").value(m.avg_ipc)
        .key("avg_cpi_stacks");
    writeStageStacks(w, m.avg_cpi_stacks);
    w.key("avg_flops_fraction");
    writeStack(w, m.avg_flops_fraction);
    w.key("avg_ipc_fraction");
    writeStack(w, m.avg_ipc_fraction);
    w.key("socket_flops").value(m.socket_flops)
        .key("socket_peak_flops").value(m.socket_peak_flops)
        .key("validation");
    writeValidation(w, m.validation);
    w.endObject();
}

}  // namespace

void
writeMetricsSnapshot(JsonWriter &w, const MetricsSnapshot &snap)
{
    w.beginObject().key("counters").beginObject();
    for (const CounterValue &c : snap.counters)
        w.key(c.name).value(c.value);
    w.endObject().key("gauges").beginObject();
    for (const GaugeValue &g : snap.gauges)
        w.key(g.name).value(g.value);
    w.endObject().key("histograms").beginObject();
    for (const HistogramValue &h : snap.histograms) {
        w.key(h.name).beginObject().key("bounds").beginArray();
        for (const double b : h.bounds)
            w.value(b);
        w.endArray().key("counts").beginArray();
        for (const std::uint64_t c : h.counts)
            w.value(c);
        w.endArray()
            .key("total").value(h.total)
            .key("sum").value(h.sum)
            .endObject();
    }
    w.endObject().endObject();
}

void
ReportBuilder::setHostMetrics(MetricsSnapshot snapshot)
{
    host_metrics_ = std::move(snapshot);
}

void
ReportBuilder::add(std::string label, const sim::SimOptions &options,
                   const sim::SimResult &result)
{
    Job job;
    job.label = std::move(label);
    job.cores = 1;
    job.options = options;
    job.single = result;
    jobs_.push_back(std::move(job));
}

void
ReportBuilder::add(std::string label, const sim::SimOptions &options,
                   const sim::MulticoreResult &result)
{
    Job job;
    job.label = std::move(label);
    job.cores = static_cast<unsigned>(result.per_core.size());
    job.options = options;
    job.multi = result;
    jobs_.push_back(std::move(job));
}

ReportBuilder::Job
ReportBuilder::makeEntry(const runner::JobOutcome &outcome,
                         const sim::SimOptions &options, unsigned cores)
{
    Job job;
    job.label = outcome.label;
    job.cores = cores;
    job.options = options;
    job.status = outcome.status;
    job.attempts = outcome.attempts;
    job.error = outcome.error;
    if (outcome.completed()) {
        if (outcome.multi) {
            job.cores =
                static_cast<unsigned>(outcome.multi->per_core.size());
            job.multi = *outcome.multi;
        } else {
            job.single = outcome.single;
        }
    }
    return job;
}

void
ReportBuilder::add(const runner::JobOutcome &outcome,
                   const sim::SimOptions &options, unsigned cores)
{
    jobs_.push_back(makeEntry(outcome, options, cores));
}

void
ReportBuilder::addRaw(std::string job_json)
{
    Job job;
    job.raw = std::move(job_json);
    jobs_.push_back(std::move(job));
}

void
ReportBuilder::writeJob(JsonWriter &w, const Job &job)
{
    const bool completed = job.status == runner::JobStatus::kOk ||
                           job.status == runner::JobStatus::kRetried;
    w.beginObject()
        .key("label").value(job.label)
        .key("cores").value(job.cores)
        .key("job_status").beginObject()
        .key("status").value(runner::toString(job.status))
        .key("attempts").value(job.attempts)
        .key("error").value(job.error)
        .endObject()
        .key("options");
    writeOptions(w, job.options);
    w.key("results").beginArray();
    if (completed) {
        if (job.multi) {
            for (std::size_t i = 0; i < job.multi->per_core.size(); ++i)
                writeResult(w, static_cast<unsigned>(i),
                            job.multi->per_core[i]);
        } else {
            writeResult(w, 0, job.single);
        }
    }
    w.endArray();
    w.key("aggregate");
    if (completed && job.multi)
        writeAggregate(w, *job.multi);
    else
        w.null();
    w.endObject();
}

std::string
ReportBuilder::jobJson(const runner::JobOutcome &outcome,
                       const sim::SimOptions &options, unsigned cores)
{
    JsonWriter w;
    writeJob(w, makeEntry(outcome, options, cores));
    return w.str();
}

std::string
ReportBuilder::json() const
{
    JsonWriter w;
    w.beginObject()
        .key("schema").value(kReportSchemaName)
        .key("version").value(kReportSchemaVersion)
        .key("command").value(command_)
        .key("jobs").beginArray();
    for (const Job &job : jobs_) {
        if (job.raw) {
            w.raw(*job.raw);
            continue;
        }
        writeJob(w, job);
    }
    w.endArray();
    w.key("host_metrics");
    if (host_metrics_)
        writeMetricsSnapshot(w, *host_metrics_);
    else
        w.null();
    w.endObject();
    // A copy, not take(): reports are kept (the serve result cache, the
    // sweep journal), and the copy drops the buffer's growth slack, which
    // could otherwise double the memory each kept report occupies.
    return w.str();
}

void
writeTextFile(const std::string &path, std::string_view content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        throw StackscopeError(ErrorCategory::kUsage,
                              "cannot open output file for writing")
            .withContext("path", path);
    }
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out) {
        throw StackscopeError(ErrorCategory::kUsage,
                              "failed writing output file")
            .withContext("path", path);
    }
}

}  // namespace stackscope::obs
