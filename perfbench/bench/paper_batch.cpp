/**
 * @file
 * paper_batch: one runner::BatchRunner with min(4, nproc) threads runs
 * Fig. 2's real and idealized jobs (real plus the four
 * analysis::standardKnobs) on a seeded slice of the 18 presets x {bdw,
 * knl} (the seed picks each preset's machine), and Fig. 4/5 HPC kernels
 * (one seeded kernel per DeepBench group, on knl and skx) as 4-core
 * simulateMulticore points. Results then go through analysis and one
 * obs::ReportBuilder report. One round is one such batch.
 *
 * A job's start is when sim::simulate clones its trace (StampedTrace
 * records it); its end is the on_outcome callback.
 */

#include <algorithm>
#include <limits>

#include "analysis/bounds.hpp"
#include "layers.hpp"
#include "obs/report.hpp"
#include "runner/batch_runner.hpp"
#include "sim/presets.hpp"
#include "trace/hpc_kernels.hpp"
#include "trace/synthetic_generator.hpp"
#include "trace/workload_library.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace analysis = stackscope::analysis;
namespace runner = stackscope::runner;
namespace sim = stackscope::sim;
namespace trace = stackscope::trace;

constexpr std::uint64_t kMeasured = 20'000;
constexpr std::uint64_t kWarmup = kMeasured / 2;
constexpr std::uint64_t kHpcMeasured = 6'000;
constexpr std::uint64_t kHpcWarmup = kHpcMeasured / 2;
constexpr unsigned kHpcCores = 4;
constexpr const char *kHpcGroups[] = {"sgemm_train", "sgemm_inf", "conv_fwd",
                                      "conv_bwd_f", "conv_bwd_d"};
constexpr int kSetups = 9;
constexpr std::size_t kMinRounds = 3;
/** Single-core jobs per traced round given to the core-layer probes. */
constexpr std::size_t kProbesPerRound = 3;

/** Forwards to a trace and records when sim::simulate first clones it. */
class StampedTrace : public trace::TraceSource
{
  public:
    StampedTrace(std::unique_ptr<trace::TraceSource> inner,
                 Clock::time_point *stamp)
        : inner_(std::move(inner)), stamp_(stamp)
    {
    }

    bool next(trace::DynInstr &out) override { return inner_->next(out); }
    void reset() override { inner_->reset(); }

    std::unique_ptr<trace::TraceSource>
    clone() const override
    {
        if (*stamp_ == Clock::time_point{})
            *stamp_ = Clock::now();
        return inner_->clone();
    }

  private:
    std::unique_ptr<trace::TraceSource> inner_;
    Clock::time_point *stamp_;
};

struct BatchJob
{
    CoreJob job;
    unsigned cores = 1;
    /** Trace length times cores: the instructions the job simulates. */
    double instrs = 0.0;
    /** Index of the real job of this job's preset point (-1: HPC). */
    int real = -1;
    /** Knob index for idealized jobs. */
    int knob = -1;
};

std::vector<BatchJob>
makeJobs(std::uint64_t seed)
{
    std::vector<BatchJob> jobs;
    const std::vector<analysis::IdealizationKnob> knobs =
        analysis::standardKnobs();
    const std::vector<trace::Workload> &presets = trace::allSpecWorkloads();
    for (std::size_t i = 0; i < presets.size(); ++i) {
        const char *machine = mixSeed(seed, i) % 2 == 0 ? "bdw" : "knl";
        trace::SyntheticParams params = presets[i].params;
        params.num_instrs = kMeasured + kWarmup;
        params.seed = mixSeed(seed, 100 + i);
        const trace::SyntheticGenerator gen(params);
        const sim::MachineConfig real = sim::machineByName(machine);
        const int real_index = static_cast<int>(jobs.size());
        for (int k = -1; k < static_cast<int>(knobs.size()); ++k) {
            BatchJob b;
            b.job.label = presets[i].name + "/" + machine + "/" +
                          (k < 0 ? std::string("real") : knobs[k].label);
            b.job.machine =
                k < 0 ? real : sim::applyIdealization(real, knobs[k].ideal);
            b.job.trace = gen.clone();
            b.job.options.warmup_instrs = kWarmup;
            b.instrs = double(params.num_instrs);
            b.real = real_index;
            b.knob = k;
            jobs.push_back(std::move(b));
        }
    }
    const std::vector<trace::HpcBenchmark> &suite = trace::deepBenchSuite();
    for (std::size_t g = 0; g < std::size(kHpcGroups); ++g) {
        std::vector<const trace::HpcBenchmark *> group;
        for (const trace::HpcBenchmark &bm : suite)
            if (bm.group == kHpcGroups[g])
                group.push_back(&bm);
        const trace::HpcBenchmark &bm =
            *group[mixSeed(seed, 200 + g) % group.size()];
        const struct
        {
            const char *machine;
            trace::SgemmCodegen style;
        } targets[] = {{"knl", trace::SgemmCodegen::kKnlJit},
                       {"skx", trace::SgemmCodegen::kSkxBroadcast}};
        for (const auto &t : targets) {
            BatchJob b;
            b.job.machine = sim::machineByName(t.machine);
            const trace::HpcTarget target{b.job.machine.core.flops_vec_lanes,
                                          t.style};
            const std::uint64_t n = kHpcMeasured + kHpcWarmup;
            const std::uint64_t s = mixSeed(seed, 300 + jobs.size());
            b.job.trace = bm.is_sgemm
                              ? trace::makeSgemmTrace(bm.sgemm, target, n, s)
                              : trace::makeConvTrace(bm.conv, bm.conv_phase,
                                                     target, n, s);
            b.job.label = bm.name + "/" + t.machine + "/x4";
            b.job.options.warmup_instrs = kHpcWarmup;
            b.cores = kHpcCores;
            b.instrs = double(n * kHpcCores);
            jobs.push_back(std::move(b));
        }
    }
    return jobs;
}

/** Outcome of one job reduced to what the checks compare. */
std::pair<std::uint64_t, std::uint64_t>
countsOf(const runner::JobOutcome &o)
{
    if (o.multi) {
        std::uint64_t cycles = 0;
        std::uint64_t instrs = 0;
        for (const sim::SimResult &r : o.multi->per_core) {
            cycles = std::max<std::uint64_t>(cycles, r.cycles);
            instrs += r.instrs;
        }
        return {cycles, instrs};
    }
    return {o.single.cycles, o.single.instrs};
}

struct RoundTimes
{
    Clock::time_point start;
    Clock::time_point batch_end;
    Clock::time_point post_end;
    Clock::time_point end;
    std::vector<Clock::time_point> job_start;
    std::vector<Clock::time_point> job_end;
    runner::ThreadPool::Stats pool_before;
    runner::ThreadPool::Stats pool_after;
    std::string report;
    /** Sum of the analysis outputs, compared across rounds. */
    double post_sum = 0.0;
};

/** One batch: run, analyse, report. */
runner::BatchResult
runRound(runner::BatchRunner &batch, const std::vector<BatchJob> &master,
         RoundTimes &t)
{
    t.job_start.assign(master.size(), Clock::time_point{});
    t.job_end.assign(master.size(), Clock::time_point{});
    t.pool_before = batch.poolStats();
    t.start = Clock::now();
    std::vector<runner::SimJob> jobs;
    jobs.reserve(master.size());
    for (std::size_t i = 0; i < master.size(); ++i) {
        runner::SimJob j;
        j.label = master[i].job.label;
        j.machine = master[i].job.machine;
        j.trace = std::make_unique<StampedTrace>(master[i].job.trace->clone(),
                                                 &t.job_start[i]);
        j.options = master[i].job.options;
        j.cores = master[i].cores;
        jobs.push_back(std::move(j));
    }
    runner::BatchOptions options;
    options.keep_going = true;
    options.on_outcome = [&t](std::size_t i, const runner::JobOutcome &) {
        t.job_end[i] = Clock::now();
    };
    runner::BatchResult result = batch.run(std::move(jobs), nullptr, options);
    t.batch_end = Clock::now();
    t.pool_after = batch.poolStats();

    // Fig. 2 post-processing: multi-stage bounds and error per knob.
    const std::vector<analysis::IdealizationKnob> knobs =
        analysis::standardKnobs();
    double error_sum = 0.0;
    for (std::size_t i = 0; i < master.size(); ++i) {
        const BatchJob &b = master[i];
        if (b.knob < 0 || !result.outcomes[i].completed() ||
            !result.outcomes[b.real].completed())
            continue;
        const sim::SimResult &real = result.outcomes[b.real].single;
        const analysis::MultiStageStacks ms = analysis::multiStageOf(real);
        const double actual = real.cpi - result.outcomes[i].single.cpi;
        const stackscope::stacks::CpiComponent comp = knobs[b.knob].comp;
        const analysis::ComponentBounds bounds =
            analysis::componentBounds(ms, comp);
        error_sum += analysis::multiStageError(ms, comp, actual) +
                     bounds.hi - bounds.lo;
    }
    t.post_end = Clock::now();

    stackscope::obs::ReportBuilder report("perfbench");
    for (std::size_t i = 0; i < master.size(); ++i)
        report.add(result.outcomes[i], master[i].job.options, master[i].cores);
    t.report = report.json();
    t.end = Clock::now();
    t.post_sum = error_sum;
    return result;
}

unsigned
batchThreads()
{
    return std::min(4u, runner::ThreadPool::hardwareThreads());
}

}  // namespace

void
setUpPaperBatch(const Args &args)
{
    makeJobs(args.seed);
    runner::BatchRunner batch(batchThreads());
}

Outcome
runPaperBatch(const Args &args)
{
    Outcome out;
    out.workload = "paper_batch";
    const unsigned threads = batchThreads();

    const std::vector<double> setups = timeSetUps(args, kSetups);
    const std::vector<BatchJob> master = makeJobs(args.seed);
    runner::BatchRunner batch(threads);

    std::vector<std::pair<std::uint64_t, std::uint64_t>> first;
    std::string first_report;
    double first_post = 0.0;
    // Each job's best wall time over the untraced rounds (load from other
    // tenants of the host only ever slows a job down) and every round's
    // wall.
    std::vector<double> best_ms(master.size(),
                                std::numeric_limits<double>::infinity());
    std::vector<double> round_ms;
    double round_instrs = 0.0;
    for (const BatchJob &b : master)
        round_instrs += b.instrs;

    // Traced-round accumulators.
    SpanLog spans;
    CoreLayers layers;
    std::vector<double> traced_round_ms;
    std::size_t traced_rounds = 0;
    double busy_s = 0.0;
    double capacity_s = 0.0;
    double idle_s = 0.0;
    std::vector<double> tail_ms;
    std::uint64_t steals = 0;
    double post_ms = 0.0;
    double report_us = 0.0;
    double report_bytes = 0.0;
    std::size_t reported_jobs = 0;
    double multicore_ns = 0.0;
    double multicore_core_cycles = 0.0;
    std::size_t multicore_jobs = 0;
    std::size_t next_probe = 0;

    auto &registry = stackscope::obs::MetricsRegistry::global();
    const auto start = Clock::now();
    const auto deadline = start + std::chrono::duration<double>(args.seconds);
    for (std::size_t round = 0; round < kMinRounds || Clock::now() < deadline;
         ++round) {
        const bool traced = args.trace && round % 2 == 1;
        const SimCounters before = SimCounters::of(registry.snapshot());
        RoundTimes t;
        const runner::BatchResult result = runRound(batch, master, t);
        const double wall_s = secondsBetween(t.start, t.end);

        // Output checks, outside the timed round.
        for (std::size_t i = 0; i < master.size(); ++i) {
            const runner::JobOutcome &o = result.outcomes[i];
            ++out.attempted;
            std::string why;
            if (!o.completed())
                why = "did not complete: " + o.error;
            else if (o.multi)
                why = checkStackLaws(*o.multi);
            else
                why = checkStackLaws(o.single);
            if (why.empty() && round > 0 && countsOf(o) != first[i])
                why = "not deterministic across rounds";
            if (!why.empty()) {
                ++out.failed;
                out.fail(master[i].job.label + ": " + why);
            }
        }
        if (round == 0) {
            for (const runner::JobOutcome &o : result.outcomes)
                first.push_back(countsOf(o));
            first_report = t.report;
            first_post = t.post_sum;
            Expected actual;
            for (std::size_t i = 0; i < master.size(); ++i)
                actual.jobs[master[i].job.label] = first[i];
            actual.digest = digest(t.report);
            checkExpected(args, actual, out);
        } else if (t.report != first_report || t.post_sum != first_post) {
            out.fail("round " + std::to_string(round) +
                     " report or analysis differs from round 0");
        }

        if (!traced) {
            round_ms.push_back(wall_s * 1e3);
            layers.addSimCounters(SimCounters::of(registry.snapshot()) -
                                  before);
            for (std::size_t i = 0; i < master.size(); ++i)
                best_ms[i] = std::min(
                    best_ms[i], msBetween(t.job_start[i], t.job_end[i]));
            continue;
        }

        // Traced round: spans around every layer call, then the metrics
        // derived from them.
        ++traced_rounds;
        traced_round_ms.push_back(wall_s * 1e3);
        const std::string rid = "round-" + std::to_string(round);
        const int root = spans.add("round", t.start, t.end, -1, rid);
        const int bs = spans.add("runner.batch", t.start, t.batch_end, root,
                                 rid);
        Clock::time_point last_start = t.start;
        for (std::size_t i = 0; i < master.size(); ++i) {
            spans.add(master[i].cores > 1 ? "sim.simulateMulticore"
                                          : "sim.simulate",
                      t.job_start[i], t.job_end[i], bs, master[i].job.label);
            const double ms = msBetween(t.job_start[i], t.job_end[i]);
            busy_s += ms * 1e-3;
            last_start = std::max(last_start, t.job_start[i]);
            if (master[i].cores > 1 && result.outcomes[i].completed()) {
                multicore_ns += ms * 1e6;
                multicore_core_cycles +=
                    double(master[i].cores) *
                    double(countsOf(result.outcomes[i]).first);
                ++multicore_jobs;
            }
        }
        spans.add("analysis.post", t.batch_end, t.post_end, root, rid);
        spans.add("obs.report", t.post_end, t.end, root, rid);
        const double batch_s = secondsBetween(t.start, t.batch_end);
        capacity_s += batch_s * threads;
        // The first worker runs out of work at the first completion after
        // the last job started.
        Clock::time_point first_idle = t.batch_end;
        for (const Clock::time_point &e : t.job_end)
            if (e >= last_start)
                first_idle = std::min(first_idle, e);
        tail_ms.push_back(msBetween(first_idle, t.batch_end));
        steals += t.pool_after.steals - t.pool_before.steals;
        idle_s += double(t.pool_after.idle_micros -
                         t.pool_before.idle_micros) *
                  1e-6;
        post_ms += msBetween(t.batch_end, t.post_end);
        report_us += msBetween(t.post_end, t.end) * 1e3;
        report_bytes += double(t.report.size());
        reported_jobs += master.size();

        // Core-layer probes on a few of the batch's single-core jobs.
        for (std::size_t k = 0; k < kProbesPerRound; ++k) {
            const BatchJob *b = nullptr;
            while (b == nullptr || b->cores != 1)
                b = &master[next_probe++ % master.size()];
            const auto p0 = Clock::now();
            const ProfiledRun p = runProfiled(b->job);
            const auto p1 = Clock::now();
            const std::size_t i = static_cast<std::size_t>(b - master.data());
            if (p.cycles != first[i].first || p.instrs != first[i].second)
                out.fail(b->job.label +
                         ": profiled core loop differs from sim::simulate");
            layers.addProfiled(p);
            std::uint64_t drained = 0;
            const double drain_ns = drainTrace(*b->job.trace, drained);
            layers.addDrain(drained, drain_ns);
            sim::SimOptions off = b->job.options;
            off.accounting = false;
            const auto p2 = Clock::now();
            sim::simulate(b->job.machine, *b->job.trace, b->job.options);
            const auto p3 = Clock::now();
            sim::simulate(b->job.machine, *b->job.trace, off);
            const auto p4 = Clock::now();
            layers.addAccountingPair(secondsBetween(p2, p3),
                                     secondsBetween(p3, p4));
            const int ps = spans.add("probe", p0, p4, -1, b->job.label);
            spans.add("core.run", p0, p1, ps, b->job.label);
            spans.add("trace.drain", p1, p2, ps, b->job.label);
            spans.add("sim.simulate", p2, p3, ps, b->job.label);
            spans.add("sim.simulate(accounting off)", p3, p4, ps,
                      b->job.label);
        }
    }

    // Throughput of the median batch; each job at its best latency.
    const double batch_s = median(round_ms) * 1e-3;
    addEndToEnd(out.end_to_end, setups, batch_s, master.size(), best_ms,
                round_instrs, selfPeakRssMb());
    out.extra.push_back(percentileMetric("job_p90_ms", best_ms, 0.90));
    out.extra.push_back(valueMetric("batch_wall_ms", "ms", batch_s * 1e3,
                                    round_ms.size()));
    out.extra.push_back(valueMetric("threads", "count", threads, 1));
    if (args.trace) {
        const auto per = [](double a, double n) { return n > 0 ? a / n : 0.0; };
        layers.emit(out.layers);
        out.layers.push_back(valueMetric(
            "obs.report_us_per_job", "us",
            per(report_us, double(reported_jobs)), reported_jobs));
        out.layers.push_back(valueMetric(
            "obs.report_bytes_per_job", "bytes",
            per(report_bytes, double(reported_jobs)), reported_jobs));
        out.layers.push_back(valueMetric(
            "tracing_overhead", "share",
            per(median(traced_round_ms), median(round_ms)) - 1.0,
            traced_rounds));
        out.layers.push_back(valueMetric(
            "sim.multicore_ns_per_core_cycle", "ns",
            per(multicore_ns, multicore_core_cycles), multicore_jobs));
        out.layers.push_back(valueMetric("runner.busy_share", "share",
                                         per(busy_s, capacity_s),
                                         traced_rounds));
        out.layers.push_back(valueMetric("runner.idle_share", "share",
                                         per(idle_s, capacity_s),
                                         traced_rounds));
        out.layers.push_back(valueMetric("runner.tail_ms", "ms",
                                         median(tail_ms), tail_ms.size()));
        out.layers.push_back(valueMetric(
            "runner.steals", "count", per(double(steals), double(traced_rounds)),
            traced_rounds));
        out.layers.push_back(valueMetric(
            "analysis.post_ms", "ms", per(post_ms, double(traced_rounds)),
            traced_rounds));
        spans.write(args.out_dir + "/spans-paper_batch-seed" +
                    std::to_string(args.seed) + ".json");
    }
    return out;
}

}  // namespace perfbench
