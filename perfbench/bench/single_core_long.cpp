/**
 * @file
 * single_core_long: one thread runs long single-core sim::simulate jobs.
 * The set mixes memory-bound, high-idle presets (mcf, omnetpp, cactus)
 * with core-bound, low-idle ones (exchange2, x264, imagick) on bdw and
 * knl, kVariants streams each; the seed sets every job's
 * SyntheticParams::seed and the order the jobs run in.
 *
 * A round runs every job once; rounds repeat for the measured seconds.
 * Each job's latency is its best wall time over the rounds, so load
 * from other tenants of the host, which only ever slows a job down,
 * drops out. Traced, every job runs three times in a row: through
 * sim::simulate (the untraced baseline), through the profiled core loop
 * (OooCore with a StageProfile, plus a drain of its trace) and through
 * sim::simulate with accounting off.
 */

#include <algorithm>
#include <cstdio>
#include <limits>

#include "layers.hpp"
#include "obs/report.hpp"
#include "sim/presets.hpp"
#include "trace/synthetic_generator.hpp"
#include "trace/workload_library.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace sim = stackscope::sim;
namespace trace = stackscope::trace;

constexpr const char *kPresets[] = {"mcf",       "omnetpp", "cactus",
                                    "exchange2", "x264",    "imagick"};
constexpr const char *kMachines[] = {"bdw", "knl"};
/** Streams per (preset, machine): 24 jobs, enough for job_p50_ms. */
constexpr int kVariants = 2;
constexpr std::uint64_t kMeasured = 100'000;
constexpr std::uint64_t kWarmup = kMeasured / 2;
constexpr int kSetups = 9;
constexpr std::size_t kMinRounds = 3;

std::vector<CoreJob>
makeJobs(std::uint64_t seed)
{
    std::vector<CoreJob> jobs;
    for (const char *preset : kPresets) {
        for (const char *machine : kMachines) {
            for (int v = 0; v < kVariants; ++v) {
                trace::SyntheticParams params =
                    trace::findWorkload(preset).params;
                params.num_instrs = kMeasured + kWarmup;
                params.seed = mixSeed(seed, jobs.size());
                CoreJob job;
                job.label = std::string(preset) + "/" + machine + "/" +
                            std::to_string(v);
                job.machine = sim::machineByName(machine);
                job.trace =
                    std::make_unique<trace::SyntheticGenerator>(params);
                job.options.warmup_instrs = kWarmup;
                jobs.push_back(std::move(job));
            }
        }
    }
    for (std::size_t i = jobs.size() - 1; i > 0; --i)
        std::swap(jobs[i], jobs[mixSeed(seed, 1000 + i) % (i + 1)]);
    return jobs;
}

/** Record the expected-value check of the first round's results. */
void
checkFirstRound(const Args &args, const std::vector<CoreJob> &jobs,
                const std::vector<sim::SimResult> &first, Outcome &out)
{
    Expected actual;
    for (std::size_t j = 0; j < jobs.size(); ++j)
        actual.jobs[jobs[j].label] = {first[j].cycles, first[j].instrs};
    // The digest covers the jobs in label order, so it does not depend
    // on the seeded run order.
    std::vector<std::size_t> order(jobs.size());
    for (std::size_t j = 0; j < order.size(); ++j)
        order[j] = j;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return jobs[a].label < jobs[b].label;
    });
    stackscope::obs::ReportBuilder sorted("perfbench");
    for (std::size_t j : order)
        sorted.add(jobs[j].label, jobs[j].options, first[j]);
    actual.digest = digest(sorted.json());
    checkExpected(args, actual, out);
}

}  // namespace

void
setUpSingleCoreLong(const Args &args)
{
    makeJobs(args.seed);
}

Outcome
runSingleCoreLong(const Args &args)
{
    Outcome out;
    out.workload = "single_core_long";

    const std::vector<double> setups = timeSetUps(args, kSetups);
    const std::vector<CoreJob> jobs = makeJobs(args.seed);
    const double job_instrs = double(kMeasured + kWarmup);

    // Reference outputs: each job's first result.
    std::vector<sim::SimResult> first(jobs.size());
    std::vector<double> best_ms(jobs.size(),
                                std::numeric_limits<double>::infinity());
    double plain_s = 0.0;
    std::size_t plain_jobs = 0;

    CoreLayers layers;
    SpanLog spans;
    double traced_s = 0.0;
    double paired_plain_s = 0.0;
    std::size_t traced_jobs = 0;
    double report_us = 0.0;
    double report_bytes = 0.0;
    std::size_t reports = 0;

    auto &registry = stackscope::obs::MetricsRegistry::global();
    const auto start = Clock::now();
    const auto deadline = start + std::chrono::duration<double>(args.seconds);
    std::size_t round = 0;
    for (; round < kMinRounds || Clock::now() < deadline; ++round) {
        if (args.trace && round > 0 && Clock::now() >= deadline)
            break;
        std::vector<sim::SimResult> results;
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            const CoreJob &job = jobs[j];
            ++out.attempted;
            const SimCounters before =
                args.trace ? SimCounters::of(registry.snapshot())
                           : SimCounters{};
            const auto t0 = Clock::now();
            sim::SimResult r = sim::simulate(job.machine, *job.trace,
                                             job.options);
            const auto t1 = Clock::now();
            const double ms = msBetween(t0, t1);
            if (args.trace)
                layers.addSimCounters(SimCounters::of(registry.snapshot()) -
                                      before);
            best_ms[j] = std::min(best_ms[j], ms);
            plain_s += ms * 1e-3;
            ++plain_jobs;
            std::string why = checkStackLaws(r);
            if (round == 0)
                first[j] = r;
            else if (r.cycles != first[j].cycles ||
                     r.instrs != first[j].instrs)
                why = "not deterministic across rounds";
            if (!why.empty()) {
                ++out.failed;
                out.fail(job.label + ": " + why);
            }
            results.push_back(std::move(r));
            if (!args.trace)
                continue;

            // The profiled core loop must run the same program.
            const ProfiledRun p = runProfiled(job);
            const auto t2 = Clock::now();
            std::uint64_t drained = 0;
            const double drain_ns = drainTrace(*job.trace, drained);
            const auto t3 = Clock::now();
            sim::SimOptions off = job.options;
            off.accounting = false;
            const sim::SimResult r_off =
                sim::simulate(job.machine, *job.trace, off);
            const auto t4 = Clock::now();
            layers.addProfiled(p);
            layers.addDrain(drained, drain_ns);
            layers.addAccountingPair(ms * 1e-3, secondsBetween(t3, t4));
            traced_s += secondsBetween(t1, t2);
            paired_plain_s += ms * 1e-3;
            ++traced_jobs;
            const int js = spans.add("job", t0, t4, -1, job.label);
            spans.add("sim.simulate", t0, t1, js, job.label);
            spans.add("core.run", t1, t2, js, job.label);
            spans.add("trace.drain", t2, t3, js, job.label);
            spans.add("sim.simulate(accounting off)", t3, t4, js, job.label);
            if (p.cycles != first[j].cycles || p.instrs != first[j].instrs) {
                ++out.failed;
                out.fail(job.label + ": profiled core loop ran " +
                         std::to_string(p.cycles) + " cycles / " +
                         std::to_string(p.instrs) +
                         " instrs, sim::simulate " +
                         std::to_string(first[j].cycles) + " / " +
                         std::to_string(first[j].instrs));
            }
            if (drained != kMeasured + kWarmup)
                out.fail(job.label + ": trace drained " +
                         std::to_string(drained) + " instrs");
            if (r_off.cycles != first[j].cycles)
                out.fail(job.label + ": accounting changed the timing");
        }
        if (round == 0)
            checkFirstRound(args, jobs, first, out);
        if (args.trace) {
            // Serialization is not part of this workload; time it aside.
            const auto t0 = Clock::now();
            stackscope::obs::ReportBuilder report("perfbench");
            for (std::size_t j = 0; j < jobs.size(); ++j)
                report.add(jobs[j].label, jobs[j].options, results[j]);
            const std::string bytes = report.json();
            report_us += msBetween(t0, Clock::now()) * 1e3;
            report_bytes += double(bytes.size());
            reports += jobs.size();
        }
    }

    // One pass over every job at its best time.
    double best_s = 0.0;
    for (double ms : best_ms)
        best_s += ms * 1e-3;
    addEndToEnd(out.end_to_end, setups, best_s, jobs.size(), best_ms,
                double(jobs.size()) * job_instrs, selfPeakRssMb());
    out.extra.push_back(valueMetric("rounds", "count", double(round), 1));
    out.extra.push_back(valueMetric("mean_sim_minstr_per_s", "Minstr/s",
                                    double(plain_jobs) * job_instrs / 1e6 /
                                        plain_s,
                                    plain_jobs));
    if (args.trace) {
        const auto per = [](double a, double n) { return n > 0 ? a / n : 0.0; };
        layers.emit(out.layers);
        out.layers.push_back(valueMetric("obs.report_us_per_job", "us",
                                         per(report_us, double(reports)),
                                         reports));
        out.layers.push_back(valueMetric("obs.report_bytes_per_job", "bytes",
                                         per(report_bytes, double(reports)),
                                         reports));
        // The profiled core loop's wall over sim::simulate's, job by job.
        out.layers.push_back(valueMetric("tracing_overhead", "share",
                                         per(traced_s, paired_plain_s) - 1.0,
                                         traced_jobs));
        spans.write(args.out_dir + "/spans-single_core_long-seed" +
                    std::to_string(args.seed) + ".json");
    }
    return out;
}

}  // namespace perfbench
