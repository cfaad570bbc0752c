/**
 * @file
 * Benchmark program entry point (perfbench/README.md).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --daemon PATH --expected DIR --out DIR [--record-expected]
 *             [--setup-only]
 *
 * NAME is single_core_long, paper_batch, serve_mixed or `all`. Prints
 * every metric with its unit and sample count, writes the full result,
 * the per-layer table and (traced) the spans under --out, and ends
 * stdout with one JSON object: {"correct", "attempted", "failed",
 * "metrics"}. Exit 0 when every output check passed, 1 when one failed,
 * 2 on a usage error, 3 when a reported metric lacks samples.
 */

#include <sys/stat.h>
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "common/error.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;
using stackscope::obs::JsonWriter;

// The metric names of BENCHMARK.json: the JSON result carries exactly
// these, "end_to_end" untraced and "per_layer" traced.
constexpr const char *kEndToEnd[] = {"setup_s", "sim_minstr_per_s",
                                     "ops_per_s", "job_p50_ms",
                                     "peak_rss_mb"};
constexpr const char *kPerLayer[] = {
    "trace.ns_per_instr",      "core.ns_per_eval_cycle",
    "core.eval_cycle_share",   "core.fetch_share",
    "core.dispatch_share",     "core.issue_share",
    "core.writeback_share",    "core.commit_share",
    "stacks.accounting_share", "stacks.accounting_overhead",
    "sim.warmup_share",        "sim.report_share",
    "obs.report_us_per_job",   "obs.report_bytes_per_job",
    "tracing_overhead"};

constexpr const char *kWorkloads[] = {"single_core_long", "paper_batch",
                                      "serve_mixed"};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "single_core_long|paper_batch|serve_mixed|all --seed N "
                 "--seconds S --trace 0|1 --daemon PATH --expected DIR "
                 "--out DIR [--record-expected] [--setup-only]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--record-expected" || arg == "--setup-only") {
            (arg == "--setup-only" ? a.setup_only : a.record_expected) = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string v = argv[++i];
        try {
            if (arg == "--workload")
                a.workload = v;
            else if (arg == "--seed")
                a.seed = std::stoull(v);
            else if (arg == "--seconds")
                a.seconds = std::stod(v);
            else if (arg == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (arg == "--daemon")
                a.daemon = v;
            else if (arg == "--expected")
                a.expected_dir = v;
            else if (arg == "--out")
                a.out_dir = v;
            else
                usage(("unknown option " + arg).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + arg).c_str());
        }
    }
    if (a.workload.empty() || a.daemon.empty() || a.expected_dir.empty() ||
        a.out_dir.empty())
        usage("--workload, --daemon, --expected and --out are required");
    if (!(a.seconds > 0.0) || a.seconds > 120.0)
        usage("--seconds must be in (0, 120]");
    return a;
}

const Metric *
findMetric(const std::vector<Metric> &list, const char *name)
{
    for (const Metric &m : list)
        if (m.name == name)
            return &m;
    return nullptr;
}

void
printMetrics(const char *title, const std::vector<Metric> &list)
{
    if (list.empty())
        return;
    std::printf("  %s:\n", title);
    for (const Metric &m : list) {
        if (m.present)
            std::printf("    %-28s %14.6g %-9s n=%zu\n", m.name.c_str(),
                        m.value, m.unit.c_str(), m.samples);
        else
            std::printf("    %-28s %14s %-9s n=%zu (too few samples)\n",
                        m.name.c_str(), "absent", m.unit.c_str(),
                        m.samples);
    }
}

void
writeMetrics(JsonWriter &w, const std::vector<Metric> &list)
{
    w.beginObject();
    for (const Metric &m : list) {
        w.key(m.name).beginObject().key("unit").value(m.unit);
        if (m.present)
            w.key("value").value(m.value);
        else
            w.key("value").null();
        w.key("samples").value(static_cast<std::uint64_t>(m.samples))
            .endObject();
    }
    w.endObject();
}

std::string
hostFacts()
{
#if defined(__GNUC__) && !defined(__clang__)
    const char *compiler = "gcc " __VERSION__;
#else
    const char *compiler = __VERSION__;
#endif
    char buf[256];
    std::snprintf(buf, sizeof(buf), "nproc=%u compiler=\"%s\" build=%s",
                  std::thread::hardware_concurrency(), compiler,
                  PERFBENCH_BUILD_TYPE);
    return buf;
}

/** Print, save, and select the JSON metrics; false when one lacks
 *  samples. */
bool
report(const Args &args, const Outcome &o, const std::string &prefix,
       std::vector<std::pair<std::string, const Metric *>> &json)
{
    std::printf("perfbench %s seed=%llu seconds=%g trace=%d %s\n",
                o.workload.c_str(), static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0, hostFacts().c_str());
    printMetrics("end_to_end", o.end_to_end);
    printMetrics("end_to_end, this workload only", o.extra);
    printMetrics("per_layer", o.layers);
    std::printf("  error_rate %.6g (%llu failed of %llu attempted)\n",
                o.attempted ? double(o.failed) / double(o.attempted) : 0.0,
                static_cast<unsigned long long>(o.failed),
                static_cast<unsigned long long>(o.attempted));
    for (const std::string &e : o.errors)
        std::printf("  CHECK FAILED: %s\n", e.c_str());

    const std::string stem = o.workload + "-seed" + std::to_string(args.seed);
    JsonWriter w;
    w.beginObject()
        .key("workload").value(o.workload)
        .key("seed").value(args.seed)
        .key("seconds").value(args.seconds)
        .key("trace").value(args.trace)
        .key("host").value(hostFacts())
        .key("attempted").value(o.attempted)
        .key("failed").value(o.failed)
        .key("errors").beginArray();
    for (const std::string &e : o.errors)
        w.value(e);
    w.endArray().key("end_to_end");
    writeMetrics(w, o.end_to_end);
    w.key("extra");
    writeMetrics(w, o.extra);
    w.key("per_layer");
    writeMetrics(w, o.layers);
    w.endObject();
    stackscope::obs::writeTextFile(args.out_dir + "/result-" + stem +
                                       "-trace" + (args.trace ? "1" : "0") +
                                       ".json",
                                   w.str() + "\n");
    if (args.trace) {
        std::string tsv = "metric\tvalue\tunit\tsamples\n";
        for (const Metric &m : o.layers) {
            char value[32];
            std::snprintf(value, sizeof(value), "%.9g", m.value);
            tsv += m.name + "\t" + value + "\t" + m.unit + "\t" +
                   std::to_string(m.samples) + "\n";
        }
        stackscope::obs::writeTextFile(args.out_dir + "/layers-" + stem +
                                           ".tsv",
                                       tsv);
    }

    bool ok = true;
    const auto select = [&](const std::vector<Metric> &list,
                            const char *name) {
        const Metric *m = findMetric(list, name);
        if (m == nullptr || !m->present) {
            std::fprintf(stderr, "perfbench: %s: metric %s %s\n",
                         o.workload.c_str(), name,
                         m == nullptr ? "missing" : "lacks samples");
            ok = false;
            return;
        }
        json.emplace_back(prefix + name, m);
    };
    if (args.trace)
        for (const char *name : kPerLayer)
            select(o.layers, name);
    else
        for (const char *name : kEndToEnd)
            select(o.end_to_end, name);
    return ok;
}

}  // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    // Run inside the output directory, so the daemon's socket and log
    // have short relative paths there.
    ::mkdir(args.out_dir.c_str(), 0755);
    for (std::string *path : {&args.daemon, &args.expected_dir,
                              &args.out_dir}) {
        char resolved[PATH_MAX];
        if (::realpath(path->c_str(), resolved) == nullptr)
            usage(("no such path: " + *path).c_str());
        *path = resolved;
    }
    if (::chdir(args.out_dir.c_str()) != 0)
        usage("cannot enter the output directory");
    char self[PATH_MAX];
    if (::realpath("/proc/self/exe", self) == nullptr)
        usage("cannot find this binary");
    args.self = self;
    if (args.setup_only) {
        if (args.workload == "single_core_long")
            setUpSingleCoreLong(args);
        else if (args.workload == "paper_batch")
            setUpPaperBatch(args);
        else
            usage("--setup-only needs single_core_long or paper_batch");
        return 0;
    }

    std::vector<std::string> names;
    if (args.workload == "all") {
        names.assign(std::begin(kWorkloads), std::end(kWorkloads));
    } else {
        bool known = false;
        for (const char *w : kWorkloads)
            known = known || args.workload == w;
        if (!known)
            usage(("unknown workload " + args.workload).c_str());
        names.push_back(args.workload);
    }

    std::vector<Outcome> outcomes;
    try {
        for (const std::string &name : names) {
            Args one = args;
            one.workload = name;
            if (name == "single_core_long")
                outcomes.push_back(runSingleCoreLong(one));
            else if (name == "paper_batch")
                outcomes.push_back(runPaperBatch(one));
            else
                outcomes.push_back(runServeMixed(one));
        }
    } catch (const stackscope::StackscopeError &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.describe().c_str());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    std::vector<std::pair<std::string, const Metric *>> json;
    bool complete = true;
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const Outcome &o : outcomes) {
        const std::string prefix =
            names.size() > 1 ? o.workload + "." : std::string();
        complete = report(args, o, prefix, json) && complete;
        correct = correct && o.correct();
        attempted += o.attempted;
        // A check failure that is not tied to one operation still
        // counts as one failed operation.
        failed += std::max<std::uint64_t>(o.failed, o.errors.empty() ? 0 : 1);
    }
    if (!complete)
        return 3;

    JsonWriter w;
    w.beginObject()
        .key("correct").value(correct)
        .key("attempted").value(attempted)
        .key("failed").value(failed)
        .key("metrics").beginObject();
    for (const auto &[name, m] : json) {
        w.key(name).beginObject()
            .key("value").value(m->value)
            .key("unit").value(m->unit)
            .endObject();
    }
    w.endObject().endObject();
    std::printf("%s\n", w.str().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
