/**
 * @file
 * The stackscope command-line tool: run any workload on any machine and
 * print (or export) multi-stage CPI stacks, FLOPS stacks, idealization
 * bounds and speculation-mode comparisons without writing C++.
 *
 * Each command is declared once in kCommands and each option once, in
 * runner::kJobFields (the options a serve job spec shares) or kFlags,
 * with the commands that read it; `stackscope help` prints both tables.
 *
 * Environment: STACKSCOPE_LOG, STACKSCOPE_LOG_JSON and STACKSCOPE_PROGRESS
 * (docs/observability.md). Exit codes: docs/exit_codes.md.
 */

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/csv.hpp"
#include "analysis/render.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/json_parse.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/report_diff.hpp"
#include "obs/trace_events.hpp"
#include "runner/batch_runner.hpp"
#include "runner/heartbeat.hpp"
#include "runner/job_spec.hpp"
#include "runner/journal.hpp"
#include "serve/server.hpp"
#include "sim/multicore.hpp"
#include "sim/presets.hpp"
#include "sim/simulation.hpp"
#include "trace/hpc_kernels.hpp"
#include "trace/synthetic_generator.hpp"
#include "trace/workload_library.hpp"

namespace {

using namespace stackscope;
using stacks::CpiComponent;
using stacks::Stage;
using runner::FieldKind;
using runner::FieldType;
using runner::FieldValue;
using std::chrono::milliseconds;

struct Command
{
    std::string_view name;
    std::string_view help;
};

constexpr Command kCommands[] = {
    {"list", "enumerate workloads, machines and HPC kernels"},
    {"run", "single- or multi-core run with all stacks"},
    {"bounds", "multi-stage bounds vs measured idealizations"},
    {"hpc", "FLOPS stack analysis of a DeepBench kernel"},
    {"compare-spec", "oracle / simple / spec-counters dispatch stacks"},
    {"sweep", "workload x machine x cores grid, CSV output"},
    {"phases", "interval stack time-series heatmaps"},
    {"diff-report", "A B: compare two reports, exit 4 on a regression"},
    {"serve", "resident analysis daemon with a result cache "
              "(docs/serving.md)"},
    {"help", "print this text"},
};

struct CliOptions
{
    std::string command;
    /** The job the simulating commands run (sweep: its base point). */
    runner::JobSpec job;
    std::string kernel;
    /** The sweep grid's cores axis; other commands take one --cores. */
    std::vector<unsigned> cores_list;
    /** Batch-runner worker threads; 0 = all hardware threads. */
    unsigned threads = 0;
    /** Sweep axes. */
    std::vector<std::string> workloads;
    std::vector<std::string> machines;
    bool csv = false;
    sim::Idealization ideal{};
    runner::BatchOptions batch{};
    /** Restrict --inject-fault to labels containing this substring. */
    std::string fault_job;
    std::string journal_path;
    std::string resume_path;
    std::string trace_out;
    std::string report_out;
    /** Omit host_metrics from reports, keeping them byte-deterministic. */
    bool no_host_metrics = false;
    serve::ServeOptions serve{};
    /** diff-report: the two report paths. */
    std::vector<std::string> positionals;
    obs::DiffTolerance diff_tol{};
    std::vector<std::string> watch_texts;
    std::vector<obs::WatchSpec> watches;
};

/** Split "a,b,c" into its non-empty elements. */
std::vector<std::string>
splitList(std::string_view flag, std::string_view text)
{
    std::vector<std::string> out;
    for (std::size_t start = 0; start <= text.size();) {
        const std::size_t comma = text.find(',', start);
        if (comma != start && start < text.size())
            out.emplace_back(text.substr(start, comma - start));
        if (comma == std::string_view::npos)
            break;
        start = comma + 1;
    }
    if (out.empty()) {
        throw StackscopeError(ErrorCategory::kUsage,
                              "value for --" + std::string(flag) +
                                  " must be a non-empty comma list, got '" +
                                  std::string(text) + "'");
    }
    return out;
}

using runner::count;
using runner::kReal;
using runner::kSwitch;
using runner::kText;

constexpr double kMaxUnsigned = std::numeric_limits<unsigned>::max();
constexpr const char *kSimCommands =
    "run bounds hpc compare-spec sweep phases";

/** One CLI-only option; the options a job spec shares live in
 *  runner::kJobFields. */
struct Flag
{
    std::string_view name;
    /** The commands that read it, separated by spaces. */
    std::string_view commands;
    FieldType type;
    /** Placeholder of the value in help text. */
    std::string_view arg;
    /** Value text used when the flag is absent; empty for none. */
    std::string_view fallback;
    std::string_view help;
    void (*set)(CliOptions &, const FieldValue &);
};

const Flag kFlags[] = {
    {"kernel", "hpc", kText, "NAME", "conv_fwd_0",
     "HPC kernel (`stackscope list`)",
     [](auto &o, auto &v) { o.kernel = v.text; }},
    {"threads", "bounds compare-spec sweep serve", count(0, kMaxUnsigned),
     "N", "0", "worker threads; 0 = all hardware threads",
     [](auto &o, auto &v) { o.threads = static_cast<unsigned>(v.count); }},
    {"workloads", "sweep", kText, "A,B,...", "mcf,gcc,bwaves",
     "the grid's workload axis",
     [](auto &o, auto &v) { o.workloads = splitList("workloads", v.text); }},
    {"machines", "sweep", kText, "A,B,...", "bdw,knl,skx",
     "the grid's machine axis",
     [](auto &o, auto &v) { o.machines = splitList("machines", v.text); }},
    {"csv", "run bounds hpc", kSwitch, "", "", "machine-readable output",
     [](auto &o, auto &) { o.csv = true; }},
    {"inject-fault", kSimCommands, kText, "KIND[:SEED]", "",
     "deterministic fault (kinds below); without --watchdog-cycles it "
     "also sets a 200000-cycle watchdog",
     [](auto &o, auto &v) {
         o.job.options.fault = validate::parseFaultSpec(v.text).value();
     }},
    {"max-retries", "sweep", count(0, kMaxUnsigned), "N", "0",
     "retry a retryably-failing job up to N times",
     [](auto &o, auto &v) {
         o.batch.retry.max_retries = static_cast<unsigned>(v.count);
     }},
    {"retry-backoff-ms", "sweep", count(0), "N", "50",
     "first-retry backoff delay, doubling per retry",
     [](auto &o, auto &v) { o.batch.retry.backoff = milliseconds(v.count); }},
    {"keep-going", "sweep", kSwitch, "", "",
     "quarantine failed jobs and finish the rest (exit 5 partial, 6 total "
     "failure)",
     [](auto &o, auto &) { o.batch.keep_going = true; }},
    {"fault-job", "sweep", kText, "SUBSTR", "",
     "inject the fault only into points whose label contains SUBSTR",
     [](auto &o, auto &v) { o.fault_job = v.text; }},
    {"journal", "sweep", kText, "FILE", "",
     "record completed points to a crash-safe journal",
     [](auto &o, auto &v) { o.journal_path = v.text; }},
    {"resume", "sweep", kText, "FILE", "",
     "replay a journal's points byte for byte, simulate the rest",
     [](auto &o, auto &v) { o.resume_path = v.text; }},
    {"trace-out", "run hpc phases", kText, "FILE", "",
     "write a Chrome trace-event JSON pipeline trace",
     [](auto &o, auto &v) { o.trace_out = v.text; }},
    {"report-out", kSimCommands, kText, "FILE", "",
     "write the JSON run report (docs/formats.md)",
     [](auto &o, auto &v) { o.report_out = v.text; }},
    {"no-host-metrics", kSimCommands, kSwitch, "", "",
     "report host_metrics as null, making the report deterministic",
     [](auto &o, auto &) { o.no_host_metrics = true; }},
    {"socket", "serve", kText, "PATH", "", "Unix-domain socket to listen on",
     [](auto &o, auto &v) { o.serve.socket_path = v.text; }},
    {"tcp", "serve", count(0, 65'535), "PORT", "",
     "loopback HTTP/1.1 port; 0 = ephemeral",
     [](auto &o, auto &v) { o.serve.tcp_port = static_cast<int>(v.count); }},
    {"cache-mb", "serve", count(1), "N", "64", "result-cache budget in MiB",
     [](auto &o, auto &v) { o.serve.cache_bytes = std::size_t(v.count) << 20; }},
    {"heartbeat-ms", "serve", count(1), "N", "500", "progress-frame period",
     [](auto &o, auto &v) { o.serve.heartbeat = milliseconds(v.count); }},
    // Capped so that the conversion to integer milliseconds cannot
    // overflow.
    {"drain-timeout", "serve", {FieldKind::kReal, 0.0, 86'400.0}, "SECS",
     "30", "shutdown grace period (exit 8 past it)",
     [](auto &o, auto &v) {
         o.serve.drain_timeout = milliseconds(std::uint64_t(v.real * 1000.0));
     }},
    {"slow-ms", "serve", kReal, "MS", "0",
     "warn-log the span breakdown of requests slower than MS; 0 = off",
     [](auto &o, auto &v) { o.serve.slow_ms = v.real; }},
    {"slo-ms", "serve", {FieldKind::kReal, 0.0, kReal.max, true}, "MS", "50",
     "latency objective of the /statusz \"slo\" window",
     [](auto &o, auto &v) { o.serve.slo_ms = v.real; }},
    {"trace-capacity", "serve", count(1), "N", "256",
     "finished request traces kept for GET /tracez",
     [](auto &o, auto &v) { o.serve.trace_capacity = v.count; }},
    {"tol-abs", "diff-report", kReal, "X", "1e-6",
     "absolute stack-delta tolerance",
     [](auto &o, auto &v) { o.diff_tol.abs = v.real; }},
    {"tol-rel", "diff-report", kReal, "X", "0.01",
     "relative stack-delta tolerance",
     [](auto &o, auto &v) { o.diff_tol.rel = v.real; }},
    {"watch", "diff-report", kText, "M[:ABS[:REL]]", "",
     "gate on host metric M too (repeatable; tolerances default to --tol-*)",
     [](auto &o, auto &v) { o.watch_texts.emplace_back(v.text); }},
    {"perfect-icache", "run hpc phases", kSwitch, "", "",
     "idealize the instruction cache",
     [](auto &o, auto &) { o.ideal.perfect_icache = true; }},
    {"perfect-dcache", "run hpc phases", kSwitch, "", "",
     "idealize the data cache",
     [](auto &o, auto &) { o.ideal.perfect_dcache = true; }},
    {"perfect-bpred", "run hpc phases", kSwitch, "", "",
     "idealize the branch predictor",
     [](auto &o, auto &) { o.ideal.perfect_bpred = true; }},
    {"ideal-alu", "run hpc phases", kSwitch, "", "",
     "make every ALU operation single-cycle",
     [](auto &o, auto &) { o.ideal.single_cycle_alu = true; }},
};

/** Whether @p command is one of the space-separated @p commands. */
bool
reads(std::string_view commands, std::string_view command)
{
    for (std::size_t start = 0; start <= commands.size();) {
        const std::size_t space = commands.find(' ', start);
        if (commands.substr(start, space - start) == command)
            return true;
        if (space == std::string_view::npos)
            return false;
        start = space + 1;
    }
    return false;
}

void
printOption(std::FILE *to, std::string_view flag, std::string_view arg,
            std::string_view fallback, std::string_view commands,
            std::string_view help)
{
    const std::string head =
        "--" + std::string(flag) + (arg.empty() ? "" : " ") + std::string(arg);
    std::fprintf(to, "  %-26s %.*s", head.c_str(),
                 static_cast<int>(help.size()), help.data());
    if (!fallback.empty())
        std::fprintf(to, " (default %.*s)", static_cast<int>(fallback.size()),
                     fallback.data());
    std::fprintf(to, "\n  %-26s [%.*s]\n", "",
                 static_cast<int>(commands.size()), commands.data());
}

int
usage(std::FILE *to, const char *argv0)
{
    std::fprintf(to, "usage: %s <command> [options]\n\ncommands:\n", argv0);
    for (const Command &c : kCommands) {
        std::fprintf(to, "  %-13.*s %.*s\n", static_cast<int>(c.name.size()),
                     c.name.data(), static_cast<int>(c.help.size()),
                     c.help.data());
    }
    std::fprintf(to, "\noptions, as --opt VALUE or --opt=VALUE, with the "
                     "commands that read each:\n");
    for (const runner::JobField &f : runner::kJobFields) {
        if (!f.flag.empty())
            printOption(to, f.flag, f.arg, f.fallback, f.commands, f.help);
    }
    for (const Flag &f : kFlags)
        printOption(to, f.name, f.arg, f.fallback, f.commands, f.help);
    std::string faults;
    for (std::string_view f : validate::allFaultNames())
        faults += std::string(faults.empty() ? "" : "|") + std::string(f);
    std::fprintf(to, "\nfault kinds: %s\n", faults.c_str());
    return to == stdout ? 0 : 2;
}

/** Parse --watch METRIC[:ABS[:REL]] with @p defaults for omitted parts. */
obs::WatchSpec
parseWatch(const std::string &text, const obs::DiffTolerance &defaults)
{
    obs::WatchSpec spec;
    spec.tol = defaults;
    const std::size_t c1 = text.find(':');
    spec.metric = text.substr(0, c1);
    if (spec.metric.empty()) {
        throw StackscopeError(ErrorCategory::kUsage,
                              "--watch needs METRIC[:ABS[:REL]], got '" +
                                  text + "'");
    }
    if (c1 == std::string::npos)
        return spec;
    const std::size_t c2 = text.find(':', c1 + 1);
    spec.tol.abs = runner::decodeText(kReal, "watch",
                                      std::string_view(text).substr(
                                          c1 + 1, c2 == std::string::npos
                                                      ? std::string::npos
                                                      : c2 - c1 - 1))
                       .real;
    if (c2 != std::string::npos) {
        spec.tol.rel =
            runner::decodeText(kReal, "watch",
                               std::string_view(text).substr(c2 + 1))
                .real;
    }
    return spec;
}

[[noreturn]] void
refuse(const std::string &message)
{
    throw StackscopeError(ErrorCategory::kUsage, message);
}

/**
 * Parse the command line into @p opt; throws StackscopeError (category
 * kUsage) on an unknown command or option, an option the command does
 * not read, a missing value, or a value the option does not accept.
 */
void
parseArgs(int argc, char **argv, CliOptions &opt)
{
    std::string commands;
    for (const Command &c : kCommands)
        commands += std::string(commands.empty() ? "" : "|") +
                    std::string(c.name);
    if (argc < 2)
        refuse("missing command (expected " + commands + ")");
    opt.command = argv[1];
    if (std::none_of(std::begin(kCommands), std::end(kCommands),
                     [&](const Command &c) { return c.name == opt.command; }))
        refuse("unknown command '" + opt.command + "' (expected " +
               commands + ")");

    opt.job = runner::defaultJobSpec();
    for (const Flag &f : kFlags) {
        if (!f.fallback.empty())
            f.set(opt, runner::decodeText(f.type, f.name, f.fallback));
    }
    bool watchdog_given = false;
    bool intervals_given = false;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            if (opt.command != "diff-report")
                refuse("unexpected argument '" + arg + "'");
            opt.positionals.push_back(std::move(arg));
            continue;
        }
        std::optional<std::string> inline_value;
        if (const std::size_t eq = arg.find('='); eq != std::string::npos) {
            inline_value = arg.substr(eq + 1);
            arg.resize(eq);
        }
        const std::string_view name = std::string_view(arg).substr(2);
        const runner::JobField *field = nullptr;
        for (const runner::JobField &f : runner::kJobFields) {
            if (!f.flag.empty() && f.flag == name)
                field = &f;
        }
        const Flag *flag = nullptr;
        for (const Flag &f : kFlags) {
            if (f.name == name)
                flag = &f;
        }
        if (field == nullptr && flag == nullptr)
            refuse("unknown option '" + arg + "' (see `stackscope help`)");
        const std::string_view readers =
            field != nullptr ? field->commands : flag->commands;
        if (!reads(readers, opt.command)) {
            refuse(arg + " is not read by the " + opt.command +
                   " command, only by: " + std::string(readers));
        }
        const FieldType &type = field != nullptr ? field->type : flag->type;
        std::string text;
        if (type.kind == FieldKind::kSwitch) {
            if (inline_value)
                refuse(arg + " takes no value");
        } else if (inline_value) {
            text = *inline_value;
        } else if (i + 1 < argc) {
            text = argv[++i];
        } else {
            refuse("missing value for " + arg);
        }
        if (flag != nullptr) {
            flag->set(opt, runner::decodeText(type, name, text));
        } else if (field->key == "cores") {
            // A comma list spans the sweep grid's cores axis; every other
            // command takes exactly one value.
            opt.cores_list.clear();
            for (const std::string &c : splitList(name, text)) {
                opt.cores_list.push_back(static_cast<unsigned>(
                    runner::decodeText(type, name, c).count));
            }
            if (opt.command != "sweep" && opt.cores_list.size() != 1)
                refuse("--cores accepts a comma list only with the sweep "
                       "command");
            opt.job.cores = opt.cores_list.front();
        } else {
            field->set(opt.job, runner::decodeText(type, name, text));
            watchdog_given |= field->key == "watchdog_cycles";
            intervals_given |= field->key == "interval_cycles";
        }
    }

    if (!opt.journal_path.empty() && !opt.resume_path.empty())
        refuse("--journal starts a fresh journal and --resume continues "
               "one; pass exactly one");
    if (!opt.fault_job.empty() && !opt.job.options.fault)
        refuse("--fault-job needs --inject-fault");
    // Watch specs resolve after the loop so --tol-abs/--tol-rel defaults
    // apply regardless of option order.
    for (const std::string &text : opt.watch_texts)
        opt.watches.push_back(parseWatch(text, opt.diff_tol));
    if (opt.command == "diff-report" && opt.positionals.size() != 2)
        refuse("diff-report needs exactly two report paths");
    if (opt.cores_list.empty())
        opt.cores_list = {opt.job.cores};

    sim::SimOptions &so = opt.job.options;
    // Fault injection without an explicit watchdog still gets deadlock
    // protection: a hung-trace fault would otherwise spin forever.
    if (so.fault && !watchdog_given)
        so.watchdog_cycles = 200'000;
    // phases snapshots stacks every 1000 cycles unless told otherwise.
    if (opt.command == "phases" && !intervals_given)
        so.obs.interval_cycles = 1000;
    so.obs.trace_events = !opt.trace_out.empty();
    runner::addWarmup(opt.job);
}

/**
 * Surface a run's validation outcome: violations are logged at warn level
 * in warn mode (strict throws inside the sim layer before we get here).
 */
void
reportValidation(const validate::ValidationReport &report)
{
    if (!report.passed()) {
        log::warn("validate", report.summary(),
                  {{"violations", report.violations.size()},
                   {"checks_run", report.checks_run}});
    }
}

std::unique_ptr<trace::TraceSource>
makeWorkloadTrace(const runner::JobSpec &job)
{
    trace::SyntheticParams params = trace::findWorkload(job.workload).params;
    params.num_instrs = job.instrs;
    return std::make_unique<trace::SyntheticGenerator>(params);
}

void
maybeWriteReport(const CliOptions &opt, obs::ReportBuilder &report)
{
    if (opt.report_out.empty())
        return;
    // CLI reports carry the process-wide telemetry of the run that
    // produced them (schema v2 "host_metrics") unless the caller asked
    // for a deterministic report — the form the serve cache's
    // byte-identity guarantee is defined against (docs/serving.md).
    if (!opt.no_host_metrics)
        report.setHostMetrics(obs::MetricsRegistry::global().snapshot());
    obs::writeTextFile(opt.report_out, report.json());
    log::info("cli", "wrote run report",
              {{"path", opt.report_out}, {"jobs", report.jobCount()}});
}

void
maybeWriteTrace(const CliOptions &opt, std::vector<obs::EventLog> logs)
{
    if (!opt.trace_out.empty())
        obs::writeTextFile(opt.trace_out, obs::chromeTraceJson(logs));
}

std::vector<obs::EventLog>
eventLogs(const sim::MulticoreResult &r)
{
    std::vector<obs::EventLog> logs;
    logs.reserve(r.per_core.size());
    for (const sim::SimResult &c : r.per_core)
        logs.push_back(c.events);
    return logs;
}

int
cmdList()
{
    std::printf("machines:\n");
    for (const std::string &m : sim::allMachineNames()) {
        const sim::MachineConfig cfg = sim::machineByName(m);
        std::printf("  %-4s %-4s  %u-wide OoO, %u-core socket, %.1f GHz, "
                    "peak %s/socket\n",
                    m.c_str(), cfg.name.c_str(), cfg.core.dispatch_width,
                    cfg.socket_cores, cfg.freq_ghz,
                    analysis::formatFlops(cfg.socketPeakFlops()).c_str());
    }
    std::printf("\nworkloads (SPEC-CPU-2017-inspired):\n");
    for (const trace::Workload &w : trace::allSpecWorkloads())
        std::printf("  %-11s %s\n", w.name.c_str(), w.description.c_str());
    std::printf("\nhpc kernels (DeepBench-inspired):\n");
    for (const trace::HpcBenchmark &bm : trace::deepBenchSuite())
        std::printf("  %-15s (%s)\n", bm.name.c_str(), bm.group.c_str());
    return 0;
}

int
cmdRun(const CliOptions &opt)
{
    const sim::MachineConfig machine =
        sim::applyIdealization(sim::machineByName(opt.job.machine), opt.ideal);
    auto trace = makeWorkloadTrace(opt.job);
    const sim::SimOptions &so = opt.job.options;
    obs::ReportBuilder report("run");

    if (opt.job.cores > 1) {
        const sim::MulticoreResult r =
            sim::simulateMulticore(machine, *trace, opt.job.cores, so);
        reportValidation(r.validation);
        report.add(opt.job.workload + "/" + machine.name + "/x" +
                       std::to_string(opt.job.cores),
                   so, r);
        maybeWriteReport(opt, report);
        maybeWriteTrace(opt, eventLogs(r));
        if (opt.csv) {
            std::printf("%s\n", analysis::cpiStackCsvHeader("stage").c_str());
            for (Stage s :
                 {Stage::kDispatch, Stage::kIssue, Stage::kCommit}) {
                std::printf("%s\n",
                            analysis::toCsvRow(std::string(toString(s)),
                                               r.cpiStack(s))
                                .c_str());
            }
            return 0;
        }
        std::printf("%s on %s x%u: avg CPI %.3f (IPC %.2f)\n",
                    opt.job.workload.c_str(), machine.name.c_str(), opt.job.cores,
                    r.avg_cpi, r.avg_ipc);
        std::printf("%s",
                    analysis::renderCpiStacks(
                        {r.cpiStack(Stage::kDispatch),
                         r.cpiStack(Stage::kIssue),
                         r.cpiStack(Stage::kCommit)},
                        {"dispatch", "issue", "commit"},
                        "  averaged CPI stacks:")
                        .c_str());
        return 0;
    }

    const sim::SimResult r = sim::simulate(machine, *trace, so);
    reportValidation(r.validation);
    report.add(opt.job.workload + "/" + machine.name, so, r);
    maybeWriteReport(opt, report);
    maybeWriteTrace(opt, {r.events});
    if (opt.csv) {
        std::printf("%s\n", analysis::cpiStackCsvHeader("stage").c_str());
        for (Stage s : {Stage::kDispatch, Stage::kIssue, Stage::kCommit}) {
            std::printf("%s\n",
                        analysis::toCsvRow(std::string(toString(s)),
                                           r.cpiStack(s))
                            .c_str());
        }
        std::printf("%s\n", analysis::flopsStackCsvHeader("stack").c_str());
        std::printf("%s\n",
                    analysis::toCsvRow("flops_cycles", r.flops_cycles)
                        .c_str());
        return 0;
    }
    std::printf("%s",
                analysis::renderMultiStage(r, opt.job.workload).c_str());
    std::printf("\nbranches %llu (%.2f%% mispredicted), loads %llu "
                "(%.2f%% L1D misses)\n",
                static_cast<unsigned long long>(r.stats.branches),
                r.stats.branches == 0 ? 0.0
                                      : 100.0 * r.stats.branch_mispredicts /
                                            r.stats.branches,
                static_cast<unsigned long long>(r.stats.loads),
                r.stats.loads == 0 ? 0.0
                                   : 100.0 * r.stats.l1d_load_misses /
                                         r.stats.loads);
    return 0;
}

int
cmdBounds(const CliOptions &opt)
{
    const sim::MachineConfig machine = sim::machineByName(opt.job.machine);
    auto trace = makeWorkloadTrace(opt.job);
    const sim::SimOptions &so = opt.job.options;

    // The real run and all four idealization pairs execute as one batch.
    runner::BatchRunner batch(opt.threads);
    const std::vector<analysis::IdealizationKnob> knobs =
        analysis::standardKnobs();
    runner::Heartbeat heartbeat("bounds");
    const analysis::IdealizationStudy study = analysis::runIdealizationStudy(
        machine, *trace, knobs, so, batch, &heartbeat);
    heartbeat.finish();
    reportValidation(study.validation);

    obs::ReportBuilder report("bounds");
    report.add(opt.job.workload + "/" + machine.name + "/real", so, study.real);
    for (const analysis::IdealizationStudy::Entry &e : study.entries)
        report.add(opt.job.workload + "/" + machine.name + "/" + e.knob.label,
                   so, e.idealized);
    maybeWriteReport(opt, report);

    if (opt.csv) {
        std::printf("component,lo,hi,actual,error\n");
    } else {
        std::printf("%s on %s: CPI %.3f\n  %-8s %9s %9s %9s %9s\n",
                    opt.job.workload.c_str(), machine.name.c_str(),
                    study.real.cpi, "comp", "lo", "hi", "actual", "error");
    }
    for (const analysis::IdealizationStudy::Entry &e : study.entries) {
        if (opt.csv) {
            std::printf("%s,%.6g,%.6g,%.6g,%.6g\n", e.knob.label.c_str(),
                        e.bounds.lo, e.bounds.hi, e.actual_reduction,
                        e.multi_error);
        } else {
            std::printf("  %-8s %9.3f %9.3f %9.3f %9.3f%s\n",
                        e.knob.label.c_str(), e.bounds.lo, e.bounds.hi,
                        e.actual_reduction, e.multi_error,
                        e.multi_error == 0.0 ? "  (within bounds)" : "");
        }
    }
    return 0;
}

/** One sweep grid point plus its resolved identity. */
struct SweepPoint
{
    std::string workload;
    std::string machine;
    unsigned cores;
    /** Per-point options (--fault-job may strip the fault). */
    sim::SimOptions options;
    std::string label;
    /** Canonical spec hash (runner/job_spec.hpp). */
    std::string hash;
};

/**
 * CSV rows (one per stage, newline-separated, no trailing newline) for
 * one sweep point. Completed points report the component-wise average
 * stacks and the cycle/instr counts of core 0 (threads are homogeneous);
 * failed or skipped points emit all-zero stage rows so the grid shape is
 * preserved. The trailing `status` column is the schema's append-only
 * extension point.
 */
std::string
sweepCsvRows(const SweepPoint &p, const runner::JobOutcome &o)
{
    std::string rows;
    char head[160];
    for (Stage s : {Stage::kDispatch, Stage::kIssue, Stage::kCommit}) {
        const sim::SimResult *rep =
            o.completed()
                ? (o.multi ? &o.multi->per_core.front() : &o.single)
                : nullptr;
        const double cpi =
            o.completed() ? (o.multi ? o.multi->avg_cpi : o.single.cpi)
                          : 0.0;
        const stacks::CpiStack stack =
            o.completed() ? (o.multi ? o.multi->cpiStack(s)
                                     : o.single.cpiStack(s))
                          : stacks::CpiStack{};
        // RFC 4180: name-like fields go through csvField so a workload or
        // machine containing a comma or quote cannot shear the row.
        std::snprintf(head, sizeof(head), ",%u,%llu,%llu,%.6g,", p.cores,
                      static_cast<unsigned long long>(rep ? rep->instrs
                                                          : 0),
                      static_cast<unsigned long long>(rep ? rep->cycles
                                                          : 0),
                      cpi);
        if (!rows.empty())
            rows += '\n';
        rows += analysis::csvField(p.workload);
        rows += ',';
        rows += analysis::csvField(p.machine);
        rows += head;
        rows += analysis::toCsvRow(std::string(toString(s)), stack);
        rows += ',';
        rows += analysis::csvField(runner::toString(o.status));
    }
    return rows;
}

int
cmdSweep(const CliOptions &opt)
{
    const sim::SimOptions &base = opt.job.options;

    // Cartesian workload x machine x cores grid. Each point gets its own
    // options so --fault-job can confine the injected fault to matching
    // labels, and its canonical spec hash — the journal key.
    std::vector<SweepPoint> points;
    for (const std::string &w : opt.workloads) {
        trace::findWorkload(w);  // fail fast on unknown names
        for (const std::string &m : opt.machines) {
            sim::machineByName(m);
            for (unsigned c : opt.cores_list) {
                SweepPoint p;
                p.workload = w;
                p.machine = m;
                p.cores = c;
                p.label = w + "/" + m + "/x" + std::to_string(c);
                p.options = base;
                if (base.fault && !opt.fault_job.empty() &&
                    p.label.find(opt.fault_job) == std::string::npos)
                    p.options.fault.reset();
                p.hash = runner::specHash(
                    {w, m, c, opt.job.instrs, p.options});
                points.push_back(std::move(p));
            }
        }
    }

    // The sweep identity is the hash over its points' hashes, in grid
    // order: a journal binds to one exact grid and option set.
    std::string hashes;
    for (const SweepPoint &p : points)
        hashes += p.hash;
    char sweep_hash[17];
    std::snprintf(sweep_hash, sizeof(sweep_hash), "%016llx",
                  static_cast<unsigned long long>(
                      runner::fnv1a64(hashes)));

    std::optional<runner::SweepJournal> journal;
    if (!opt.resume_path.empty())
        journal.emplace(
            runner::SweepJournal::resume(opt.resume_path, sweep_hash));
    else if (!opt.journal_path.empty())
        journal.emplace(
            runner::SweepJournal::create(opt.journal_path, sweep_hash));
    if (journal && !journal->records().empty()) {
        log::info("cli", "resuming sweep from journal",
                  {{"path", journal->path()},
                   {"completed", journal->records().size()},
                   {"points", points.size()}});
    }

    // Simulate only the points the journal does not already cover.
    std::vector<runner::SimJob> jobs;
    std::vector<std::size_t> job_point;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SweepPoint &p = points[i];
        if (journal && journal->find(p.hash) != nullptr)
            continue;
        trace::SyntheticParams params =
            trace::findWorkload(p.workload).params;
        params.num_instrs = opt.job.instrs;
        const trace::SyntheticGenerator gen(params);
        jobs.push_back(runner::makeJob(p.label,
                                       sim::machineByName(p.machine), gen,
                                       p.options, p.cores));
        job_point.push_back(i);
    }

    runner::BatchOptions bopts = opt.batch;
    if (journal) {
        // Persist each completed point from the worker thread that
        // finished it: after a crash, everything already journaled
        // replays verbatim. Failed points are not journaled — their
        // (deterministic) faults must re-fail, or succeed under new
        // limits, on resume.
        bopts.on_outcome = [&](std::size_t job_index,
                               const runner::JobOutcome &o) {
            if (!o.completed())
                return;
            const SweepPoint &p = points[job_point[job_index]];
            runner::JournalRecord rec;
            rec.spec_hash = p.hash;
            rec.label = o.label;
            rec.status = runner::toString(o.status);
            rec.attempts = o.attempts;
            rec.job_json =
                obs::ReportBuilder::jobJson(o, p.options, p.cores);
            rec.csv = sweepCsvRows(p, o);
            journal->append(rec);
        };
    }

    runner::BatchRunner batch(opt.threads);
    runner::Heartbeat heartbeat("sweep");
    const runner::BatchResult results =
        batch.run(std::move(jobs), &heartbeat, bopts);
    heartbeat.finish();
    reportValidation(results.validation);

    // Merge journaled and fresh outcomes back into grid order. Journaled
    // points splice their stored report fragment and CSV bytes verbatim,
    // so a resumed sweep's outputs are byte-identical to a cold run's.
    std::vector<const runner::JobOutcome *> fresh(points.size(), nullptr);
    for (std::size_t j = 0; j < results.outcomes.size(); ++j)
        fresh[job_point[j]] = &results.outcomes[j];

    obs::ReportBuilder report("sweep");
    std::string csv;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const runner::JournalRecord *rec =
            journal ? journal->find(points[i].hash) : nullptr;
        if (rec != nullptr) {
            report.addRaw(rec->job_json);
            csv += rec->csv;
        } else {
            report.add(*fresh[i], points[i].options, points[i].cores);
            csv += sweepCsvRows(points[i], *fresh[i]);
        }
        csv += '\n';
    }
    maybeWriteReport(opt, report);

    std::printf("workload,machine,cores,instrs,cycles,cpi,%s,status\n",
                analysis::cpiStackCsvHeader("stage").c_str());
    std::fputs(csv.c_str(), stdout);

    // Journaled points completed in a previous run; count them towards
    // the batch verdict (BatchResult::exitCode() only sees this run's).
    const runner::StatusTally tally = results.tally();
    const std::size_t replayed = points.size() - results.outcomes.size();
    const std::size_t completed = tally.completed() + replayed;
    if (tally.failed() + tally.skipped > 0) {
        log::warn("cli", "sweep finished with failures",
                  {{"completed", completed},
                   {"timeout", tally.timeout},
                   {"quarantined", tally.quarantined},
                   {"skipped", tally.skipped}});
    }
    if (completed == points.size())
        return 0;
    return completed == 0 ? kExitTotalFailure : kExitPartialSuccess;
}

int
cmdHpc(const CliOptions &opt)
{
    const sim::MachineConfig machine =
        sim::applyIdealization(sim::machineByName(opt.job.machine), opt.ideal);
    const trace::HpcBenchmark *bench = nullptr;
    for (const trace::HpcBenchmark &bm : trace::deepBenchSuite()) {
        if (bm.name == opt.kernel)
            bench = &bm;
    }
    if (bench == nullptr) {
        throw StackscopeError(ErrorCategory::kUsage,
                              "unknown kernel '" + opt.kernel +
                                  "' (see `stackscope list`)");
    }
    const trace::HpcTarget target{
        machine.core.flops_vec_lanes,
        opt.job.machine == "knl" ? trace::SgemmCodegen::kKnlJit
                             : trace::SgemmCodegen::kSkxBroadcast};
    auto trace = bench->make(target, opt.job.instrs);
    const sim::SimOptions &so = opt.job.options;

    const sim::MulticoreResult r = sim::simulateMulticore(
        machine, *trace, opt.job.cores, so);
    reportValidation(r.validation);

    obs::ReportBuilder report("hpc");
    report.add(bench->name + "/" + machine.name + "/x" +
                   std::to_string(opt.job.cores),
               so, r);
    maybeWriteReport(opt, report);
    maybeWriteTrace(opt, eventLogs(r));

    if (opt.csv) {
        std::printf("%s\n", analysis::flopsStackCsvHeader("stack").c_str());
        std::printf("%s\n",
                    analysis::toCsvRow("socket_flops", r.socketFlopsStack())
                        .c_str());
        return 0;
    }
    std::printf("%s on %s: avg IPC %.2f of %u\n", bench->name.c_str(),
                machine.name.c_str(), r.avg_ipc,
                machine.core.effectiveWidth());
    std::printf("%s",
                analysis::renderFlopsStack(r.socketFlopsStack(),
                                           "socket FLOPS stack", "flops/s")
                    .c_str());
    std::printf("achieved %s of %s peak (%.0f%%)\n",
                analysis::formatFlops(r.socket_flops).c_str(),
                analysis::formatFlops(r.socket_peak_flops).c_str(),
                100.0 * r.socket_flops / r.socket_peak_flops);
    return 0;
}

int
cmdCompareSpec(const CliOptions &opt)
{
    const sim::MachineConfig machine = sim::machineByName(opt.job.machine);
    auto trace = makeWorkloadTrace(opt.job);

    // One job per wrong-path handling strategy, run as a single batch.
    std::vector<runner::SimJob> jobs;
    std::vector<std::string> labels;
    for (const stacks::SpeculationMode mode : stacks::kSpeculationModes) {
        sim::SimOptions so = opt.job.options;
        so.spec_mode = mode;
        labels.emplace_back(stacks::toString(mode));
        jobs.push_back(runner::makeJob(labels.back(), machine, *trace, so));
    }
    runner::BatchRunner batch(opt.threads);
    runner::Heartbeat heartbeat("compare-spec");
    const runner::BatchResult results =
        batch.run(std::move(jobs), &heartbeat);
    heartbeat.finish();

    obs::ReportBuilder report("compare-spec");
    std::vector<stacks::CpiStack> dispatch_stacks;
    for (std::size_t i = 0; i < results.outcomes.size(); ++i) {
        const runner::JobOutcome &o = results.outcomes[i];
        reportValidation(o.single.validation);
        dispatch_stacks.push_back(o.single.cpiStack(Stage::kDispatch));
        sim::SimOptions so = opt.job.options;
        so.spec_mode = stacks::kSpeculationModes[i];
        report.add(o, so, 1);
    }
    maybeWriteReport(opt, report);
    std::printf("%s on %s: dispatch CPI stack per wrong-path handling "
                "strategy (§III-B)\n",
                opt.job.workload.c_str(), machine.name.c_str());
    std::printf("%s",
                analysis::renderCpiStacks(dispatch_stacks, labels, "")
                    .c_str());
    return 0;
}

/**
 * Resolve the phases workload name: a workload-library preset first,
 * then an HPC kernel by exact name, then by name/group prefix (so
 * `--workload conv` picks the first conv_* DeepBench kernel).
 */
std::unique_ptr<trace::TraceSource>
makePhasesTrace(const CliOptions &opt, const sim::MachineConfig &machine,
                std::string &label)
{
    try {
        trace::SyntheticParams params =
            trace::findWorkload(opt.job.workload).params;
        params.num_instrs = opt.job.instrs;
        label = opt.job.workload;
        return std::make_unique<trace::SyntheticGenerator>(params);
    } catch (const std::out_of_range &) {
        // Not a workload preset; fall through to the HPC kernel suite.
    }
    const trace::HpcBenchmark *pick = nullptr;
    for (const trace::HpcBenchmark &bm : trace::deepBenchSuite()) {
        if (bm.name == opt.job.workload) {
            pick = &bm;
            break;
        }
        if (pick == nullptr && (bm.name.rfind(opt.job.workload, 0) == 0 ||
                                bm.group.rfind(opt.job.workload, 0) == 0))
            pick = &bm;
    }
    if (pick == nullptr) {
        throw StackscopeError(ErrorCategory::kUsage,
                              "unknown workload or kernel '" + opt.job.workload +
                                  "' (see `stackscope list`)");
    }
    label = pick->name;
    const trace::HpcTarget target{
        machine.core.flops_vec_lanes,
        opt.job.machine == "knl" ? trace::SgemmCodegen::kKnlJit
                             : trace::SgemmCodegen::kSkxBroadcast};
    return pick->make(target, opt.job.instrs);
}

int
cmdPhases(const CliOptions &opt)
{
    const sim::MachineConfig machine =
        sim::applyIdealization(sim::machineByName(opt.job.machine), opt.ideal);
    std::string label;
    auto trace = makePhasesTrace(opt, machine, label);
    const sim::SimOptions &so = opt.job.options;
    if (so.obs.interval_cycles == 0) {
        throw StackscopeError(ErrorCategory::kUsage,
                              "phases needs --intervals >= 1");
    }

    const sim::SimResult r = sim::simulate(machine, *trace, so);
    reportValidation(r.validation);

    std::printf("%s on %s: %llu instrs, %llu cycles, CPI %.3f (IPC %.2f), "
                "%zu windows of %llu cycles\n",
                label.c_str(), machine.name.c_str(),
                static_cast<unsigned long long>(r.instrs),
                static_cast<unsigned long long>(r.cycles), r.cpi, r.ipc(),
                r.intervals.samples.size(),
                static_cast<unsigned long long>(r.intervals.window));
    for (Stage s : {Stage::kDispatch, Stage::kIssue, Stage::kCommit}) {
        std::printf("\n%s",
                    analysis::renderIntervalHeatmap(
                        r.intervals, s,
                        std::string(toString(s)) + " CPI stack over time:")
                        .c_str());
    }
    std::printf("\n%s",
                analysis::renderFlopsIntervalHeatmap(
                    r.intervals, "FLOPS stack over time:")
                    .c_str());

    obs::ReportBuilder report("phases");
    report.add(label + "/" + machine.name, so, r);
    maybeWriteReport(opt, report);
    maybeWriteTrace(opt, {r.events});
    return 0;
}

/** Slurp a report file; kUsage when unreadable. */
std::string
readTextFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw StackscopeError(ErrorCategory::kUsage,
                              "cannot open report file")
            .withContext("path", path);
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    if (!in.good() && !in.eof()) {
        throw StackscopeError(ErrorCategory::kUsage,
                              "failed reading report file")
            .withContext("path", path);
    }
    return buf.str();
}

/**
 * The daemon's stop hook. A plain pointer written before the signal
 * handlers are installed and cleared after they are restored;
 * requestStop() is async-signal-safe (one pipe write).
 */
serve::Server *g_serve_instance = nullptr;

extern "C" void
handleServeSignal(int)
{
    if (g_serve_instance != nullptr)
        g_serve_instance->requestStop();
}

int
cmdServe(const CliOptions &opt)
{
    serve::ServeOptions so = opt.serve;
    so.threads = opt.threads;
    try {
        serve::Server server(so);
        // A client vanishing mid-response must surface as EPIPE on the
        // write, never as a process-killing SIGPIPE.
        std::signal(SIGPIPE, SIG_IGN);
        g_serve_instance = &server;
        std::signal(SIGTERM, handleServeSignal);
        std::signal(SIGINT, handleServeSignal);
        const bool drained = server.run();
        std::signal(SIGTERM, SIG_DFL);
        std::signal(SIGINT, SIG_DFL);
        g_serve_instance = nullptr;
        return drained ? 0 : kExitDrainTimeout;
    } catch (const serve::BindError &e) {
        std::fprintf(stderr, "%s\n", e.describe().c_str());
        return kExitBindFailure;
    }
}

int
cmdDiffReport(const CliOptions &opt)
{
    const obs::JsonValue baseline =
        obs::parseJson(readTextFile(opt.positionals[0]));
    const obs::JsonValue candidate =
        obs::parseJson(readTextFile(opt.positionals[1]));
    const obs::ReportDiff diff = obs::diffReports(
        baseline, candidate, opt.diff_tol, opt.watches);
    std::fputs(obs::renderDiff(diff).c_str(), stdout);
    return diff.regression() ? 4 : 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    log::configureFromEnv();
    CliOptions opt;
    try {
        parseArgs(argc, argv, opt);
        if (opt.command == "help")
            return usage(stdout, argv[0]);
        if (opt.command == "list")
            return cmdList();
        if (opt.command == "run")
            return cmdRun(opt);
        if (opt.command == "bounds")
            return cmdBounds(opt);
        if (opt.command == "hpc")
            return cmdHpc(opt);
        if (opt.command == "sweep")
            return cmdSweep(opt);
        if (opt.command == "phases")
            return cmdPhases(opt);
        if (opt.command == "diff-report")
            return cmdDiffReport(opt);
        if (opt.command == "serve")
            return cmdServe(opt);
        return cmdCompareSpec(opt);
    } catch (const StackscopeError &e) {
        std::fprintf(stderr, "%s\n", e.describe().c_str());
        if (e.category() == ErrorCategory::kUsage)
            usage(stderr, argv[0]);
        return e.exitCode();
    } catch (const std::out_of_range &e) {
        // Unknown workload / machine names from the registries.
        std::fprintf(stderr, "usage error: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
