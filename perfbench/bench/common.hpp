/**
 * @file
 * Shared pieces of the benchmark program: run options, metric records,
 * percentiles, the in-memory span log, the stack-law output checks and
 * the recorded expected values of the default seed.
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json_parse.hpp"
#include "sim/multicore.hpp"
#include "sim/simulation.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** The seed whose outputs are recorded under perfbench/expected/. */
inline constexpr std::uint64_t kDefaultSeed = 1;

double secondsBetween(Clock::time_point a, Clock::time_point b);
double msBetween(Clock::time_point a, Clock::time_point b);

/** Command-line options of one benchmark run. */
struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    /** Path of the `stackscope` binary serve_mixed starts. */
    std::string daemon;
    /** Directory holding the expected-value files. */
    std::string expected_dir;
    /** Directory every output file of the run goes to. */
    std::string out_dir;
    /** Write the expected-value file instead of checking against it. */
    bool record_expected = false;
    /** Only build the workload's inputs, then exit (see timeSetUps). */
    bool setup_only = false;
    /** Path of this binary. */
    std::string self;
};

/**
 * Set-up time as a user pays it: start this binary with --setup-only,
 * which builds the workload's inputs and exits, @p times times. Returns
 * each wall time from start to exit; throws when a start fails.
 */
std::vector<double> timeSetUps(const Args &args, int times);

/** One reported number; `samples` is the count it was computed from. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    std::size_t samples = 0;
    /** False when too few samples lie beyond a percentile. */
    bool present = true;
};

/** Everything one workload run reports. */
struct Outcome
{
    std::string workload;
    /** Operations attempted (jobs or requests) and those that failed
     *  or produced a wrong output. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Output-check failures, for the log. */
    std::vector<std::string> errors;
    /** The end-to-end metrics BENCHMARK.json lists (tracing off). */
    std::vector<Metric> end_to_end;
    /** Workload-specific end-to-end metrics, printed and saved only. */
    std::vector<Metric> extra;
    /** Per-layer metrics (traced run). BENCHMARK.json lists the ones
     *  every workload produces; the rest are printed and saved. */
    std::vector<Metric> layers;

    /** Record a failed check; the run's exit code becomes non-zero. */
    void fail(const std::string &why);
    bool correct() const { return failed == 0 && errors.empty(); }
};

/** A metric computed from @p samples observations. */
Metric valueMetric(std::string name, std::string unit, double value,
                   std::size_t samples);

/**
 * Nearest-rank percentile @p p of @p samples, present only when at
 * least ten samples lie beyond it.
 */
Metric percentileMetric(std::string name, std::vector<double> samples,
                        double p);

double median(std::vector<double> values);

/**
 * Append the end-to-end metrics every workload reports (BENCHMARK.json
 * "end_to_end"): median set-up time, simulated instructions and
 * operations per timed second, the median simulation-job latency and
 * peak resident memory.
 */
void addEndToEnd(std::vector<Metric> &out, const std::vector<double> &setup_s,
                 double wall_s, std::size_t ops,
                 const std::vector<double> &job_ms, double sim_instrs,
                 double peak_rss_mb);

/** splitmix64 of (seed, stream): independent per-job seeds. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream);

/**
 * Spans kept in memory and written out when the run ends. A span has a
 * name, start and end, the index of its parent (-1 for a root) and the
 * job or request it belongs to.
 */
class SpanLog
{
  public:
    explicit SpanLog(std::size_t capacity = 200'000) : capacity_(capacity) {}

    /** Record a finished span; returns its index (or -1 when full). */
    int add(std::string name, Clock::time_point start, Clock::time_point end,
            int parent, std::string id);

    /** Write every span as one JSON document. */
    void write(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        std::int64_t start_ns;
        std::int64_t end_ns;
        int parent;
        std::string id;
    };
    std::size_t capacity_;
    std::size_t dropped_ = 0;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/**
 * The stack laws on one single-core result: every stage's components
 * sum to the cycles, the base component is equal across stages, and
 * the frontend components order dispatch >= issue >= commit. Returns
 * an empty string when they hold, otherwise the first violation.
 */
std::string checkStackLaws(const stackscope::sim::SimResult &r);

/** The stack laws on every core of a multi-core result. */
std::string checkStackLaws(const stackscope::sim::MulticoreResult &r);

/** The stack laws on every result of a serialized v2 report. */
std::string checkReportLaws(const stackscope::obs::JsonValue &report);

/** FNV-1a 64 of @p bytes as 16 hex digits. */
std::string digest(std::string_view bytes);

/**
 * The recorded outputs of a workload for the default seed: per-job
 * cycles and instructions, and a digest of the serialized report.
 */
struct Expected
{
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> jobs;
    std::string digest;
};

/**
 * Compare @p actual with the expected-value file of @p args.workload
 * when the seed is the default one (or write it, with
 * --record-expected). Mismatches are recorded on @p out.
 */
void checkExpected(const Args &args, const Expected &actual, Outcome &out);

/** Peak resident set of this process in MiB. */
double selfPeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_HPP
