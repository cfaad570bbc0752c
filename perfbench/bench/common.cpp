#include "common.hpp"

#include <spawn.h>
#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "runner/job_spec.hpp"

extern char **environ;

namespace perfbench {

using stackscope::obs::JsonValue;
using stackscope::obs::JsonWriter;
using stackscope::stacks::CpiComponent;
using stackscope::stacks::CpiStack;
using stackscope::stacks::Stage;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

void
Outcome::fail(const std::string &why)
{
    if (errors.size() < 20)
        errors.push_back(why);
}

Metric
valueMetric(std::string name, std::string unit, double value,
            std::size_t samples)
{
    return {std::move(name), std::move(unit), value, samples, true};
}

Metric
percentileMetric(std::string name, std::vector<double> samples, double p)
{
    Metric m{std::move(name), "ms", 0.0, samples.size(), false};
    if (samples.empty())
        return m;
    std::sort(samples.begin(), samples.end());
    const auto n = samples.size();
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(n)));
    const std::size_t idx = rank == 0 ? 0 : rank - 1;
    m.value = samples[idx];
    m.present = n - 1 - idx >= 10;
    return m;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void
addEndToEnd(std::vector<Metric> &out, const std::vector<double> &setup_s,
            double wall_s, std::size_t ops, const std::vector<double> &job_ms,
            double sim_instrs, double peak_rss_mb)
{
    out.push_back(valueMetric("setup_s", "s", median(setup_s),
                              setup_s.size()));
    out.push_back(valueMetric("sim_minstr_per_s", "Minstr/s",
                              sim_instrs / 1e6 / wall_s, job_ms.size()));
    out.push_back(valueMetric("ops_per_s", "1/s",
                              static_cast<double>(ops) / wall_s, ops));
    out.push_back(percentileMetric("job_p50_ms", job_ms, 0.50));
    out.push_back(valueMetric("peak_rss_mb", "MiB", peak_rss_mb, 1));
}

std::vector<double>
timeSetUps(const Args &args, int times)
{
    std::vector<std::string> argv_s = {
        args.self,          "--setup-only",    "--workload", args.workload,
        "--seed",           std::to_string(args.seed),
        "--daemon",         args.daemon,       "--expected", args.expected_dir,
        "--out",            args.out_dir};
    std::vector<char *> argv;
    for (std::string &a : argv_s)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    std::vector<double> walls;
    for (int i = 0; i < times; ++i) {
        const auto t0 = Clock::now();
        pid_t pid = -1;
        if (posix_spawn(&pid, args.self.c_str(), nullptr, nullptr,
                        argv.data(), environ) != 0)
            throw std::runtime_error("cannot start " + args.self);
        int status = 0;
        ::waitpid(pid, &status, 0);
        walls.push_back(secondsBetween(t0, Clock::now()));
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            throw std::runtime_error("set-up run failed");
    }
    return walls;
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

int
SpanLog::add(std::string name, Clock::time_point start, Clock::time_point end,
             int parent, std::string id)
{
    if (spans_.size() >= capacity_) {
        ++dropped_;
        return -1;
    }
    const auto ns = [this](Clock::time_point t) {
        return static_cast<std::int64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
                .count());
    };
    spans_.push_back({std::move(name), ns(start), ns(end), parent,
                      std::move(id)});
    return static_cast<int>(spans_.size() - 1);
}

void
SpanLog::write(const std::string &path) const
{
    JsonWriter w;
    w.beginObject()
        .key("dropped").value(static_cast<std::uint64_t>(dropped_))
        .key("spans").beginArray();
    for (const Span &s : spans_) {
        w.beginObject()
            .key("name").value(s.name)
            .key("start_ns").value(s.start_ns)
            .key("end_ns").value(s.end_ns)
            .key("parent").value(s.parent)
            .key("id").value(s.id)
            .endObject();
    }
    w.endArray().endObject();
    stackscope::obs::writeTextFile(path, w.str() + "\n");
}

namespace {

// Slack of the stack-law checks, matching src/validate's defaults: the
// base term absorbs up to a ROB of uops straddling the measurement
// reset after warmup.
constexpr double kSumRel = 0.002;
constexpr double kSumAbs = 2.0;
constexpr double kOrderRel = 0.03;
constexpr double kOrderPerInstr = 0.01;
constexpr double kBaseRel = 0.005;
constexpr double kBaseAbs = 96.0;

struct StageValues
{
    double sum = 0.0;
    double base = 0.0;
    double frontend = 0.0;
};

std::string
lawsOf(const StageValues (&st)[3], double cycles, double instrs)
{
    char buf[160];
    const double sum_tol = kSumRel * cycles + kSumAbs;
    for (int s = 0; s < 3; ++s) {
        if (std::abs(st[s].sum - cycles) > sum_tol) {
            std::snprintf(buf, sizeof(buf),
                          "stage %d components sum to %.6g, cycles %.6g", s,
                          st[s].sum, cycles);
            return buf;
        }
    }
    const double base_tol = kBaseRel * st[2].base + kBaseAbs;
    for (int s = 0; s < 2; ++s) {
        if (std::abs(st[s].base - st[2].base) > base_tol) {
            std::snprintf(buf, sizeof(buf),
                          "stage %d base %.6g differs from commit base %.6g",
                          s, st[s].base, st[2].base);
            return buf;
        }
    }
    const double order_tol =
        kOrderRel * cycles + kOrderPerInstr * instrs + kSumAbs;
    if (st[0].frontend < st[1].frontend - order_tol ||
        st[1].frontend < st[2].frontend - order_tol) {
        std::snprintf(buf, sizeof(buf),
                      "frontend not ordered: dispatch %.6g issue %.6g "
                      "commit %.6g",
                      st[0].frontend, st[1].frontend, st[2].frontend);
        return buf;
    }
    return {};
}

}  // namespace

std::string
checkStackLaws(const stackscope::sim::SimResult &r)
{
    StageValues st[3];
    for (int s = 0; s < 3; ++s) {
        const CpiStack &c = r.cycle_stacks[static_cast<std::size_t>(s)];
        st[s] = {c.sum(), c[CpiComponent::kBase],
                 c[CpiComponent::kIcache] + c[CpiComponent::kBpred] +
                     c[CpiComponent::kMicrocode]};
    }
    if (r.cycles == 0 || r.instrs == 0)
        return "empty result";
    return lawsOf(st, static_cast<double>(r.cycles),
                  static_cast<double>(r.instrs));
}

std::string
checkStackLaws(const stackscope::sim::MulticoreResult &r)
{
    if (r.per_core.empty())
        return "no cores";
    for (std::size_t i = 0; i < r.per_core.size(); ++i) {
        const std::string why = checkStackLaws(r.per_core[i]);
        if (!why.empty())
            return "core " + std::to_string(i) + ": " + why;
    }
    return {};
}

std::string
checkReportLaws(const JsonValue &report)
{
    const JsonValue &jobs = report.at("jobs");
    if (!jobs.isArray() || jobs.array.empty())
        return "report has no jobs";
    static const char *const kStages[] = {"dispatch", "issue", "commit"};
    for (const JsonValue &job : jobs.array) {
        const JsonValue &results = job.at("results");
        if (!results.isArray() || results.array.empty())
            return "job without results";
        for (const JsonValue &res : results.array) {
            StageValues st[3];
            const JsonValue &stacks = res.at("cycle_stacks");
            for (int s = 0; s < 3; ++s) {
                const JsonValue &c = stacks.at(kStages[s]);
                for (const auto &[name, v] : c.object)
                    st[s].sum += v.number;
                st[s].base = c.at("Base").number;
                st[s].frontend = c.at("Icache").number +
                                 c.at("Bpred").number +
                                 c.at("Microcode").number;
            }
            const double cycles = res.at("cycles").number;
            const double instrs = res.at("instrs").number;
            if (cycles <= 0 || instrs <= 0)
                return "empty result";
            const std::string why = lawsOf(st, cycles, instrs);
            if (!why.empty())
                return why;
        }
    }
    return {};
}

std::string
digest(std::string_view bytes)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      stackscope::runner::fnv1a64(bytes)));
    return buf;
}

void
checkExpected(const Args &args, const Expected &actual, Outcome &out)
{
    if (args.seed != kDefaultSeed)
        return;
    const std::string path =
        args.expected_dir + "/" + args.workload + ".json";
    if (args.record_expected) {
        JsonWriter w;
        w.beginObject()
            .key("workload").value(args.workload)
            .key("seed").value(args.seed)
            .key("digest").value(actual.digest)
            .key("jobs").beginObject();
        for (const auto &[label, ci] : actual.jobs) {
            w.key(label).beginObject()
                .key("cycles").value(ci.first)
                .key("instrs").value(ci.second)
                .endObject();
        }
        w.endObject().endObject();
        stackscope::obs::writeTextFile(path, w.str() + "\n");
        return;
    }
    std::ifstream in(path);
    if (!in) {
        out.fail("no expected values at " + path);
        return;
    }
    std::stringstream text;
    text << in.rdbuf();
    const JsonValue want = stackscope::obs::parseJson(text.str());
    if (want.at("digest").string != actual.digest)
        out.fail("report digest " + actual.digest + " != expected " +
                 want.at("digest").string);
    for (const auto &[label, ci] : actual.jobs) {
        const JsonValue *job = want.at("jobs").find(label);
        if (job == nullptr) {
            out.fail("job " + label + " has no expected values");
            continue;
        }
        if (static_cast<std::uint64_t>(job->at("cycles").number) !=
                ci.first ||
            static_cast<std::uint64_t>(job->at("instrs").number) !=
                ci.second) {
            ++out.failed;
            out.fail("job " + label + ": cycles/instrs " +
                     std::to_string(ci.first) + "/" +
                     std::to_string(ci.second) + " differ from expected");
        }
    }
    if (want.at("jobs").object.size() != actual.jobs.size())
        out.fail("expected " + std::to_string(want.at("jobs").object.size()) +
                 " jobs, ran " + std::to_string(actual.jobs.size()));
}

double
selfPeakRssMb()
{
    return static_cast<double>(stackscope::obs::peakRssBytes()) /
           (1024.0 * 1024.0);
}

}  // namespace perfbench
