/**
 * @file
 * Simulation-speed benchmark for the batched per-cycle engine: runs the
 * Figure 2 grid (all SPEC-inspired workloads x {bdw, knl}) with the
 * batched engine (idle-run folding + skip-ahead) and with the per-cycle
 * reference engine, and reports host cycles/second for both plus the
 * speedup ratio. Each point runs kRepeats times, the two engines
 * interleaved, and keeps each engine's fastest run: one timing sample
 * per point let a burst of host noise push a near-parity point below
 * the per-point floor.
 *
 * Output is BENCH_simspeed.json (path overridable via
 * STACKSCOPE_BENCH_JSON), schema `stackscope-simspeed-v2` — see
 * docs/formats.md. CI feeds it to tools/check_simspeed.py, which exits 4
 * when the batched/reference speedup falls more than 10% below the
 * committed bench/simspeed_baseline.json or any single grid point runs
 * slower batched than reference. The speedup ratio is self-normalizing
 * (both engines run on the same host in the same process), so the gate is
 * meaningful across machines of different absolute speed.
 *
 * `--profile` attaches a core::StageProfile sink to the first run of
 * each point, adding a per-stage wall-time breakdown
 * (fetch/dispatch/issue/writeback/commit/accounting) for each engine to
 * the JSON under "profile". The clock reads around every stage cost a few
 * percent, so profile timings inform the next headroom hunt but the
 * speedup gate should use a run without --profile.
 *
 * The two engines must also agree exactly: every grid point asserts
 * cycle- and instruction-identity between batched and reference runs, so
 * a speed win can never silently buy a timing divergence. (The golden
 * bit-identity test suite checks the stacks too; here the cheap check
 * doubles as a smoke test on the full grid at bench length.)
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/ooo_core.hpp"
#include "obs/json.hpp"
#include "sim/presets.hpp"
#include "trace/synthetic_generator.hpp"
#include "trace/workload_library.hpp"

namespace {

using namespace stackscope;

/** Runs per grid point and engine; the fastest one is reported. */
constexpr int kRepeats = 3;

struct EngineSample
{
    std::uint64_t cycles = 0;
    std::uint64_t instrs = 0;
    double seconds = 0.0;

    double
    cyclesPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(cycles) / seconds : 0.0;
    }
};

struct GridPoint
{
    std::string workload;
    std::string machine;
    EngineSample batched;
    EngineSample reference;

    double
    speedup() const
    {
        return batched.cyclesPerSec() > 0.0 && reference.seconds > 0.0
                   ? batched.cyclesPerSec() / reference.cyclesPerSec()
                   : 0.0;
    }
};

EngineSample
runPoint(const sim::MachineConfig &machine, const trace::Workload &workload,
         std::uint64_t instrs, bool batched,
         core::StageProfile *profile = nullptr)
{
    trace::SyntheticParams p = workload.params;
    p.num_instrs = instrs;
    core::CoreParams params = machine.core;
    params.batched_accounting = batched;
    core::OooCore core(params,
                       std::make_unique<trace::SyntheticGenerator>(p));
    core.setStageProfile(profile);

    const auto start = std::chrono::steady_clock::now();
    core.run(0);
    const auto end = std::chrono::steady_clock::now();

    EngineSample s;
    s.cycles = core.cycles();
    s.instrs = core.stats().instrs_committed;
    s.seconds = std::chrono::duration<double>(end - start).count();
    return s;
}

void
writeProfile(obs::JsonWriter &w, const core::StageProfile &p)
{
    const struct
    {
        const char *name;
        std::uint64_t ns;
    } stages[] = {
        {"writeback", p.writeback_ns}, {"commit", p.commit_ns},
        {"issue", p.issue_ns},         {"dispatch", p.dispatch_ns},
        {"fetch", p.fetch_ns},         {"accounting", p.accounting_ns},
    };
    std::uint64_t total = 0;
    for (const auto &s : stages)
        total += s.ns;
    w.beginObject();
    w.key("cycles").value(p.cycles);
    w.key("total_ns").value(total);
    for (const auto &s : stages)
        w.key((std::string(s.name) + "_ns").c_str()).value(s.ns);
    w.key("shares").beginObject();
    for (const auto &s : stages)
        w.key(s.name).value(
            total > 0 ? static_cast<double>(s.ns) / static_cast<double>(total)
                      : 0.0);
    w.endObject();
    w.endObject();
}

}  // namespace

int
main(int argc, char **argv)
{
    bool do_profile = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--profile") {
            do_profile = true;
        } else {
            std::fprintf(stderr, "usage: simspeed [--profile]\n");
            return 2;
        }
    }

    const std::uint64_t instrs = bench::benchInstrs(200'000);
    bench::banner("simspeed",
                  "batched engine vs per-cycle reference on "
                  "the Fig. 2 grid");

    const std::vector<std::string> machines = {"bdw", "knl"};
    std::vector<GridPoint> points;
    core::StageProfile batched_profile;
    core::StageProfile reference_profile;
    std::uint64_t batched_cycles = 0;
    std::uint64_t reference_cycles = 0;
    double batched_seconds = 0.0;
    double reference_seconds = 0.0;
    bool identical = true;

    std::printf("%-14s %-4s %12s %12s %8s\n", "workload", "mach",
                "batched c/s", "reference c/s", "speedup");
    for (const trace::Workload &w : trace::allSpecWorkloads()) {
        for (const std::string &mname : machines) {
            const sim::MachineConfig machine = sim::machineByName(mname);
            GridPoint pt;
            pt.workload = w.name;
            pt.machine = mname;
            for (int rep = 0; rep < kRepeats; ++rep) {
                const bool profiled = do_profile && rep == 0;
                const EngineSample reference =
                    runPoint(machine, w, instrs, /*batched=*/false,
                             profiled ? &reference_profile : nullptr);
                const EngineSample batched =
                    runPoint(machine, w, instrs, /*batched=*/true,
                             profiled ? &batched_profile : nullptr);
                if (rep == 0 || reference.seconds < pt.reference.seconds)
                    pt.reference = reference;
                if (rep == 0 || batched.seconds < pt.batched.seconds)
                    pt.batched = batched;
            }

            if (pt.batched.cycles != pt.reference.cycles ||
                pt.batched.instrs != pt.reference.instrs) {
                identical = false;
                std::fprintf(stderr,
                             "simspeed: ENGINE MISMATCH %s@%s: batched "
                             "%llu cycles / %llu instrs, reference %llu "
                             "cycles / %llu instrs\n",
                             w.name.c_str(), mname.c_str(),
                             static_cast<unsigned long long>(
                                 pt.batched.cycles),
                             static_cast<unsigned long long>(
                                 pt.batched.instrs),
                             static_cast<unsigned long long>(
                                 pt.reference.cycles),
                             static_cast<unsigned long long>(
                                 pt.reference.instrs));
            }

            batched_cycles += pt.batched.cycles;
            batched_seconds += pt.batched.seconds;
            reference_cycles += pt.reference.cycles;
            reference_seconds += pt.reference.seconds;
            std::printf("%-14s %-4s %12.0f %12.0f %7.2fx\n",
                        pt.workload.c_str(), pt.machine.c_str(),
                        pt.batched.cyclesPerSec(),
                        pt.reference.cyclesPerSec(), pt.speedup());
            points.push_back(pt);
        }
    }

    const double batched_cps =
        batched_seconds > 0.0
            ? static_cast<double>(batched_cycles) / batched_seconds
            : 0.0;
    const double reference_cps =
        reference_seconds > 0.0
            ? static_cast<double>(reference_cycles) / reference_seconds
            : 0.0;
    const double speedup =
        reference_cps > 0.0 ? batched_cps / reference_cps : 0.0;

    obs::JsonWriter w;
    w.beginObject();
    w.key("schema").value("stackscope-simspeed-v2");
    w.key("instrs_per_point").value(instrs);
    w.key("engines_identical").value(identical);
    w.key("profiled").value(do_profile);
    w.key("points").beginArray();
    for (const GridPoint &pt : points) {
        w.beginObject();
        w.key("workload").value(pt.workload);
        w.key("machine").value(pt.machine);
        for (const bool batched : {true, false}) {
            const EngineSample &s = batched ? pt.batched : pt.reference;
            w.key(batched ? "batched" : "reference").beginObject();
            w.key("cycles").value(s.cycles);
            w.key("instrs").value(s.instrs);
            w.key("seconds").value(s.seconds);
            w.key("cycles_per_sec").value(s.cyclesPerSec());
            w.endObject();
        }
        w.key("speedup").value(pt.speedup());
        w.endObject();
    }
    w.endArray();
    w.key("totals").beginObject();
    w.key("batched_cycles").value(batched_cycles);
    w.key("batched_seconds").value(batched_seconds);
    w.key("batched_cycles_per_sec").value(batched_cps);
    w.key("reference_cycles").value(reference_cycles);
    w.key("reference_seconds").value(reference_seconds);
    w.key("reference_cycles_per_sec").value(reference_cps);
    w.key("speedup_vs_reference").value(speedup);
    w.endObject();
    if (do_profile) {
        w.key("profile").beginObject();
        w.key("batched");
        writeProfile(w, batched_profile);
        w.key("reference");
        writeProfile(w, reference_profile);
        w.endObject();
    }
    w.endObject();

    const char *env = std::getenv("STACKSCOPE_BENCH_JSON");
    const std::string path = env != nullptr ? env : "BENCH_simspeed.json";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
        std::fprintf(stderr, "simspeed: cannot write %s\n", path.c_str());
        return 1;
    }
    std::fwrite(w.str().data(), 1, w.str().size(), f);
    std::fputc('\n', f);
    std::fclose(f);

    std::printf("TOTAL: batched %.0f cycles/sec, reference %.0f "
                "cycles/sec, speedup %.2fx -> %s\n",
                batched_cps, reference_cps, speedup, path.c_str());
    if (do_profile) {
        for (const bool batched : {true, false}) {
            const core::StageProfile &p =
                batched ? batched_profile : reference_profile;
            const std::uint64_t total = p.writeback_ns + p.commit_ns +
                                        p.issue_ns + p.dispatch_ns +
                                        p.fetch_ns + p.accounting_ns;
            std::printf(
                "PROFILE %-9s wb %4.1f%%  commit %4.1f%%  issue %4.1f%%  "
                "dispatch %4.1f%%  fetch %4.1f%%  acct %4.1f%%  "
                "(%.2fs over %llu cycles)\n",
                batched ? "batched" : "reference",
                100.0 * p.writeback_ns / total, 100.0 * p.commit_ns / total,
                100.0 * p.issue_ns / total, 100.0 * p.dispatch_ns / total,
                100.0 * p.fetch_ns / total, 100.0 * p.accounting_ns / total,
                total / 1e9, static_cast<unsigned long long>(p.cycles));
        }
    }
    return identical ? 0 : 1;
}
