/**
 * Pinned report bytes for every stack the engine can produce: the FNV-1a
 * digest of the report JSON (no host metrics) of short runs that cover
 * each workload preset on each machine under each speculation mode, plus
 * native-width accounting, 4-core HPC kernels and an interval series.
 *
 * The golden batched-vs-reference suite cannot catch an accounting bug
 * that both engines share, and perfbench pins only oracle runs at
 * default options; these pins hold every stack, in every mode, to its
 * exact bytes.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/report.hpp"
#include "runner/job_spec.hpp"
#include "sim/multicore.hpp"
#include "sim/presets.hpp"
#include "trace/hpc_kernels.hpp"
#include "trace/synthetic_generator.hpp"
#include "trace/workload_library.hpp"

namespace stackscope::sim {
namespace {

using stacks::SpeculationMode;

/** Measured instructions per run; warmup is the CLI's default half. */
constexpr std::uint64_t kInstrs = 20'000;

const char *const kMachines[] = {"bdw", "knl", "skx"};

struct ReportPin
{
    std::string label;
    std::uint64_t digest;
};

SimOptions
pinOptions(SpeculationMode mode)
{
    SimOptions so;
    so.spec_mode = mode;
    so.warmup_instrs = runner::defaultWarmup(kInstrs);
    return so;
}

template <typename Result>
std::uint64_t
reportDigest(const std::string &label, const SimOptions &so, const Result &r)
{
    obs::ReportBuilder report("pin");
    report.add(label, so, r);
    return runner::fnv1a64(report.json());
}

std::uint64_t
presetDigest(const std::string &label, const std::string &workload,
             const MachineConfig &machine, const SimOptions &so)
{
    trace::SyntheticParams p = trace::findWorkload(workload).params;
    p.num_instrs = kInstrs + *so.warmup_instrs;
    const trace::SyntheticGenerator gen(p);
    return reportDigest(label, so, simulate(machine, gen, so));
}

/**
 * Compare @p actual with @p pins row by row; on any mismatch print the
 * whole table as source so a deliberate change can be re-pinned.
 */
void
expectPins(const std::vector<ReportPin> &actual,
           const std::vector<ReportPin> &pins)
{
    bool same = actual.size() == pins.size();
    for (std::size_t i = 0; same && i < actual.size(); ++i) {
        EXPECT_EQ(actual[i].label, pins[i].label);
        EXPECT_EQ(actual[i].digest, pins[i].digest) << actual[i].label;
        same = actual[i].digest == pins[i].digest;
    }
    EXPECT_EQ(actual.size(), pins.size());
    if (same)
        return;
    for (const ReportPin &p : actual) {
        std::printf("    {\"%s\", 0x%016" PRIx64 "ULL},\n",
                    p.label.c_str(), p.digest);
    }
}

/** Every workload preset on @p machine under every speculation mode. */
std::vector<ReportPin>
presetRuns(const char *machine_name)
{
    const MachineConfig machine = machineByName(machine_name);
    std::vector<ReportPin> out;
    for (const trace::Workload &w : trace::allSpecWorkloads()) {
        for (const SpeculationMode mode : stacks::kSpeculationModes) {
            const std::string label = w.name + "/" + machine_name + "/" +
                                      std::string(toString(mode));
            out.push_back({label,
                           presetDigest(label, w.name, machine,
                                        pinOptions(mode))});
        }
    }
    return out;
}

const std::vector<ReportPin> kBdwPins = {
    {"mcf/bdw/oracle", 0x268e9059376d3872ULL},
    {"mcf/bdw/simple", 0x32a3d7b3d0610de3ULL},
    {"mcf/bdw/spec-counters", 0x94f8ea5d2714c3eeULL},
    {"cactus/bdw/oracle", 0x884341af9f01969fULL},
    {"cactus/bdw/simple", 0xa84ae36704e68cffULL},
    {"cactus/bdw/spec-counters", 0x6cb60a48b57a5ef5ULL},
    {"bwaves/bdw/oracle", 0xac58af9160012c6fULL},
    {"bwaves/bdw/simple", 0x8891da8bd87b0320ULL},
    {"bwaves/bdw/spec-counters", 0xcd9552f5e3337595ULL},
    {"povray/bdw/oracle", 0x6f6bbf93e41a949cULL},
    {"povray/bdw/simple", 0xa5aad457c7a07d13ULL},
    {"povray/bdw/spec-counters", 0xf47f2e6782656eafULL},
    {"imagick/bdw/oracle", 0x33c21e2d37884757ULL},
    {"imagick/bdw/simple", 0x0ec19e877d9b126fULL},
    {"imagick/bdw/spec-counters", 0x5c2cef3e2c7e66a3ULL},
    {"gcc/bdw/oracle", 0x7ef613063b004c88ULL},
    {"gcc/bdw/simple", 0x71e7c78f30cc9030ULL},
    {"gcc/bdw/spec-counters", 0x4cafb54b3ae076deULL},
    {"xalancbmk/bdw/oracle", 0x349c1a5cc88d8592ULL},
    {"xalancbmk/bdw/simple", 0x3daaae266a8e3181ULL},
    {"xalancbmk/bdw/spec-counters", 0x7356b91b56048e51ULL},
    {"deepsjeng/bdw/oracle", 0xc01ecaaf295177e2ULL},
    {"deepsjeng/bdw/simple", 0x3ac82c9dc7eb847cULL},
    {"deepsjeng/bdw/spec-counters", 0xadb06c0c411f7d07ULL},
    {"leela/bdw/oracle", 0x3d6ea7243264eb7eULL},
    {"leela/bdw/simple", 0xa17d25daba8af767ULL},
    {"leela/bdw/spec-counters", 0x55a353147569adcbULL},
    {"exchange2/bdw/oracle", 0xb82bd40043f92f6eULL},
    {"exchange2/bdw/simple", 0x4196721b89dfde48ULL},
    {"exchange2/bdw/spec-counters", 0xf42e8f68362015c8ULL},
    {"perlbench/bdw/oracle", 0x40cee1a51bc37df6ULL},
    {"perlbench/bdw/simple", 0x34e778c7fc47ad5bULL},
    {"perlbench/bdw/spec-counters", 0xfb939f1efdc83ea4ULL},
    {"x264/bdw/oracle", 0xd7af3381b6729d8bULL},
    {"x264/bdw/simple", 0x2a0305e2b3220c89ULL},
    {"x264/bdw/spec-counters", 0x3eb520d5cf87405dULL},
    {"omnetpp/bdw/oracle", 0x687118e8145ea132ULL},
    {"omnetpp/bdw/simple", 0x0f6abf9d6dcf0ea6ULL},
    {"omnetpp/bdw/spec-counters", 0x2790d57eca73dfc8ULL},
    {"lbm/bdw/oracle", 0xa922be95c14d812aULL},
    {"lbm/bdw/simple", 0x54a53c2dd5ffb95fULL},
    {"lbm/bdw/spec-counters", 0xcba0c17ce2f1fff1ULL},
    {"nab/bdw/oracle", 0x4daef96c6bc45deeULL},
    {"nab/bdw/simple", 0xafc05a0662a23c23ULL},
    {"nab/bdw/spec-counters", 0x8a79c04f02f20ecfULL},
    {"wrf/bdw/oracle", 0x83a4efbba23e2767ULL},
    {"wrf/bdw/simple", 0x3b171876856a70a0ULL},
    {"wrf/bdw/spec-counters", 0x5c991a808ce163fdULL},
    {"fotonik3d/bdw/oracle", 0x3198558f5c417e50ULL},
    {"fotonik3d/bdw/simple", 0xf4e3e0d9ecc77a70ULL},
    {"fotonik3d/bdw/spec-counters", 0x265ed0892d1bd4a9ULL},
    {"roms/bdw/oracle", 0x81ecd84540c42ccdULL},
    {"roms/bdw/simple", 0xd66e1accad32deedULL},
    {"roms/bdw/spec-counters", 0xc6285770aa20bd25ULL},
};

const std::vector<ReportPin> kKnlPins = {
    {"mcf/knl/oracle", 0x5517b86e04236dd2ULL},
    {"mcf/knl/simple", 0xc77eca3eb14d8273ULL},
    {"mcf/knl/spec-counters", 0xa8ddc270a9f8e731ULL},
    {"cactus/knl/oracle", 0x9c4abd601d1865c5ULL},
    {"cactus/knl/simple", 0xdf1034f5cd2d1f19ULL},
    {"cactus/knl/spec-counters", 0xc09a7504fd89c3d5ULL},
    {"bwaves/knl/oracle", 0x78b5582cc6f2132bULL},
    {"bwaves/knl/simple", 0xa67005d75f763252ULL},
    {"bwaves/knl/spec-counters", 0x2f6225e8a0cbe491ULL},
    {"povray/knl/oracle", 0x6594907403d6c1faULL},
    {"povray/knl/simple", 0x07950fe2cff5e944ULL},
    {"povray/knl/spec-counters", 0x8532ca04b0a1fc05ULL},
    {"imagick/knl/oracle", 0xdbbafbf9ec96ded1ULL},
    {"imagick/knl/simple", 0x0dc4e34272c9d251ULL},
    {"imagick/knl/spec-counters", 0x69707ac4dfe744e6ULL},
    {"gcc/knl/oracle", 0x9b7683af711567f3ULL},
    {"gcc/knl/simple", 0x15281efa1c5c797bULL},
    {"gcc/knl/spec-counters", 0xf0bf1f9410e36f20ULL},
    {"xalancbmk/knl/oracle", 0xac0b8e0c5a17d3acULL},
    {"xalancbmk/knl/simple", 0x7c2bafa8a47d5fd1ULL},
    {"xalancbmk/knl/spec-counters", 0x1de2a8192b93db6cULL},
    {"deepsjeng/knl/oracle", 0xbe15f403ba742c0bULL},
    {"deepsjeng/knl/simple", 0x901e9e83f3d9f7b0ULL},
    {"deepsjeng/knl/spec-counters", 0x4d7786b5d30355e7ULL},
    {"leela/knl/oracle", 0xbd7d5e84b3a16788ULL},
    {"leela/knl/simple", 0x5a2cd8f24f9dfff9ULL},
    {"leela/knl/spec-counters", 0x39999842afc80f15ULL},
    {"exchange2/knl/oracle", 0xe0e3127e1462857bULL},
    {"exchange2/knl/simple", 0x933da479259cb271ULL},
    {"exchange2/knl/spec-counters", 0x335ee2159b697632ULL},
    {"perlbench/knl/oracle", 0x34d566610dc0deefULL},
    {"perlbench/knl/simple", 0xdec2f098ba037f56ULL},
    {"perlbench/knl/spec-counters", 0xe33cee150f4e5be6ULL},
    {"x264/knl/oracle", 0x8a8bda7596a8616cULL},
    {"x264/knl/simple", 0x5df2559db0d75f48ULL},
    {"x264/knl/spec-counters", 0x904fa94db8a43af2ULL},
    {"omnetpp/knl/oracle", 0xbc78f95a55d2d1cbULL},
    {"omnetpp/knl/simple", 0xecf35e1291f1606fULL},
    {"omnetpp/knl/spec-counters", 0x204c0a64aa395d50ULL},
    {"lbm/knl/oracle", 0x3ddf5e756dc2b949ULL},
    {"lbm/knl/simple", 0xbc8d69cba2876367ULL},
    {"lbm/knl/spec-counters", 0x18e1c03f11dd3c68ULL},
    {"nab/knl/oracle", 0xeb21b3f64aa8c1b4ULL},
    {"nab/knl/simple", 0x99c9af363bf4b14aULL},
    {"nab/knl/spec-counters", 0xbe422a392179cc26ULL},
    {"wrf/knl/oracle", 0xac449e87c4d3d1ffULL},
    {"wrf/knl/simple", 0xc0a3826776ea30bfULL},
    {"wrf/knl/spec-counters", 0x4cea0c0ed151ebe4ULL},
    {"fotonik3d/knl/oracle", 0xba1297c598eff76cULL},
    {"fotonik3d/knl/simple", 0xea2f437126ef013eULL},
    {"fotonik3d/knl/spec-counters", 0x78085303010d1e85ULL},
    {"roms/knl/oracle", 0x463fef402c485f4bULL},
    {"roms/knl/simple", 0x96abf5397a96dc2fULL},
    {"roms/knl/spec-counters", 0xd19a8218a9b9bd41ULL},
};

const std::vector<ReportPin> kSkxPins = {
    {"mcf/skx/oracle", 0x0941cd77425dc847ULL},
    {"mcf/skx/simple", 0x60183e0795e1a41cULL},
    {"mcf/skx/spec-counters", 0x3eae8b563fc43c35ULL},
    {"cactus/skx/oracle", 0xd261d869f342e7ecULL},
    {"cactus/skx/simple", 0x74143222414cb47cULL},
    {"cactus/skx/spec-counters", 0xeab0b45f6ca3939aULL},
    {"bwaves/skx/oracle", 0xcfe2e0fd95bb20f1ULL},
    {"bwaves/skx/simple", 0x21521f042c324aabULL},
    {"bwaves/skx/spec-counters", 0x4e9eefa33b4efe8eULL},
    {"povray/skx/oracle", 0x8a021b54d8635caaULL},
    {"povray/skx/simple", 0xa33783d6e68a4a89ULL},
    {"povray/skx/spec-counters", 0x17fc56b16ddec36eULL},
    {"imagick/skx/oracle", 0x208736c80a6b82c9ULL},
    {"imagick/skx/simple", 0x3352318c6ccfb77bULL},
    {"imagick/skx/spec-counters", 0x6d82a35559a5c608ULL},
    {"gcc/skx/oracle", 0x553439181b070479ULL},
    {"gcc/skx/simple", 0x8594f118a0845e18ULL},
    {"gcc/skx/spec-counters", 0x9d71ec9761273283ULL},
    {"xalancbmk/skx/oracle", 0x855133fbba111b91ULL},
    {"xalancbmk/skx/simple", 0x6bed8ce4332d142dULL},
    {"xalancbmk/skx/spec-counters", 0xe27ccaf57e303126ULL},
    {"deepsjeng/skx/oracle", 0xc480ffd1a49cf47fULL},
    {"deepsjeng/skx/simple", 0x2b1079737c967e0aULL},
    {"deepsjeng/skx/spec-counters", 0xe64acf36c4063fb5ULL},
    {"leela/skx/oracle", 0x0a21d898b3565e53ULL},
    {"leela/skx/simple", 0xdde7b43e5c862337ULL},
    {"leela/skx/spec-counters", 0x5b035dea8b57a2baULL},
    {"exchange2/skx/oracle", 0xa8f3ebe68e750885ULL},
    {"exchange2/skx/simple", 0xdd511ebb49d002f5ULL},
    {"exchange2/skx/spec-counters", 0x36a64e033214c57bULL},
    {"perlbench/skx/oracle", 0x258c14841731e7f2ULL},
    {"perlbench/skx/simple", 0xdf3c6f1c8ca160d1ULL},
    {"perlbench/skx/spec-counters", 0xe09ae3e46fdc67ecULL},
    {"x264/skx/oracle", 0xa1c72021d4223042ULL},
    {"x264/skx/simple", 0xaa2bf5aa310c4940ULL},
    {"x264/skx/spec-counters", 0x22114ddc3dbadb0fULL},
    {"omnetpp/skx/oracle", 0x9eeb74514ee85ea6ULL},
    {"omnetpp/skx/simple", 0xae750f389af4c740ULL},
    {"omnetpp/skx/spec-counters", 0x840ac7dfa22a635bULL},
    {"lbm/skx/oracle", 0xfeafe51c27668f53ULL},
    {"lbm/skx/simple", 0x8e153934354728e6ULL},
    {"lbm/skx/spec-counters", 0xa09b8da52940cb13ULL},
    {"nab/skx/oracle", 0x6814c88aedab8e60ULL},
    {"nab/skx/simple", 0x85f7c226f8869febULL},
    {"nab/skx/spec-counters", 0xe2ec63d96221b5b0ULL},
    {"wrf/skx/oracle", 0xdbcd598747b74bb6ULL},
    {"wrf/skx/simple", 0x9b8a513dca5da7fcULL},
    {"wrf/skx/spec-counters", 0xbf6add83e4e3e9c2ULL},
    {"fotonik3d/skx/oracle", 0x8cf15b27c4b2b898ULL},
    {"fotonik3d/skx/simple", 0xdacbef1bcf8fe613ULL},
    {"fotonik3d/skx/spec-counters", 0x697d5956daf29812ULL},
    {"roms/skx/oracle", 0xfb0836c9b58a7425ULL},
    {"roms/skx/simple", 0x70cd4a464e95b607ULL},
    {"roms/skx/spec-counters", 0xe5f1979c2c226527ULL},
};

TEST(StackPins, BdwPresetsInEveryMode)
{
    expectPins(presetRuns("bdw"), kBdwPins);
}

TEST(StackPins, KnlPresetsInEveryMode)
{
    expectPins(presetRuns("knl"), kKnlPins);
}

TEST(StackPins, SkxPresetsInEveryMode)
{
    expectPins(presetRuns("skx"), kSkxPins);
}

TEST(StackPins, NativeWidthAccounting)
{
    // The §III-A ablation: each stage accounted at its own width.
    const char *const workloads[] = {"mcf", "gcc", "bwaves"};
    std::vector<ReportPin> actual;
    for (std::size_t i = 0; i < 3; ++i) {
        MachineConfig machine = machineByName(kMachines[i]);
        machine.core.accounting_native_widths = true;
        const std::string label =
            std::string(workloads[i]) + "/" + kMachines[i] + "/native";
        actual.push_back({label,
                          presetDigest(label, workloads[i], machine,
                                       pinOptions(SpeculationMode::kOracle))});
    }
    expectPins(actual, {
                           {"mcf/bdw/native", 0x64c89835b79d715eULL},
                           {"gcc/knl/native", 0x71bf0b6158e2eff8ULL},
                           {"bwaves/skx/native", 0xe6c831a5df536eedULL},
                       });
}

TEST(StackPins, HpcKernelsOnFourCores)
{
    std::vector<ReportPin> actual;
    for (const char *kernel : {"conv_bwd_d_0", "sgemm_train_0"}) {
        const trace::HpcBenchmark *bench = nullptr;
        for (const trace::HpcBenchmark &b : trace::deepBenchSuite()) {
            if (b.name == kernel)
                bench = &b;
        }
        ASSERT_NE(bench, nullptr) << kernel;
        for (const char *machine_name : {"knl", "skx"}) {
            const MachineConfig machine = machineByName(machine_name);
            const trace::HpcTarget target{
                machine.core.flops_vec_lanes,
                std::string(machine_name) == "knl"
                    ? trace::SgemmCodegen::kKnlJit
                    : trace::SgemmCodegen::kSkxBroadcast};
            const SimOptions so = pinOptions(SpeculationMode::kOracle);
            const auto trace =
                bench->make(target, kInstrs + *so.warmup_instrs);
            const std::string label =
                std::string(kernel) + "/" + machine_name + "/x4";
            actual.push_back(
                {label,
                 reportDigest(label, so,
                              simulateMulticore(machine, *trace, 4, so))});
        }
    }
    expectPins(actual, {
                           {"conv_bwd_d_0/knl/x4", 0xcf753bd1d5c94414ULL},
                           {"conv_bwd_d_0/skx/x4", 0xfc09934bef19b838ULL},
                           {"sgemm_train_0/knl/x4", 0x250aa6a16d8ab2e0ULL},
                           {"sgemm_train_0/skx/x4", 0xad3ec6f7be6b5684ULL},
                       });
}

TEST(StackPins, IntervalSeries)
{
    SimOptions so = pinOptions(SpeculationMode::kOracle);
    so.obs.interval_cycles = 1000;
    const std::string label = "mcf/bdw/intervals";
    expectPins({{label,
                 presetDigest(label, "mcf", machineByName("bdw"), so)}},
               {{"mcf/bdw/intervals", 0x50287a616c7664a0ULL}});
}

}  // namespace
}  // namespace stackscope::sim
