/** Tests for the DeepBench-style HPC kernel generators. */

#include "trace/hpc_kernels.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

namespace stackscope::trace {
namespace {

std::vector<DynInstr>
drain(TraceSource &src)
{
    std::vector<DynInstr> out;
    DynInstr i;
    while (src.next(i))
        out.push_back(i);
    return out;
}

HpcTarget
knlTarget()
{
    return {16, SgemmCodegen::kKnlJit};
}

HpcTarget
skxTarget()
{
    return {16, SgemmCodegen::kSkxBroadcast};
}

TEST(HpcKernels, KnlJitPairsEveryFmaWithALoad)
{
    // The KNL MKL JIT idiom: FMA with memory operand -> load + FMA pair,
    // with the FMA depending on its load (paper §V-B).
    auto src = makeSgemmTrace({512, 64, 512}, knlTarget(), 20000);
    const auto instrs = drain(*src);
    int fmas = 0;
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        if (instrs[i].cls != InstrClass::kVecFma)
            continue;
        ++fmas;
        ASSERT_GE(instrs[i].num_srcs, 1u);
        // First source is the immediately preceding load.
        EXPECT_EQ(instrs[instrs[i].src[0]].cls, InstrClass::kLoad);
        EXPECT_EQ(instrs[i].src[0], i - 1);
    }
    EXPECT_GT(fmas, 1000);
}

TEST(HpcKernels, SkxStyleUsesBroadcasts)
{
    auto src = makeSgemmTrace({512, 64, 512}, skxTarget(), 20000);
    const auto instrs = drain(*src);
    int broadcasts = 0;
    int fmas_on_broadcast = 0;
    int fmas = 0;
    for (const DynInstr &i : instrs) {
        if (i.cls == InstrClass::kVecBroadcast)
            ++broadcasts;
        if (i.cls == InstrClass::kVecFma) {
            ++fmas;
            for (unsigned s = 0; s < i.num_srcs; ++s) {
                if (instrs[i.src[s]].cls == InstrClass::kVecBroadcast)
                    ++fmas_on_broadcast;
            }
        }
    }
    EXPECT_GT(broadcasts, 0);
    // Every FMA consumes a broadcast value (register-register FMA).
    EXPECT_EQ(fmas_on_broadcast, fmas);
}

TEST(HpcKernels, KnlStyleHasNoBroadcasts)
{
    auto src = makeSgemmTrace({512, 64, 512}, knlTarget(), 10000);
    for (const DynInstr &i : drain(*src))
        EXPECT_NE(i.cls, InstrClass::kVecBroadcast);
}

TEST(HpcKernels, InferenceShapesHaveFewerAccumulators)
{
    // n=1 -> a single accumulator chain: every FMA depends on the previous
    // FMA (maximum dependence pressure, the Fig. 4 inference story).
    auto src = makeSgemmTrace({1760, 1, 1760}, skxTarget(), 10000);
    const auto instrs = drain(*src);
    std::uint64_t prev_fma = kNoSeq;
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        if (instrs[i].cls != InstrClass::kVecFma)
            continue;
        if (prev_fma != kNoSeq) {
            bool chains = false;
            for (unsigned s = 0; s < instrs[i].num_srcs; ++s)
                chains |= instrs[i].src[s] == prev_fma;
            EXPECT_TRUE(chains) << "FMA at " << i;
        }
        prev_fma = i;
    }
}

TEST(HpcKernels, MTailProducesMaskedBlocks)
{
    // m % lanes != 0 -> some FMAs run with the tail mask.
    auto src = makeSgemmTrace({1000, 64, 1000}, skxTarget(), 30000);
    int full = 0;
    int tail = 0;
    for (const DynInstr &i : drain(*src)) {
        if (i.cls != InstrClass::kVecFma)
            continue;
        if (i.active_lanes == 16)
            ++full;
        else if (i.active_lanes == 1000 % 16)
            ++tail;
        else
            FAIL() << "unexpected lane count "
                   << static_cast<int>(i.active_lanes);
    }
    EXPECT_GT(full, 0);
    EXPECT_GT(tail, 0);
}

TEST(HpcKernels, ConvMixMatchesPaperStory)
{
    // Fig. 5: ~35% of uops are vector FMAs, each with a memory operand.
    auto src = makeConvTrace({112, 112, 64, 128, 3}, ConvPhase::kFwd,
                             skxTarget(), 50000);
    const auto instrs = drain(*src);
    std::map<InstrClass, int> counts;
    for (const DynInstr &i : instrs)
        ++counts[i.cls];
    const double fma_frac =
        static_cast<double>(counts[InstrClass::kVecFma]) / instrs.size();
    // The paper's 35% counts x86 macro-instructions; at uop level
    // (memory-operand FMAs split in two) that is ~26%, diluted further
    // by the im2col/copy sections.
    EXPECT_NEAR(fma_frac, 0.27, 0.07);
    // Every FMA reads from its own load.
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        if (instrs[i].cls != InstrClass::kVecFma)
            continue;
        ASSERT_GE(instrs[i].num_srcs, 1u);
        EXPECT_EQ(instrs[instrs[i].src[0]].cls, InstrClass::kLoad);
    }
}

TEST(HpcKernels, ConvEmitsYields)
{
    auto src = makeConvTrace({56, 56, 128, 256, 3}, ConvPhase::kFwd,
                             skxTarget(), 100000);
    int yields = 0;
    for (const DynInstr &i : drain(*src))
        yields += i.cls == InstrClass::kYield;
    EXPECT_GE(yields, 2);
}

TEST(HpcKernels, BackwardPhasesHaveMoreStores)
{
    auto count_stores = [](ConvPhase phase) {
        auto src = makeConvTrace({28, 28, 256, 512, 3}, phase, skxTarget(),
                                 20000);
        int stores = 0;
        DynInstr i;
        while (src->next(i))
            stores += i.cls == InstrClass::kStore;
        return stores;
    };
    // Forward only stores in its copy sections; the backward phases also
    // write gradients in the main loop.
    const int fwd = count_stores(ConvPhase::kFwd);
    const int bwd_f = count_stores(ConvPhase::kBwdFilter);
    const int bwd_d = count_stores(ConvPhase::kBwdData);
    EXPECT_GT(fwd, 0);
    EXPECT_GT(bwd_f, fwd * 3 / 2);
    EXPECT_GT(bwd_d, bwd_f);
}

TEST(HpcKernels, EverySourceWithinMaxDepDistance)
{
    // The contract of trace/instruction.hpp: no generator names a
    // producer further back than kMaxDepDistance. The conv kernels' im2col
    // sections push accumulators furthest back.
    for (const HpcBenchmark &bm : deepBenchSuite()) {
        for (const HpcTarget &target : {knlTarget(), skxTarget()}) {
            auto src = bm.make(target, 60'000);
            std::uint64_t n = 0;
            int far = 0;
            DynInstr i;
            while (src->next(i)) {
                for (unsigned s = 0; s < i.num_srcs; ++s)
                    far += n - i.src[s] > kMaxDepDistance;
                ++n;
            }
            EXPECT_EQ(far, 0)
                << bm.name << (target.sgemm_style == SgemmCodegen::kKnlJit
                                   ? " knl"
                                   : " skx");
        }
    }
}

TEST(HpcKernels, SuiteCoversAllGroups)
{
    std::map<std::string, int> groups;
    for (const HpcBenchmark &bm : deepBenchSuite())
        ++groups[bm.group];
    EXPECT_GE(groups["sgemm_train"], 5);
    EXPECT_GE(groups["sgemm_inf"], 5);
    EXPECT_GE(groups["conv_fwd"], 5);
    EXPECT_GE(groups["conv_bwd_f"], 5);
    EXPECT_GE(groups["conv_bwd_d"], 5);
}

TEST(HpcKernels, BenchmarkFactoryProducesTraces)
{
    const HpcBenchmark &bm = deepBenchSuite().front();
    auto src = bm.make(knlTarget(), 5000);
    ASSERT_TRUE(src);
    // Generators finish the current loop block, so they may overshoot by
    // up to one block.
    const std::size_t n = drain(*src).size();
    EXPECT_GE(n, 5000u);
    EXPECT_LE(n, 5200u);
}

/** Every field of two streams is equal, uop for uop. */
void
expectSameStream(const std::vector<DynInstr> &a,
                 const std::vector<DynInstr> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(i);
        ASSERT_EQ(a[i].pc, b[i].pc);
        ASSERT_EQ(a[i].cls, b[i].cls);
        ASSERT_EQ(a[i].decode_cycles, b[i].decode_cycles);
        ASSERT_EQ(a[i].mem_addr, b[i].mem_addr);
        ASSERT_EQ(a[i].branch_taken, b[i].branch_taken);
        ASSERT_EQ(a[i].active_lanes, b[i].active_lanes);
        ASSERT_EQ(a[i].yield_cycles, b[i].yield_cycles);
        ASSERT_EQ(a[i].num_srcs, b[i].num_srcs);
        for (unsigned s = 0; s < a[i].num_srcs; ++s)
            ASSERT_EQ(a[i].src[s], b[i].src[s]);
    }
}

TEST(HpcKernels, DeterministicAcrossCalls)
{
    auto a = makeSgemmTrace({2048, 32, 2048}, knlTarget(), 8000);
    auto b = makeSgemmTrace({2048, 32, 2048}, knlTarget(), 8000);
    expectSameStream(drain(*a), drain(*b));

    // A clone() taken part-way through, and a reset() part-way through,
    // both replay the stream from its first uop. The conv stream carries
    // RNG, stream-address and yield state across iterations; 90,000 uops
    // cross im2col sections and yields.
    std::unique_ptr<TraceSource> sources[] = {
        makeSgemmTrace({1000, 64, 1000}, knlTarget(), 20000),
        makeSgemmTrace({1760, 4, 1760}, skxTarget(), 20000),
        makeConvTrace({56, 56, 128, 256, 3}, ConvPhase::kBwdData,
                      skxTarget(), 90000, 7),
    };
    for (std::unique_ptr<TraceSource> &src : sources) {
        const std::vector<DynInstr> full = drain(*src);
        src->reset();
        DynInstr i;
        // Stop part-way, at a point that need not end a loop iteration.
        for (std::size_t n = 0; n < full.size() / 3 + 5; ++n)
            ASSERT_TRUE(src->next(i));
        const std::unique_ptr<TraceSource> copy = src->clone();
        expectSameStream(drain(*copy), full);
        src->reset();
        expectSameStream(drain(*src), full);
    }
}

}  // namespace
}  // namespace stackscope::trace
