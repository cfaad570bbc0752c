/** Unit and property tests for the synthetic trace generator. */

#include "trace/synthetic_generator.hpp"

#include <gtest/gtest.h>

#include <latch>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "trace/workload_library.hpp"

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

SyntheticParams
smallParams()
{
    SyntheticParams p;
    p.num_instrs = 20000;
    p.seed = 99;
    return p;
}

TEST(SyntheticGenerator, ProducesExactCount)
{
    SyntheticGenerator gen(smallParams());
    EXPECT_EQ(drain(gen).size(), 20000u);
}

TEST(SyntheticGenerator, ResetReproducesStream)
{
    SyntheticGenerator gen(smallParams());
    const auto first = drain(gen);
    gen.reset();
    const auto second = drain(gen);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].pc, second[i].pc);
        EXPECT_EQ(first[i].cls, second[i].cls);
        EXPECT_EQ(first[i].mem_addr, second[i].mem_addr);
        EXPECT_EQ(first[i].branch_taken, second[i].branch_taken);
        EXPECT_EQ(first[i].num_srcs, second[i].num_srcs);
        for (unsigned s = 0; s < first[i].num_srcs; ++s)
            EXPECT_EQ(first[i].src[s], second[i].src[s]);
    }
}

TEST(SyntheticGenerator, CloneReproducesStream)
{
    SyntheticGenerator gen(smallParams());
    auto copy = gen.clone();
    const auto a = drain(gen);
    const auto b = drain(*copy);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); i += 97)
        EXPECT_EQ(a[i].pc, b[i].pc);
}

TEST(SyntheticGenerator, ClonesDrainConcurrently)
{
    // A generator's clones share one lazily filled code table. Four
    // threads that fill it at once must each see the serial stream.
    // cactus spans 512 KiB of code, so the threads race over many slots.
    SyntheticParams p = findWorkload("cactus").params;
    p.num_instrs = 100'000;
    SyntheticGenerator serial(p);
    const std::vector<DynInstr> expected = drain(serial);

    const SyntheticGenerator master(p);
    constexpr int kThreads = 4;
    std::vector<std::unique_ptr<TraceSource>> clones;
    for (int t = 0; t < kThreads; ++t)
        clones.push_back(master.clone());
    std::vector<std::vector<DynInstr>> streams(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            streams[t] = drain(*clones[t]);
        });
    }
    for (std::thread &th : threads)
        th.join();

    for (int t = 0; t < kThreads; ++t) {
        SCOPED_TRACE(t);
        ASSERT_EQ(streams[t].size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
            const DynInstr &a = streams[t][i];
            const DynInstr &b = expected[i];
            ASSERT_EQ(a.pc, b.pc) << i;
            ASSERT_EQ(a.cls, b.cls) << i;
            ASSERT_EQ(a.decode_cycles, b.decode_cycles) << i;
            ASSERT_EQ(a.mem_addr, b.mem_addr) << i;
            ASSERT_EQ(a.branch_taken, b.branch_taken) << i;
            ASSERT_EQ(a.active_lanes, b.active_lanes) << i;
            ASSERT_EQ(a.num_srcs, b.num_srcs) << i;
            for (unsigned s = 0; s < a.num_srcs; ++s)
                ASSERT_EQ(a.src[s], b.src[s]) << i;
        }
    }
}

TEST(SyntheticGenerator, DependencesPointBackwardWithinWindow)
{
    SyntheticParams p = smallParams();
    p.dep_window = 32;
    SyntheticGenerator gen(p);
    const auto instrs = drain(gen);
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        for (unsigned s = 0; s < instrs[i].num_srcs; ++s) {
            ASSERT_LT(instrs[i].src[s], i);
            ASSERT_LE(i - instrs[i].src[s], kMaxDepDistance);
        }
    }
}

TEST(SyntheticGenerator, MixApproximatesWeights)
{
    SyntheticParams p = smallParams();
    p.num_instrs = 100000;
    p.w_alu = 0.5;
    p.w_load = 0.3;
    p.w_store = 0.0;
    p.w_branch = 0.2;
    p.w_mul = 0.0;
    SyntheticGenerator gen(p);
    std::map<InstrClass, int> counts;
    for (const DynInstr &i : drain(gen))
        ++counts[i.cls];
    EXPECT_NEAR(counts[InstrClass::kAlu] / 100000.0, 0.5, 0.05);
    EXPECT_NEAR(counts[InstrClass::kLoad] / 100000.0, 0.3, 0.05);
    EXPECT_NEAR(counts[InstrClass::kBranch] / 100000.0, 0.2, 0.05);
    EXPECT_EQ(counts[InstrClass::kStore], 0);
}

TEST(SyntheticGenerator, CodeIsStatic)
{
    // The class at a PC never changes: real code does not rewrite itself.
    SyntheticParams p = smallParams();
    p.num_instrs = 50000;
    p.code_footprint = 4 << 10;  // small, so PCs repeat a lot
    SyntheticGenerator gen(p);
    std::map<Addr, InstrClass> seen;
    for (const DynInstr &i : drain(gen)) {
        auto [it, inserted] = seen.emplace(i.pc, i.cls);
        if (!inserted) {
            ASSERT_EQ(it->second, i.cls) << "PC " << std::hex << i.pc;
        }
    }
}

TEST(SyntheticGenerator, PcStaysInFootprint)
{
    SyntheticParams p = smallParams();
    p.code_footprint = 8 << 10;
    SyntheticGenerator gen(p);
    for (const DynInstr &i : drain(gen)) {
        EXPECT_GE(i.pc, 0x00400000u);
        EXPECT_LT(i.pc, 0x00400000u + p.code_footprint);
    }
}

TEST(SyntheticGenerator, YieldsEmittedPeriodically)
{
    SyntheticParams p = smallParams();
    p.num_instrs = 10000;
    p.yield_every = 1000;
    p.yield_cycles = 77;
    SyntheticGenerator gen(p);
    int yields = 0;
    for (const DynInstr &i : drain(gen)) {
        if (i.cls == InstrClass::kYield) {
            ++yields;
            EXPECT_EQ(i.yield_cycles, 77u) << "yield cycles";
        }
    }
    EXPECT_EQ(yields, 10);
}

TEST(SyntheticGenerator, MicrocodedFractionRoughlyRespected)
{
    SyntheticParams p = smallParams();
    p.num_instrs = 100000;
    p.microcoded_frac = 0.10;
    p.microcode_decode_cycles = 4;
    SyntheticGenerator gen(p);
    std::uint64_t micro = 0;
    std::uint64_t eligible = 0;
    for (const DynInstr &i : drain(gen)) {
        if (i.cls == InstrClass::kAlu || i.cls == InstrClass::kAluMul) {
            ++eligible;
            micro += i.decode_cycles > 1;
        }
    }
    ASSERT_GT(eligible, 0u);
    EXPECT_NEAR(static_cast<double>(micro) / eligible, 0.10, 0.04);
}

TEST(SyntheticGenerator, MaskedVectorLanes)
{
    SyntheticParams p = smallParams();
    p.num_instrs = 50000;
    p.w_vec_fma = 0.5;
    p.vec_lanes = 16;
    p.vec_mask_frac = 0.25;
    SyntheticGenerator gen(p);
    int full = 0;
    int masked = 0;
    for (const DynInstr &i : drain(gen)) {
        if (i.cls != InstrClass::kVecFma)
            continue;
        ASSERT_GE(i.active_lanes, 1u);
        ASSERT_LE(i.active_lanes, 16u);
        (i.active_lanes == 16 ? full : masked) += 1;
    }
    EXPECT_GT(full, 0);
    EXPECT_GT(masked, 0);
    EXPECT_NEAR(static_cast<double>(masked) / (full + masked), 0.25, 0.05);
}

TEST(SyntheticGenerator, PointerChaseLoadsDependOnPreviousChase)
{
    SyntheticParams p = smallParams();
    p.num_instrs = 50000;
    p.pointer_chase_frac = 1.0;  // every load chases
    p.w_load = 1.0;
    p.w_alu = 0.0;
    p.w_mul = 0.0;
    p.w_store = 0.0;
    p.w_branch = 0.0;
    p.chain_frac = 0.0;
    p.far_dep_frac = 0.0;
    p.second_src_frac = 0.0;
    SyntheticGenerator gen(p);
    const auto instrs = drain(gen);
    // Every load after the first depends on the previous load.
    for (std::size_t i = 1; i < instrs.size(); ++i) {
        ASSERT_EQ(instrs[i].cls, InstrClass::kLoad);
        ASSERT_EQ(instrs[i].num_srcs, 1u);
        EXPECT_EQ(instrs[i].src[0], i - 1);
    }
}

TEST(SyntheticGenerator, StreamingAddressesAreStrided)
{
    SyntheticParams p = smallParams();
    p.num_instrs = 1000;
    p.stream_frac = 1.0;
    p.stream_stride = 64;
    p.w_load = 1.0;
    p.w_alu = 0.0;
    p.w_mul = 0.0;
    p.w_store = 0.0;
    p.w_branch = 0.0;
    SyntheticGenerator gen(p);
    const auto instrs = drain(gen);
    for (std::size_t i = 1; i < instrs.size(); ++i)
        EXPECT_EQ(instrs[i].mem_addr, instrs[i - 1].mem_addr + 64);
}

}  // namespace
}  // namespace stackscope::trace
