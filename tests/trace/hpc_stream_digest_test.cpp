/**
 * Pinned HPC kernel streams: the length and an FNV-1a digest of every
 * DeepBench kernel on both code-generation targets, so any change to how
 * a kernel is generated must reproduce its stream uop for uop.
 *
 * The digest covers each uop's pc, class, decode cycles, memory address,
 * branch outcome, active lanes and yield cycles, and the distance to each
 * source that lies within kMaxDepDistance. Sources further back carry no
 * timing (their producers have always retired), so leaving them out keeps
 * the pins valid whether or not a generator names them.
 */

#include "trace/hpc_kernels.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace stackscope::trace {
namespace {

struct StreamPin
{
    const char *kernel;
    SgemmCodegen style;
    std::uint64_t length;
    std::uint64_t digest;
};

constexpr SgemmCodegen kKnl = SgemmCodegen::kKnlJit;
constexpr SgemmCodegen kSkx = SgemmCodegen::kSkxBroadcast;

/** Every kernel at 20,000 uops, 16 lanes, the default seed. */
constexpr StreamPin kSuitePins[] = {
    {"sgemm_train_0", kKnl, 20006, 0x84185bc8af9b9ff2ULL},
    {"sgemm_train_0", kSkx, 20003, 0x0af0d3a234bb26d9ULL},
    {"sgemm_train_1", kKnl, 20006, 0x84185bc8af9b9ff2ULL},
    {"sgemm_train_1", kSkx, 20003, 0x0af0d3a234bb26d9ULL},
    {"sgemm_train_2", kKnl, 20006, 0x84185bc8af9b9ff2ULL},
    {"sgemm_train_2", kSkx, 20003, 0x0af0d3a234bb26d9ULL},
    {"sgemm_train_3", kKnl, 20006, 0x84185bc8af9b9ff2ULL},
    {"sgemm_train_3", kSkx, 20003, 0x0af0d3a234bb26d9ULL},
    {"sgemm_train_4", kKnl, 20006, 0x84185bc8af9b9ff2ULL},
    {"sgemm_train_4", kSkx, 20003, 0x0af0d3a234bb26d9ULL},
    {"sgemm_train_5", kKnl, 20006, 0x84185bc8af9b9ff2ULL},
    {"sgemm_train_5", kSkx, 20003, 0x0af0d3a234bb26d9ULL},
    {"sgemm_train_6", kKnl, 20006, 0x84185bc8af9b9ff2ULL},
    {"sgemm_train_6", kSkx, 20003, 0x0af0d3a234bb26d9ULL},
    {"sgemm_train_7", kKnl, 20006, 0x84185bc8af9b9ff2ULL},
    {"sgemm_train_7", kSkx, 20003, 0x0af0d3a234bb26d9ULL},
    {"sgemm_inf_0", kKnl, 20001, 0x4028827696b350bcULL},
    {"sgemm_inf_0", kSkx, 20000, 0x358b901197bc6dc4ULL},
    {"sgemm_inf_1", kKnl, 20000, 0xcaaaf10e30eee2e5ULL},
    {"sgemm_inf_1", kSkx, 20002, 0x0b9eaaaf552c6f0dULL},
    {"sgemm_inf_2", kKnl, 20004, 0xb2040dc3a44ac949ULL},
    {"sgemm_inf_2", kSkx, 20004, 0x55c178ac38b82645ULL},
    {"sgemm_inf_3", kKnl, 20000, 0xcaaaf10e30eee2e5ULL},
    {"sgemm_inf_3", kSkx, 20002, 0x0b9eaaaf552c6f0dULL},
    {"sgemm_inf_4", kKnl, 20004, 0xb2040dc3a44ac949ULL},
    {"sgemm_inf_4", kSkx, 20004, 0x55c178ac38b82645ULL},
    {"sgemm_inf_5", kKnl, 20006, 0x84185bc8af9b9ff2ULL},
    {"sgemm_inf_5", kSkx, 20003, 0x0af0d3a234bb26d9ULL},
    {"sgemm_inf_6", kKnl, 20001, 0x4028827696b350bcULL},
    {"sgemm_inf_6", kSkx, 20000, 0x358b901197bc6dc4ULL},
    {"sgemm_inf_7", kKnl, 20004, 0xb2040dc3a44ac949ULL},
    {"sgemm_inf_7", kSkx, 20004, 0x55c178ac38b82645ULL},
    {"conv_fwd_0", kKnl, 20003, 0x3236dc966bca1c55ULL},
    {"conv_fwd_0", kSkx, 20015, 0xcb3f4a9e246b86c7ULL},
    {"conv_fwd_1", kKnl, 20003, 0xa6ef24b7bfef3c15ULL},
    {"conv_fwd_1", kSkx, 20015, 0xe7f40110d6253cc7ULL},
    {"conv_fwd_2", kKnl, 20003, 0x796a141062764e6dULL},
    {"conv_fwd_2", kSkx, 20015, 0xaf37b49d16314007ULL},
    {"conv_fwd_3", kKnl, 20003, 0x299f93364e030c49ULL},
    {"conv_fwd_3", kSkx, 20015, 0x4a7fda844ec1ff0fULL},
    {"conv_fwd_4", kKnl, 20003, 0x13f141584861c119ULL},
    {"conv_fwd_4", kSkx, 20015, 0x1559eadea163ca73ULL},
    {"conv_fwd_5", kKnl, 20003, 0x3236dc966bca1c55ULL},
    {"conv_fwd_5", kSkx, 20015, 0xcb3f4a9e246b86c7ULL},
    {"conv_fwd_6", kKnl, 20003, 0xa6ef24b7bfef3c15ULL},
    {"conv_fwd_6", kSkx, 20015, 0xe7f40110d6253cc7ULL},
    {"conv_fwd_7", kKnl, 20003, 0x796a141062764e6dULL},
    {"conv_fwd_7", kSkx, 20015, 0xd627ee5ee049c837ULL},
    {"conv_fwd_8", kKnl, 20003, 0x3236dc966bca1c55ULL},
    {"conv_fwd_8", kSkx, 20015, 0xcb3f4a9e246b86c7ULL},
    {"conv_fwd_9", kKnl, 20003, 0x299f93364e030c49ULL},
    {"conv_fwd_9", kSkx, 20015, 0x7d8bd32752dee837ULL},
    {"conv_bwd_f_0", kKnl, 20009, 0x0f741ad13b7948d6ULL},
    {"conv_bwd_f_0", kSkx, 20678, 0xd3eda0848011e256ULL},
    {"conv_bwd_f_1", kKnl, 20009, 0xd4fbb46238f38146ULL},
    {"conv_bwd_f_1", kSkx, 20678, 0x1babe6b32cc6a2e6ULL},
    {"conv_bwd_f_2", kKnl, 20009, 0x34fad73b98a95412ULL},
    {"conv_bwd_f_2", kSkx, 20678, 0xbe12ad44943bcde6ULL},
    {"conv_bwd_f_3", kKnl, 20009, 0xa38992829b412096ULL},
    {"conv_bwd_f_3", kSkx, 20678, 0x667333992356639aULL},
    {"conv_bwd_f_4", kKnl, 20009, 0xa83cbd725f3ee076ULL},
    {"conv_bwd_f_4", kSkx, 20678, 0x709d75ef3197394eULL},
    {"conv_bwd_f_5", kKnl, 20009, 0x0f741ad13b7948d6ULL},
    {"conv_bwd_f_5", kSkx, 20678, 0xd3eda0848011e256ULL},
    {"conv_bwd_f_6", kKnl, 20009, 0xd4fbb46238f38146ULL},
    {"conv_bwd_f_6", kSkx, 20678, 0x1babe6b32cc6a2e6ULL},
    {"conv_bwd_f_7", kKnl, 20009, 0x34fad73b98a95412ULL},
    {"conv_bwd_f_7", kSkx, 20678, 0xf90117ed64cdbe26ULL},
    {"conv_bwd_f_8", kKnl, 20009, 0x0f741ad13b7948d6ULL},
    {"conv_bwd_f_8", kSkx, 20678, 0xd3eda0848011e256ULL},
    {"conv_bwd_f_9", kKnl, 20009, 0xa38992829b412096ULL},
    {"conv_bwd_f_9", kSkx, 20678, 0xbeaebbd530b75118ULL},
    {"conv_bwd_d_0", kKnl, 20002, 0x9f4e42422bf9fca5ULL},
    {"conv_bwd_d_0", kSkx, 20005, 0xd1843a6e619500a8ULL},
    {"conv_bwd_d_1", kKnl, 20002, 0x4bc763dbbc7bdde5ULL},
    {"conv_bwd_d_1", kSkx, 20005, 0x790ff31821476330ULL},
    {"conv_bwd_d_2", kKnl, 20002, 0xaa8b43ca3efc3f81ULL},
    {"conv_bwd_d_2", kSkx, 20005, 0xc42f40b37895427cULL},
    {"conv_bwd_d_3", kKnl, 20002, 0xd9836c7f9adc77f5ULL},
    {"conv_bwd_d_3", kSkx, 20005, 0xe263f089a4f41cc4ULL},
    {"conv_bwd_d_4", kKnl, 20002, 0xeb9cc2534d3af4adULL},
    {"conv_bwd_d_4", kSkx, 20005, 0x29e50b68f8a62ee8ULL},
    {"conv_bwd_d_5", kKnl, 20002, 0x9f4e42422bf9fca5ULL},
    {"conv_bwd_d_5", kSkx, 20005, 0xd1843a6e619500a8ULL},
    {"conv_bwd_d_6", kKnl, 20002, 0x4bc763dbbc7bdde5ULL},
    {"conv_bwd_d_6", kSkx, 20005, 0x790ff31821476330ULL},
    {"conv_bwd_d_7", kKnl, 20002, 0xaa8b43ca3efc3f81ULL},
    {"conv_bwd_d_7", kSkx, 20005, 0xa5493e995a2cf8acULL},
    {"conv_bwd_d_8", kKnl, 20002, 0x9f4e42422bf9fca5ULL},
    {"conv_bwd_d_8", kSkx, 20005, 0xd1843a6e619500a8ULL},
    {"conv_bwd_d_9", kKnl, 20002, 0xd9836c7f9adc77f5ULL},
    {"conv_bwd_d_9", kSkx, 20005, 0xc05dfbb9f90f48fcULL},
};

std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t v)
{
    for (int byte = 0; byte < 8; ++byte) {
        h ^= (v >> (8 * byte)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Drain @p src; returns {length, digest}. */
std::pair<std::uint64_t, std::uint64_t>
digestOf(TraceSource &src)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    std::uint64_t n = 0;
    DynInstr in;
    while (src.next(in)) {
        h = fnv1a(h, in.pc);
        h = fnv1a(h, static_cast<std::uint64_t>(in.cls));
        h = fnv1a(h, in.decode_cycles);
        h = fnv1a(h, in.mem_addr);
        h = fnv1a(h, in.branch_taken);
        h = fnv1a(h, in.active_lanes);
        h = fnv1a(h, in.yield_cycles);
        for (unsigned s = 0; s < in.num_srcs; ++s) {
            if (n - in.src[s] <= kMaxDepDistance)
                h = fnv1a(h, n - in.src[s]);
        }
        ++n;
    }
    return {n, h};
}

TEST(HpcStreamDigest, SuiteMatchesPins)
{
    const std::vector<HpcBenchmark> &suite = deepBenchSuite();
    ASSERT_EQ(std::size(kSuitePins), 2 * suite.size());
    for (std::size_t i = 0; i < std::size(kSuitePins); ++i) {
        const StreamPin &pin = kSuitePins[i];
        const HpcBenchmark &bm = suite[i / 2];
        ASSERT_EQ(bm.name, pin.kernel);
        SCOPED_TRACE(bm.name + (pin.style == kKnl ? " knl" : " skx"));
        auto src = bm.make({16, pin.style}, 20'000);
        const auto [length, digest] = digestOf(*src);
        EXPECT_EQ(length, pin.length);
        EXPECT_EQ(digest, pin.digest);
    }
}

TEST(HpcStreamDigest, LongSgemmMatchesPin)
{
    auto src = makeSgemmTrace({2560, 64, 2560}, {16, kKnl}, 375'000);
    const auto [length, digest] = digestOf(*src);
    EXPECT_EQ(length, 375002ULL);
    EXPECT_EQ(digest, 0xd19fced6ad2f2f72ULL);
}

TEST(HpcStreamDigest, LongConvMatchesPin)
{
    auto src = makeConvTrace({56, 56, 128, 256, 3}, ConvPhase::kBwdData,
                             {16, kSkx}, 375'000, 7);
    const auto [length, digest] = digestOf(*src);
    EXPECT_EQ(length, 375014ULL);
    EXPECT_EQ(digest, 0x6ea271561adf9e87ULL);
}

}  // namespace
}  // namespace stackscope::trace
