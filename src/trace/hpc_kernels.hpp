/**
 * @file
 * HPC kernel trace generators standing in for the DeepBench benchmarks
 * (sgemm and convolution) used to evaluate FLOPS stacks (paper §IV, §V-B).
 *
 * The paper runs DeepBench through Intel MKL / MKL-DNN, whose JIT kernels
 * have two documented codegen idioms that drive the Figure 4 results:
 *
 * - KNL JIT sgemm uses FMA instructions *with a memory operand*; each such
 *   instruction splits into a load uop plus an FMA uop, and the FMA waits
 *   on the L1 load — producing a large "memory" FLOPS-stack component even
 *   with few cache misses.
 * - SKX sgemm loads data, *broadcasts* it across an AVX512 register, and
 *   feeds many register-register FMAs from the broadcast — producing a
 *   "dependence" component instead.
 *
 * These generators reproduce exactly that structure, parameterized by the
 * GEMM/conv shape. Convolution adds address arithmetic (lower VFP
 * fraction), edge-tile masking, strided input loads with real cache misses,
 * and periodic synchronization yields (the "Unsched" component of Fig. 5).
 *
 * Every kernel streams: its source generates one loop iteration at a time
 * into a small reused buffer (at most about 1,030 uops, a conv im2col
 * section plus one loop body), so building a trace costs O(1) time and
 * memory whatever its length, and reset() and clone() replay it from the
 * start in O(1). Each core of a multi-core run generates its own copy.
 */

#ifndef STACKSCOPE_TRACE_HPC_KERNELS_HPP
#define STACKSCOPE_TRACE_HPC_KERNELS_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace_source.hpp"

namespace stackscope::trace {

/** MKL-style code generation idiom for sgemm inner loops. */
enum class SgemmCodegen
{
    kKnlJit,        ///< FMA with memory operand: load + FMA uop pair.
    kSkxBroadcast,  ///< load + broadcast feeding register-register FMAs.
};

/** Properties of the machine the kernel is JITed for. */
struct HpcTarget
{
    unsigned vec_lanes = 16;  ///< SP elements per vector (16 for AVX512).
    SgemmCodegen sgemm_style = SgemmCodegen::kSkxBroadcast;
};

/** GEMM problem shape (C[m,n] += A[m,k] * B[k,n]). */
struct SgemmConfig
{
    unsigned m = 1760;
    unsigned n = 128;
    unsigned k = 1760;
};

/** Convolution pass, as in DeepBench training. */
enum class ConvPhase
{
    kFwd,        ///< forward
    kBwdFilter,  ///< backward w.r.t. weights
    kBwdData,    ///< backward w.r.t. input
};

/** Convolution problem shape (simplified NCHW). */
struct ConvConfig
{
    unsigned width = 112;
    unsigned height = 112;
    unsigned channels = 64;
    unsigned filters = 128;
    unsigned kernel = 3;  ///< filter size (kernel x kernel)
};

/** Trace length used for each HPC kernel configuration. */
inline constexpr std::uint64_t kHpcTraceInstrs = 300'000;

/**
 * Stream an sgemm kernel for @p target. Like every kernel trace it runs
 * whole loop iterations, ending with the one that reaches @p num_instrs.
 */
std::unique_ptr<TraceSource> makeSgemmTrace(const SgemmConfig &cfg,
                                            const HpcTarget &target,
                                            std::uint64_t num_instrs =
                                                kHpcTraceInstrs,
                                            std::uint64_t seed = 42);

/** Stream a convolution kernel for @p target. */
std::unique_ptr<TraceSource> makeConvTrace(const ConvConfig &cfg,
                                           ConvPhase phase,
                                           const HpcTarget &target,
                                           std::uint64_t num_instrs =
                                               kHpcTraceInstrs,
                                           std::uint64_t seed = 42);

/**
 * One DeepBench-style benchmark configuration: a kernel shape plus the
 * benchmark group it reports under (Fig. 4 averages per group).
 */
struct HpcBenchmark
{
    std::string name;
    std::string group;  ///< sgemm_train | sgemm_inf | conv_fwd | conv_bwd_f | conv_bwd_d

    bool is_sgemm = true;
    SgemmConfig sgemm{};
    ConvConfig conv{};
    ConvPhase conv_phase = ConvPhase::kFwd;

    /** Stream the kernel, JITed for @p target. */
    std::unique_ptr<TraceSource> make(const HpcTarget &target,
                                      std::uint64_t num_instrs =
                                          kHpcTraceInstrs) const;
};

/**
 * The full DeepBench-inspired suite: sgemm training and inference shapes
 * plus convolution shapes in all three phases (paper §IV simulates 235
 * sgemm and 3x94 conv configurations; we use a representative subset, see
 * DESIGN.md "Substitutions").
 */
const std::vector<HpcBenchmark> &deepBenchSuite();

}  // namespace stackscope::trace

#endif  // STACKSCOPE_TRACE_HPC_KERNELS_HPP
