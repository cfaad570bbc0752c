/**
 * @file
 * Parameterized synthetic instruction-stream generator.
 *
 * Replaces the SPEC CPU 2017 traces of the paper's evaluation (§IV) with
 * deterministic streams whose bottleneck structure is controllable:
 * instruction mix, dependence distance distribution, code and data
 * footprints, branch predictability, pointer chasing, streaming, microcode
 * density and synchronization yields. The workload library
 * (trace/workload_library.hpp) instantiates presets mimicking the paper's
 * named benchmarks. A generator streams in O(1) memory apart from its
 * static-code table, which it shares with all its clones.
 */

#ifndef STACKSCOPE_TRACE_SYNTHETIC_GENERATOR_HPP
#define STACKSCOPE_TRACE_SYNTHETIC_GENERATOR_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>

#include "common/rng.hpp"
#include "trace/trace_source.hpp"

namespace stackscope::trace {

/**
 * Generator knobs. All probabilities in [0, 1]; instruction-mix weights are
 * normalized internally.
 */
struct SyntheticParams
{
    /** Trace length in correct-path uops. */
    std::uint64_t num_instrs = 1'000'000;

    /** Master seed; the full stream is a pure function of params + seed. */
    std::uint64_t seed = 1;

    /** @name Instruction mix weights @{ */
    double w_alu = 0.50;      ///< single-cycle integer
    double w_mul = 0.02;      ///< multi-cycle integer multiply
    double w_div = 0.00;      ///< long-latency divide
    double w_load = 0.25;
    double w_store = 0.08;
    double w_branch = 0.15;
    double w_fp_add = 0.0;
    double w_fp_mul = 0.0;
    double w_fp_div = 0.0;
    double w_vec_fma = 0.0;
    double w_vec_add = 0.0;
    double w_vec_int = 0.0;
    /** @} */

    /** Fraction of non-memory compute ops that are microcoded. */
    double microcoded_frac = 0.0;
    /** Decoder occupancy of a microcoded op. */
    unsigned microcode_decode_cycles = 4;

    /** @name Dependence behaviour @{ */
    /** Probability of depending on the immediately preceding uop. */
    double chain_frac = 0.30;
    /** Probability of a uniform-random producer within dep_window. */
    double far_dep_frac = 0.40;
    /** Window (in uops) for far dependences; must be <= kMaxDepDistance. */
    unsigned dep_window = 32;
    /** Probability of a second source operand. */
    double second_src_frac = 0.20;
    /**
     * Fraction of multi-cycle ALU ops that chain onto the previous one
     * (accumulator recurrences). Exposed as the "ALU lat" component when
     * cache misses are idealized away (paper Table I, mcf on KNL).
     */
    double mul_chain_frac = 0.3;
    /**
     * Fraction of branches that compare a recently loaded value
     * (data-dependent branches). When such a load misses, the branch
     * resolves late — this is what makes bpred and Dcache penalties
     * overlap (paper Table I, mcf on BDW).
     */
    double branch_dep_load_frac = 0.15;
    /** @} */

    /** @name Data memory behaviour @{ */
    std::uint64_t data_footprint = 1 << 20;  ///< bytes of cold data
    /**
     * Fraction of plain loads that hit a small hot region (cache-resident
     * working set); the rest are uniform over the cold footprint.
     */
    double hot_frac = 0.85;
    std::uint64_t hot_bytes = 16 << 10;
    /** Fraction of loads that stream sequentially (prefetcher-friendly). */
    double stream_frac = 0.0;
    unsigned stream_stride = 64;
    /** Fraction of loads forming a pointer-chase chain over the cold
     *  footprint (serialized misses). */
    double pointer_chase_frac = 0.0;
    /** Fraction of loads aliasing a recent store (issue-stage conflicts). */
    double store_load_conflict_frac = 0.0;
    /** @} */

    /** @name Code / icache behaviour @{ */
    /**
     * Bytes of distinct code. The instruction at each address is a pure
     * function of the address (real code is static), so branch predictor
     * tables and the instruction cache see realistic per-PC behaviour.
     */
    std::uint64_t code_footprint = 16 << 10;
    /** Size of one "function": taken branches mostly stay inside it. */
    std::uint64_t function_bytes = 4 << 10;
    /** Fraction of taken branches that call a random other function. */
    double call_frac = 0.06;
    /** @} */

    /** @name Branch behaviour @{ */
    /** Fraction of *static* branches with a random (unpredictable) outcome. */
    double branch_random_frac = 0.0;
    /** Taken-probability of the remaining (biased, predictable) branches. */
    double branch_bias = 0.92;
    /** @} */

    /** @name Vector behaviour @{ */
    unsigned vec_lanes = 8;        ///< active lanes of unmasked vector ops
    double vec_mask_frac = 0.0;    ///< fraction of vector ops partially masked
    /** @} */

    /** @name Synchronization @{ */
    std::uint64_t yield_every = 0;  ///< uops between yields (0 = never)
    std::uint32_t yield_cycles = 0;
    /** @} */
};

/**
 * Streaming trace source realizing SyntheticParams. O(1) memory per
 * stream; reset() and clone() reproduce the identical stream. A generator
 * and all its clones share one lazily filled static-code table, so clone()
 * copies the fixed-size stream state and allocates no table, and the
 * clones may be drained on different threads at once.
 */
class SyntheticGenerator : public TraceSource
{
  public:
    explicit SyntheticGenerator(const SyntheticParams &params);

    bool next(DynInstr &out) override;
    void reset() override;
    std::unique_ptr<TraceSource> clone() const override;

    const SyntheticParams &params() const { return params_; }

  private:
    /** @name Packed static code properties (one byte per PC) @{ */
    static constexpr std::uint8_t kScValid = 0x80;     ///< entry computed
    static constexpr std::uint8_t kScClassMask = 0x0f; ///< InstrClass value
    static constexpr std::uint8_t kScMicro = 0x10;     ///< microcoded op
    static constexpr std::uint8_t kScBrRandom = 0x20;  ///< random-outcome br
    static constexpr std::uint8_t kScBrBias = 0x40;    ///< biased-taken br
    /** @} */

    void reseed();
    InstrClass classAt(Addr pc) const;
    std::uint8_t staticCodeAt(Addr pc);
    void fillDeps(DynInstr &instr);
    Addr pickLoadAddr(DynInstr &instr);
    Addr pickStoreAddr();
    void advancePc(DynInstr &instr, std::uint8_t sc);

    SyntheticParams params_;

    // Derived, fixed after construction: cumulative mix distribution.
    std::array<double, 12> mix_cumulative_{};
    std::array<InstrClass, 12> mix_classes_{};

    /**
     * Lazily filled per-PC cache of the static code properties (opcode
     * class, microcode flag, branch bias) that are pure functions of
     * params + seed + address. One byte per 4-byte code slot; 0 means
     * "not computed yet". Survives reset() — the code image is static.
     * Shared with every clone: clones filling the same byte on different
     * threads store the same value, so relaxed atomics suffice.
     */
    std::shared_ptr<std::atomic<std::uint8_t>[]> code_cache_;

    // Per-stream state (reset() restores).
    Rng rng_class_{0};
    Rng rng_dep_{0};
    Rng rng_mem_{0};
    Rng rng_branch_{0};
    Rng rng_misc_{0};
    std::uint64_t index_ = 0;
    Addr pc_ = 0;
    Addr stream_addr_ = 0;
    std::uint64_t chase_producer_ = kNoSeq;  ///< index of last chase load
    std::uint64_t last_load_index_ = kNoSeq;
    std::uint64_t last_mul_index_ = kNoSeq;
    static constexpr unsigned kRecentStores = 8;
    std::array<Addr, kRecentStores> recent_stores_{};
    unsigned recent_store_count_ = 0;
};

}  // namespace stackscope::trace

#endif  // STACKSCOPE_TRACE_SYNTHETIC_GENERATOR_HPP
