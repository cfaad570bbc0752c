#include "trace/hpc_kernels.hpp"

#include <algorithm>
#include <array>

#include "common/rng.hpp"
#include "trace/trace_builder.hpp"

namespace stackscope::trace {

namespace {

/** Loop body PC: every iteration reuses the same code (icache-resident). */
constexpr Addr kLoopPc = 0x00401000;
/** Base of the B-tile / weight-tile address region (cache resident). */
constexpr Addr kTileBase = 0x20000000;
/** Base of the large input/activation region (streams, misses). */
constexpr Addr kStreamBase = 0x40000000;
/** Base of the output/gradient store region. */
constexpr Addr kStoreBase = 0x60000000;

/** Most accumulator chains any kernel keeps (accumulatorCount's bound). */
constexpr unsigned kMaxAccumulators = 8;

/**
 * Register blocking: number of independent accumulator chains in the inner
 * loop. GEMM kernels block the n dimension over accumulators, so tiny
 * inference batches leave fewer independent chains (more dependence
 * stalls); 8 is a typical upper bound given 32 architectural vector regs.
 */
unsigned
accumulatorCount(unsigned n)
{
    return std::clamp(n, 1u, kMaxAccumulators);
}

/**
 * What every kernel loop carries across iterations: its accumulator
 * chains and the iteration count. Vectorization runs along a dimension of
 * `extent` elements, and the last block of each strip is masked to
 * extent % lanes lanes.
 *
 * A kernel derives from it and adds iterate(), which emits one loop
 * iteration. It is a copyable value that KernelSource streams.
 */
class KernelLoop
{
  public:
    /** Accumulator initialization ahead of the loop. */
    void
    begin(TraceBuilder &b)
    {
        b.at(kLoopPc - 0x100);
        for (unsigned u = 0; u < acc_count_; ++u)
            acc_[u] = b.vadd(lanes_);
    }

  protected:
    KernelLoop(unsigned extent, unsigned lanes, unsigned acc_count)
        : lanes_(lanes), tail_lanes_(extent % lanes),
          mask_period_(tail_lanes_ == 0 ? 0 : (extent + lanes - 1) / lanes),
          acc_count_(acc_count)
    {
    }

    /** Active lanes in the current iteration. */
    unsigned
    activeLanes() const
    {
        const bool masked =
            mask_period_ != 0 && it_ % mask_period_ == mask_period_ - 1;
        return masked ? tail_lanes_ : lanes_;
    }

    unsigned lanes_;
    unsigned tail_lanes_;
    /** One iteration in every mask_period_ is masked (0: none is). */
    unsigned mask_period_;
    unsigned acc_count_;
    std::array<InstrHandle, kMaxAccumulators> acc_{};
    std::uint64_t it_ = 0;
};

class SgemmKnlJit : public KernelLoop
{
  public:
    SgemmKnlJit(const SgemmConfig &cfg, unsigned lanes)
        : KernelLoop(cfg.m, lanes, accumulatorCount(cfg.n))
    {
    }

    void
    iterate(TraceBuilder &b)
    {
        // KNL MKL JIT idiom: FMA with memory operand = load uop + FMA uop;
        // the FMA waits on its own L1-resident load every time (paper
        // §V-B).
        constexpr std::uint64_t tile_bytes = 16 << 10;  // L1-resident B tile
        b.at(kLoopPc);
        const unsigned m_lanes = activeLanes();
        for (unsigned u = 0; u < acc_count_; ++u) {
            const Addr addr =
                kTileBase + ((it_ * acc_count_ + u) * 64) % tile_bytes;
            auto ld = b.load(addr);
            acc_[u] = b.vfma(m_lanes, {ld, acc_[u]});
        }
        auto ptr = b.alu();
        b.branch(true, {ptr});
        ++it_;
    }
};

class SgemmSkxBroadcast : public KernelLoop
{
  public:
    SgemmSkxBroadcast(const SgemmConfig &cfg, unsigned lanes)
        : KernelLoop(cfg.m, lanes, std::min(accumulatorCount(cfg.n), 5u))
    {
    }

    void
    iterate(TraceBuilder &b)
    {
        // SKX MKL idiom: load an A element, broadcast it across an AVX512
        // register, load the B panel row, and feed register-register FMAs
        // from the broadcast; pointer arithmetic and the loop branch fill
        // the rest of the 4-wide pipeline. The FMA fraction lands just
        // below 50% of uops and the accumulator count below FMA-latency x
        // VPUs, so the kernel is dependence-bound through the
        // broadcast/accumulator chains (paper §V-B: larger dependence
        // component instead of memory).
        constexpr std::uint64_t a_bytes = 24 << 10;
        constexpr std::uint64_t b_bytes = 16 << 10;
        b.at(kLoopPc);
        const unsigned m_lanes = activeLanes();

        auto ld_a = b.load(kTileBase + (it_ * 4) % a_bytes);
        auto bc = b.vbroadcast({ld_a});
        auto ld_b = b.load(kTileBase + a_bytes + (it_ * 64) % b_bytes);
        for (unsigned u = 0; u < acc_count_; ++u)
            acc_[u] = b.vfma(m_lanes, {bc, ld_b, acc_[u]});
        auto p1 = b.alu();
        auto p2 = b.alu({p1});
        b.branch(true, {p2});
        ++it_;
    }
};

class Conv : public KernelLoop
{
  public:
    Conv(const ConvConfig &cfg, ConvPhase phase, unsigned lanes,
         std::uint64_t seed, bool dual_operand_loads)
        : KernelLoop(cfg.width, lanes, phase == ConvPhase::kFwd ? 4 : 3),
          phase_(phase), dual_operand_loads_(dual_operand_loads),
          // Input activations: footprint scales with the layer shape,
          // clamped so small layers are cache-resident and large ones
          // stream. Cache blocking keeps the streamed activations within
          // the L2/L3 neighbourhood; misses are frequent enough to matter
          // for FLOPS but cheap enough that IPC stays near ideal (Fig. 5).
          in_bytes_(std::clamp<std::uint64_t>(
              std::uint64_t{cfg.width} * cfg.height * cfg.channels,
              384 << 10, 1 << 20)),
          // Weight tiles are register/L1-blocked by the JIT kernels.
          w_bytes_(std::clamp<std::uint64_t>(
              std::uint64_t{cfg.filters} * cfg.channels * cfg.kernel *
                  cfg.kernel * 4 / 512,
              4 << 10, 8 << 10)),
          // The blocked kernels have few cache misses (paper §V-B: IPC is
          // near-ideal); only a small streaming component reaches the
          // uncore. Backward phases walk the data with somewhat worse
          // locality.
          stream_frac_(phase == ConvPhase::kFwd         ? 0.06
                       : phase == ConvPhase::kBwdFilter ? 0.08
                                                        : 0.10),
          rng_(seed)
    {
        rng_addr_ = rng_.fork();
    }

    void
    iterate(TraceBuilder &b)
    {
        // MKL-DNN-style convolution inner loop: address arithmetic (im2col
        // style indexing), input loads with a streaming component that
        // misses the caches, weight loads from a resident tile, and FMAs
        // with memory operands (35% FMA fraction, each paired with a load
        // - the Fig. 5 instruction mix), plus periodic barrier yields.
        if (b.size() >= next_yield_) {
            // Barrier synchronization between tiles ("Unsched", Fig. 5).
            b.yield(600);
            next_yield_ += 40'000;
        }
        if (it_ % 384 == 383) {
            // im2col / tensor-copy section: pure integer and memory work,
            // no vector FP at all, long enough that the out-of-order
            // window drains its VFP work. These sections are why the
            // FLOPS stack shows a "frontend" component (no VFP
            // instructions available) that the CPI stack cannot see
            // (paper Fig. 4/5).
            b.at(kLoopPc + 0x400);
            for (unsigned j = 0; j < 336; ++j) {
                auto idx = b.alu();
                // The copy walks small L1-resident buffers: the point
                // of the section is the absence of VFP work, not cache
                // pressure.
                auto src = b.load(
                    kTileBase + (2 << 20) + ((it_ + j) * 64) % (4 << 10),
                    {idx});
                b.store(kTileBase + (3 << 20) + ((it_ + j) * 64) % (4 << 10),
                        {src});
            }
        }
        b.at(kLoopPc);
        const unsigned m_lanes = activeLanes();

        auto i1 = b.alu();
        auto i2 = b.alu({i1});
        auto i3 = b.alu();
        (void)i3;
        if (rng_.chance(0.3))
            b.vint({i2});
        for (unsigned u = 0; u < acc_count_; ++u) {
            // Each FMA reads an activation and a weight value from memory
            // (memory-operand FMA plus a weight load): the load ports
            // become the binding resource, so FMAs genuinely wait on
            // their loads — the "memory" component of the FLOPS stack
            // (Fig. 5) even without cache misses.
            Addr act_addr;
            if (rng_addr_.chance(stream_frac_)) {
                stream_addr_ += 64;
                if (stream_addr_ >= kStreamBase + in_bytes_)
                    stream_addr_ = kStreamBase;
                act_addr = stream_addr_;
            } else {
                // Reuse-heavy input tile (L1-resident blocking).
                act_addr = kTileBase + rng_addr_.below(12 << 10) / 64 * 64;
            }
            auto ld_act = b.load(act_addr, {i2});
            if (dual_operand_loads_) {
                // SKX-style: the weight panel is reloaded every step too.
                auto ld_w =
                    b.load(kTileBase + (1 << 20) + rng_addr_.below(w_bytes_));
                // Right after an im2col section the accumulator was last
                // written more than kMaxDepDistance uops back. No ROB
                // holds that many uops, so that write has retired and the
                // FMA does not name it.
                acc_[u] = b.size() - acc_[u].index <= kMaxDepDistance
                              ? b.vfma(m_lanes, {ld_act, ld_w, acc_[u]})
                              : b.vfma(m_lanes, {ld_act, ld_w});
            } else {
                // KNL-style register blocking keeps weights resident.
                acc_[u] = b.vfma(m_lanes, {ld_act, acc_[u]});
            }
        }
        if (phase_ != ConvPhase::kFwd) {
            b.store(kStoreBase + (it_ * 64) % (4 << 20), {acc_[0]});
            if (phase_ == ConvPhase::kBwdData)
                b.store(kStoreBase + (it_ * 192 + 64) % (8 << 20),
                        {acc_[1 % acc_count_]});
        }
        auto ptr = b.alu();
        b.branch(true, {ptr});
        ++it_;
    }

  private:
    ConvPhase phase_;
    bool dual_operand_loads_;
    std::uint64_t in_bytes_;
    std::uint64_t w_bytes_;
    double stream_frac_;
    Rng rng_;
    Rng rng_addr_;
    Addr stream_addr_ = kStreamBase;
    std::uint64_t next_yield_ = 40'000;
};

/**
 * Streams a kernel one loop iteration at a time through a TraceBuilder
 * that holds only the current iteration (about 1,030 uops at most: an
 * im2col section plus one conv loop body). The stream ends after the
 * iteration that reaches num_instrs, so it may overshoot by up to one
 * iteration. reset() and clone() restart from a copy of the kernel's
 * initial state.
 */
template <class Kernel>
class KernelSource final : public TraceSource
{
  public:
    KernelSource(const Kernel &kernel, std::uint64_t num_instrs)
        : start_(kernel), kernel_(kernel), num_instrs_(num_instrs)
    {
        kernel_.begin(b_);
    }

    bool
    next(DynInstr &out) override
    {
        if (pos_ == b_.pending().size()) {
            if (b_.size() >= num_instrs_)
                return false;
            b_.clearPending();
            pos_ = 0;
            kernel_.iterate(b_);
        }
        out = b_.pending()[pos_++];
        return true;
    }

    void
    reset() override
    {
        kernel_ = start_;
        b_ = TraceBuilder();
        pos_ = 0;
        kernel_.begin(b_);
    }

    std::unique_ptr<TraceSource>
    clone() const override
    {
        return std::make_unique<KernelSource>(start_, num_instrs_);
    }

  private:
    Kernel start_;
    Kernel kernel_;
    std::uint64_t num_instrs_;
    TraceBuilder b_;
    std::size_t pos_ = 0;
};

template <class Kernel>
std::unique_ptr<TraceSource>
stream(const Kernel &kernel, std::uint64_t num_instrs)
{
    return std::make_unique<KernelSource<Kernel>>(kernel, num_instrs);
}

std::vector<HpcBenchmark>
buildSuite()
{
    std::vector<HpcBenchmark> suite;

    const SgemmConfig train_cfgs[] = {
        {1760, 128, 1760}, {1760, 64, 1760}, {2048, 128, 2048},
        {2560, 128, 2560}, {4096, 64, 4096}, {1024, 128, 1024},
        {2048, 32, 2048},  {2560, 64, 2560},
    };
    for (std::size_t i = 0; i < std::size(train_cfgs); ++i) {
        HpcBenchmark bm;
        bm.name = "sgemm_train_" + std::to_string(i);
        bm.group = "sgemm_train";
        bm.is_sgemm = true;
        bm.sgemm = train_cfgs[i];
        suite.push_back(bm);
    }

    const SgemmConfig inf_cfgs[] = {
        {1760, 1, 1760}, {1760, 2, 1760}, {2048, 4, 2048}, {2560, 2, 2560},
        {4096, 4, 4096}, {1024, 8, 1024}, {2048, 1, 2048}, {1760, 4, 1760},
    };
    for (std::size_t i = 0; i < std::size(inf_cfgs); ++i) {
        HpcBenchmark bm;
        bm.name = "sgemm_inf_" + std::to_string(i);
        bm.group = "sgemm_inf";
        bm.is_sgemm = true;
        bm.sgemm = inf_cfgs[i];
        suite.push_back(bm);
    }

    const ConvConfig conv_cfgs[] = {
        {112, 112, 64, 128, 3}, {56, 56, 128, 256, 3}, {28, 28, 256, 512, 3},
        {14, 14, 512, 512, 3},  {7, 7, 512, 512, 3},   {224, 224, 3, 64, 7},
        {56, 56, 64, 64, 1},    {28, 28, 128, 128, 3}, {112, 112, 32, 64, 5},
        {14, 14, 256, 256, 3},
    };
    const struct { ConvPhase phase; const char *group; } phases[] = {
        {ConvPhase::kFwd, "conv_fwd"},
        {ConvPhase::kBwdFilter, "conv_bwd_f"},
        {ConvPhase::kBwdData, "conv_bwd_d"},
    };
    for (const auto &[phase, group] : phases) {
        for (std::size_t i = 0; i < std::size(conv_cfgs); ++i) {
            HpcBenchmark bm;
            bm.name = std::string(group) + "_" + std::to_string(i);
            bm.group = group;
            bm.is_sgemm = false;
            bm.conv = conv_cfgs[i];
            bm.conv_phase = phase;
            suite.push_back(bm);
        }
    }
    return suite;
}

}  // namespace

std::unique_ptr<TraceSource>
makeSgemmTrace(const SgemmConfig &cfg, const HpcTarget &target,
               std::uint64_t num_instrs, std::uint64_t seed)
{
    (void)seed;  // sgemm streams are fully deterministic from the shape
    if (target.sgemm_style == SgemmCodegen::kKnlJit)
        return stream(SgemmKnlJit(cfg, target.vec_lanes), num_instrs);
    return stream(SgemmSkxBroadcast(cfg, target.vec_lanes), num_instrs);
}

std::unique_ptr<TraceSource>
makeConvTrace(const ConvConfig &cfg, ConvPhase phase, const HpcTarget &target,
              std::uint64_t num_instrs, std::uint64_t seed)
{
    return stream(Conv(cfg, phase, target.vec_lanes, seed,
                       target.sgemm_style == SgemmCodegen::kSkxBroadcast),
                  num_instrs);
}

std::unique_ptr<TraceSource>
HpcBenchmark::make(const HpcTarget &target, std::uint64_t num_instrs) const
{
    if (is_sgemm)
        return makeSgemmTrace(sgemm, target, num_instrs);
    return makeConvTrace(conv, conv_phase, target, num_instrs);
}

const std::vector<HpcBenchmark> &
deepBenchSuite()
{
    static const std::vector<HpcBenchmark> suite = buildSuite();
    return suite;
}

}  // namespace stackscope::trace
