#include "trace/synthetic_generator.hpp"

#include <algorithm>
#include <cassert>

namespace stackscope::trace {

namespace {

/** Base of the synthetic code address space. */
constexpr Addr kCodeBase = 0x00400000;
/** Base of the synthetic data address space. */
constexpr Addr kDataBase = 0x10000000;

/** Stateless 64-bit mix, used to derive per-PC static code properties. */
std::uint64_t
hashAddr(Addr x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

}  // namespace

SyntheticGenerator::SyntheticGenerator(const SyntheticParams &params)
    : params_(params)
{
    assert(params_.dep_window <= kMaxDepDistance);
    assert(params_.dep_window >= 1);
    assert(params_.code_footprint >= 64);
    assert(params_.data_footprint >= 64);
    assert(params_.hot_bytes >= 64);
    assert(params_.function_bytes >= 256);

    mix_classes_ = {InstrClass::kAlu,    InstrClass::kAluMul,
                    InstrClass::kAluDiv, InstrClass::kLoad,
                    InstrClass::kStore,  InstrClass::kBranch,
                    InstrClass::kFpAdd,  InstrClass::kFpMul,
                    InstrClass::kFpDiv,  InstrClass::kVecFma,
                    InstrClass::kVecAdd, InstrClass::kVecInt};
    const std::array<double, 12> weights = {
        params_.w_alu,     params_.w_mul,     params_.w_div,
        params_.w_load,    params_.w_store,   params_.w_branch,
        params_.w_fp_add,  params_.w_fp_mul,  params_.w_fp_div,
        params_.w_vec_fma, params_.w_vec_add, params_.w_vec_int};
    double total = 0.0;
    for (double w : weights)
        total += w;
    assert(total > 0.0);
    double acc = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        acc += weights[i] / total;
        mix_cumulative_[i] = acc;
    }
    mix_cumulative_.back() = 1.0;

    // One byte per 4-byte code slot (every generated PC is 4-aligned);
    // filled lazily as PCs are first visited. Intra-function jumps can
    // land past a footprint that is not a whole number of functions, so
    // cover the footprint rounded up to a full function.
    const std::uint64_t reach =
        (params_.code_footprint + params_.function_bytes - 1) /
        params_.function_bytes * params_.function_bytes;
    code_cache_.reset(new std::atomic<std::uint8_t>[reach / 4]());

    reseed();
}

void
SyntheticGenerator::reseed()
{
    Rng master(params_.seed);
    rng_class_ = master.fork();
    rng_dep_ = master.fork();
    rng_mem_ = master.fork();
    rng_branch_ = master.fork();
    rng_misc_ = master.fork();
    index_ = 0;
    pc_ = kCodeBase;
    stream_addr_ = kDataBase;
    chase_producer_ = kNoSeq;
    last_load_index_ = kNoSeq;
    last_mul_index_ = kNoSeq;
    recent_stores_.fill(kDataBase);
    recent_store_count_ = 0;
}

void
SyntheticGenerator::reset()
{
    reseed();
}

std::unique_ptr<TraceSource>
SyntheticGenerator::clone() const
{
    // The copy shares the code table; only the stream state restarts.
    auto copy = std::make_unique<SyntheticGenerator>(*this);
    copy->reseed();
    return copy;
}

InstrClass
SyntheticGenerator::classAt(Addr pc) const
{
    // Code is static: the opcode at an address never changes, which gives
    // the branch predictor and the icache realistic per-PC statistics.
    const std::uint64_t h = hashAddr(pc ^ (params_.seed << 1));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    for (std::size_t i = 0; i < mix_cumulative_.size(); ++i) {
        if (u < mix_cumulative_[i])
            return mix_classes_[i];
    }
    return InstrClass::kAlu;
}

std::uint8_t
SyntheticGenerator::staticCodeAt(Addr pc)
{
    // Everything derived purely from the address (opcode class, microcode
    // flag, branch bias) is computed once per PC and cached; the hot path
    // is a single byte load instead of two hashes and a distribution walk.
    std::atomic<std::uint8_t> &slot = code_cache_[(pc - kCodeBase) >> 2];
    std::uint8_t sc = slot.load(std::memory_order_relaxed);
    if (sc != 0)
        return sc;

    const InstrClass cls = classAt(pc);
    sc = kScValid | static_cast<std::uint8_t>(cls);

    if (cls == InstrClass::kBranch) {
        const std::uint64_t h = hashAddr(pc);
        if ((h >> 8) % 10000 <
            static_cast<std::uint64_t>(params_.branch_random_frac * 10000.0))
            sc |= kScBrRandom;
        if ((h & 1) != 0)
            sc |= kScBrBias;
    }

    const bool microcodable = cls == InstrClass::kAlu ||
                              cls == InstrClass::kAluMul ||
                              cls == InstrClass::kFpAdd ||
                              cls == InstrClass::kFpMul ||
                              cls == InstrClass::kVecInt;
    if (microcodable && params_.microcoded_frac > 0.0) {
        const std::uint64_t h = hashAddr(pc ^ 0x5ca1ab1eULL);
        if ((h >> 16) % 10000 <
            static_cast<std::uint64_t>(params_.microcoded_frac * 10000.0))
            sc |= kScMicro;
    }

    slot.store(sc, std::memory_order_relaxed);
    return sc;
}

void
SyntheticGenerator::fillDeps(DynInstr &instr)
{
    if (index_ == 0)
        return;
    const std::uint64_t window =
        std::min<std::uint64_t>(params_.dep_window, index_);

    auto add_src = [&](std::uint64_t producer) {
        if (instr.num_srcs < kMaxSrcs)
            instr.src[instr.num_srcs++] = producer;
    };

    if (instr.cls == InstrClass::kBranch) {
        // Data-dependent branches compare a recently loaded value; other
        // branches consume a shallow flag/compare chain.
        if (last_load_index_ != kNoSeq &&
            index_ - last_load_index_ <= window &&
            rng_dep_.chance(params_.branch_dep_load_frac)) {
            add_src(last_load_index_);
        } else if (rng_dep_.chance(0.5)) {
            add_src(index_ - 1);
        }
        return;
    }

    if (rng_dep_.chance(params_.chain_frac)) {
        add_src(index_ - 1);
    } else if (rng_dep_.chance(params_.far_dep_frac)) {
        add_src(index_ - rng_dep_.range(1, window));
    }
    if (rng_dep_.chance(params_.second_src_frac))
        add_src(index_ - rng_dep_.range(1, window));
}

Addr
SyntheticGenerator::pickLoadAddr(DynInstr &instr)
{
    const double roll = rng_mem_.uniform();
    if (roll < params_.pointer_chase_frac) {
        // Pointer chase: serially dependent loads to random locations.
        if (chase_producer_ != kNoSeq && instr.num_srcs < kMaxSrcs &&
            index_ - chase_producer_ <= kMaxDepDistance) {
            instr.src[instr.num_srcs++] = chase_producer_;
        }
        chase_producer_ = index_;
        return kDataBase + (rng_mem_.next() % params_.data_footprint) / 8 * 8;
    }
    if (roll < params_.pointer_chase_frac + params_.stream_frac) {
        // Sequential streaming: friendly to the stride prefetcher.
        stream_addr_ += params_.stream_stride;
        if (stream_addr_ >= kDataBase + params_.data_footprint)
            stream_addr_ = kDataBase;
        return stream_addr_;
    }
    if (recent_store_count_ > 0 &&
        rng_mem_.chance(params_.store_load_conflict_frac)) {
        // Alias a recent store: provokes issue-stage load-store conflicts.
        return recent_stores_[rng_mem_.below(
            std::min<std::uint64_t>(recent_store_count_, kRecentStores))];
    }
    if (rng_mem_.chance(params_.hot_frac)) {
        // Cache-resident hot working set.
        return kDataBase + (rng_mem_.next() % params_.hot_bytes) / 8 * 8;
    }
    return kDataBase + (rng_mem_.next() % params_.data_footprint) / 8 * 8;
}

Addr
SyntheticGenerator::pickStoreAddr()
{
    Addr addr;
    if (params_.stream_frac > 0.0 && rng_mem_.chance(params_.stream_frac)) {
        // Stores share the streaming pattern (one page ahead of the loads).
        addr = stream_addr_ + 4096;
    } else if (rng_mem_.chance(params_.hot_frac)) {
        addr = kDataBase + (rng_mem_.next() % params_.hot_bytes) / 8 * 8;
    } else {
        addr = kDataBase + (rng_mem_.next() % params_.data_footprint) / 8 * 8;
    }
    recent_stores_[recent_store_count_ % kRecentStores] = addr;
    ++recent_store_count_;
    return addr;
}

void
SyntheticGenerator::advancePc(DynInstr &instr, std::uint8_t sc)
{
    instr.pc = pc_;
    if (instr.cls == InstrClass::kBranch) {
        // Static branch behaviour is a pure function of the branch PC, so
        // the branch predictor sees stable per-PC statistics.
        const bool is_random = sc & kScBrRandom;
        const bool bias_taken = sc & kScBrBias;
        if (is_random) {
            instr.branch_taken = rng_branch_.chance(0.5);
        } else {
            const double p =
                bias_taken ? params_.branch_bias : 1.0 - params_.branch_bias;
            instr.branch_taken = rng_branch_.chance(p);
        }
        if (instr.branch_taken) {
            if (rng_branch_.chance(params_.call_frac)) {
                // Call / long jump: land at the start of a random function.
                const std::uint64_t functions =
                    std::max<std::uint64_t>(1, params_.code_footprint /
                                                   params_.function_bytes);
                pc_ = kCodeBase +
                      rng_branch_.below(functions) * params_.function_bytes;
            } else if (rng_branch_.chance(0.8)) {
                // Loop back-edge: short backward jump, revisiting the same
                // icache lines.
                const Addr back =
                    std::min<Addr>(pc_ - kCodeBase,
                                   rng_branch_.range(16, 384) & ~Addr{3});
                pc_ -= back;
            } else {
                // Intra-function jump: anywhere in the current function.
                const Addr func_base =
                    kCodeBase + (pc_ - kCodeBase) / params_.function_bytes *
                                    params_.function_bytes;
                pc_ = func_base +
                      rng_branch_.below(params_.function_bytes / 4) * 4;
            }
            return;
        }
    }
    pc_ += 4;
    if (pc_ >= kCodeBase + params_.code_footprint)
        pc_ = kCodeBase;
}

bool
SyntheticGenerator::next(DynInstr &out)
{
    if (index_ >= params_.num_instrs)
        return false;

    out = DynInstr{};

    if (params_.yield_every != 0 &&
        index_ % params_.yield_every == params_.yield_every - 1) {
        out.cls = InstrClass::kYield;
        out.yield_cycles = params_.yield_cycles;
        out.pc = pc_;
        ++index_;
        return true;
    }

    const std::uint8_t sc = staticCodeAt(pc_);
    out.cls = static_cast<InstrClass>(sc & kScClassMask);
    fillDeps(out);
    if (out.cls == InstrClass::kAluMul) {
        // Accumulator recurrence: chain onto the previous multiply.
        if (last_mul_index_ != kNoSeq && out.num_srcs < kMaxSrcs &&
            index_ - last_mul_index_ <=
                std::min<std::uint64_t>(params_.dep_window, index_) &&
            rng_dep_.chance(params_.mul_chain_frac)) {
            out.src[out.num_srcs++] = last_mul_index_;
        }
        last_mul_index_ = index_;
    }

    switch (out.cls) {
      case InstrClass::kLoad:
        out.mem_addr = pickLoadAddr(out);
        last_load_index_ = index_;
        break;
      case InstrClass::kStore:
        out.mem_addr = pickStoreAddr();
        break;
      case InstrClass::kVecFma:
      case InstrClass::kVecAdd:
      case InstrClass::kVecInt:
        out.active_lanes = static_cast<std::uint8_t>(params_.vec_lanes);
        if (params_.vec_mask_frac > 0.0 &&
            rng_misc_.chance(params_.vec_mask_frac)) {
            out.active_lanes = static_cast<std::uint8_t>(
                rng_misc_.range(1, std::max(1u, params_.vec_lanes - 1)));
        }
        break;
      default:
        break;
    }

    // Microcoded instructions are static code properties too.
    if (sc & kScMicro) {
        out.decode_cycles =
            static_cast<std::uint8_t>(params_.microcode_decode_cycles);
    }

    advancePc(out, sc);
    ++index_;
    return true;
}

}  // namespace stackscope::trace
