/**
 * @file
 * Programmatic trace construction: a fluent builder and an in-memory
 * replayable trace. Used by unit tests to construct precise pipeline
 * scenarios and by users to analyze hand-written kernels. The HPC kernels
 * (trace/hpc_kernels.hpp) emit through the same builder one loop iteration
 * at a time and stream; they never build a whole trace.
 */

#ifndef STACKSCOPE_TRACE_TRACE_BUILDER_HPP
#define STACKSCOPE_TRACE_TRACE_BUILDER_HPP

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "trace/trace_source.hpp"

namespace stackscope::trace {

/**
 * A trace held in memory as a vector of instructions: what build() returns
 * for hand-written traces and tests.
 *
 * Cloning is cheap: the instruction vector is shared (immutably) between
 * clones, so homogeneous multi-core runs do not duplicate the trace.
 */
class VectorTraceSource : public TraceSource
{
  public:
    explicit VectorTraceSource(std::vector<DynInstr> instrs);
    explicit VectorTraceSource(
        std::shared_ptr<const std::vector<DynInstr>> instrs);

    bool next(DynInstr &out) override;
    void reset() override;
    std::unique_ptr<TraceSource> clone() const override;

    /** Number of instructions in the trace. */
    std::uint64_t size() const { return instrs_->size(); }

    /** Read-only access for inspection in tests. */
    const std::vector<DynInstr> &instructions() const { return *instrs_; }

  private:
    std::shared_ptr<const std::vector<DynInstr>> instrs_;
    std::uint64_t pos_ = 0;
};

/**
 * Handle to an instruction added to a TraceBuilder; usable as a dependence
 * token for later instructions.
 */
struct InstrHandle
{
    std::uint64_t index = kNoSeq;
};

/**
 * Fluent builder for hand-constructed traces.
 *
 * Example: a load feeding a multiply feeding a branch:
 * @code
 *   TraceBuilder b;
 *   auto ld = b.load(0x1000);
 *   auto mu = b.mul({ld});
 *   b.branch(0x40, true, {mu});
 *   auto trace = b.build();
 * @endcode
 *
 * Program counters advance automatically (4 bytes per uop) unless set
 * explicitly with at().
 *
 * A streaming source reads the instructions added so far from pending()
 * and then drops them with clearPending(): the builder then holds one
 * loop iteration at a time, while handles and size() keep counting trace
 * indices from the start of the stream.
 */
class TraceBuilder
{
  public:
    TraceBuilder();

    /** Set the PC for the next instruction (subsequent PCs continue from it). */
    TraceBuilder &at(Addr pc);

    /** Append an arbitrary prepared instruction. */
    InstrHandle add(DynInstr instr);

    InstrHandle nop();
    InstrHandle alu(std::initializer_list<InstrHandle> deps = {});
    InstrHandle mul(std::initializer_list<InstrHandle> deps = {});
    InstrHandle div(std::initializer_list<InstrHandle> deps = {});
    InstrHandle load(Addr addr, std::initializer_list<InstrHandle> deps = {});
    InstrHandle store(Addr addr, std::initializer_list<InstrHandle> deps = {});
    InstrHandle branch(bool taken, std::initializer_list<InstrHandle> deps = {});
    InstrHandle fpAdd(std::initializer_list<InstrHandle> deps = {});
    InstrHandle fpMul(std::initializer_list<InstrHandle> deps = {});
    InstrHandle fpDiv(std::initializer_list<InstrHandle> deps = {});

    /** Vector FMA with @p lanes active lanes. */
    InstrHandle vfma(unsigned lanes,
                     std::initializer_list<InstrHandle> deps = {});
    /** Vector FP add with @p lanes active lanes. */
    InstrHandle vadd(unsigned lanes,
                     std::initializer_list<InstrHandle> deps = {});
    /** Vector FP multiply with @p lanes active lanes. */
    InstrHandle vmul(unsigned lanes,
                     std::initializer_list<InstrHandle> deps = {});
    /** Non-FP vector op (occupies a VPU). */
    InstrHandle vint(std::initializer_list<InstrHandle> deps = {});
    /** Broadcast (occupies a VPU, zero flops). */
    InstrHandle vbroadcast(std::initializer_list<InstrHandle> deps = {});
    /** Microcoded ALU op occupying the decoder for @p decode_cycles. */
    InstrHandle microcoded(unsigned decode_cycles,
                           std::initializer_list<InstrHandle> deps = {});
    /** Thread yield for @p cycles (synchronization stall). */
    InstrHandle yield(std::uint32_t cycles);

    /**
     * Repeat the last @p count instructions @p times more, as a loop: the
     * copies keep the template's PCs (same code executing again) and every
     * dependence keeps its producer distance, so loop-carried chains (e.g.
     * accumulators reading the previous iteration) are preserved.
     */
    TraceBuilder &repeatLast(std::size_t count, std::size_t times);

    /** Number of instructions added so far, cleared ones included. */
    std::uint64_t size() const { return base_ + instrs_.size(); }

    /** Instructions added since the last clearPending(), oldest first. */
    const std::vector<DynInstr> &pending() const { return instrs_; }

    /** Drop the pending instructions; later ones keep their trace index. */
    void clearPending();

    /** Finalize into a replayable trace source (nothing may be cleared). */
    std::unique_ptr<VectorTraceSource> build();

  private:
    InstrHandle append(InstrClass cls, std::initializer_list<InstrHandle> deps,
                       Addr mem_addr = 0, bool taken = false,
                       unsigned lanes = 0, unsigned decode_cycles = 1,
                       std::uint32_t yield_cycles = 0);

    std::vector<DynInstr> instrs_;
    /** Trace index of instrs_.front(): instructions cleared so far. */
    std::uint64_t base_ = 0;
    Addr next_pc_ = 0x400000;
};

// The emitters are inline so that a streaming kernel's loop body compiles
// to direct stores into the pending buffer.

inline InstrHandle
TraceBuilder::append(InstrClass cls, std::initializer_list<InstrHandle> deps,
                     Addr mem_addr, bool taken, unsigned lanes,
                     unsigned decode_cycles, std::uint32_t yield_cycles)
{
    const std::uint64_t index = size();
    // Filled in place rather than built on the stack and copied in: the
    // streaming kernels emit every uop here, inside the timed simulation.
    DynInstr &instr = instrs_.emplace_back();
    instr.pc = next_pc_;
    next_pc_ += 4;
    instr.cls = cls;
    instr.mem_addr = mem_addr;
    instr.branch_taken = taken;
    instr.active_lanes = static_cast<std::uint8_t>(lanes);
    instr.decode_cycles = static_cast<std::uint8_t>(decode_cycles);
    instr.yield_cycles = yield_cycles;
    for (InstrHandle h : deps) {
        assert(h.index != kNoSeq && h.index < index);
        assert(instr.num_srcs < kMaxSrcs);
        assert(index - h.index <= kMaxDepDistance);
        instr.src[instr.num_srcs++] = h.index;
    }
    return InstrHandle{index};
}

inline InstrHandle
TraceBuilder::nop()
{
    return append(InstrClass::kNop, {});
}

inline InstrHandle
TraceBuilder::alu(std::initializer_list<InstrHandle> deps)
{
    return append(InstrClass::kAlu, deps);
}

inline InstrHandle
TraceBuilder::mul(std::initializer_list<InstrHandle> deps)
{
    return append(InstrClass::kAluMul, deps);
}

inline InstrHandle
TraceBuilder::div(std::initializer_list<InstrHandle> deps)
{
    return append(InstrClass::kAluDiv, deps);
}

inline InstrHandle
TraceBuilder::load(Addr addr, std::initializer_list<InstrHandle> deps)
{
    return append(InstrClass::kLoad, deps, addr);
}

inline InstrHandle
TraceBuilder::store(Addr addr, std::initializer_list<InstrHandle> deps)
{
    return append(InstrClass::kStore, deps, addr);
}

inline InstrHandle
TraceBuilder::branch(bool taken, std::initializer_list<InstrHandle> deps)
{
    return append(InstrClass::kBranch, deps, 0, taken);
}

inline InstrHandle
TraceBuilder::fpAdd(std::initializer_list<InstrHandle> deps)
{
    return append(InstrClass::kFpAdd, deps);
}

inline InstrHandle
TraceBuilder::fpMul(std::initializer_list<InstrHandle> deps)
{
    return append(InstrClass::kFpMul, deps);
}

inline InstrHandle
TraceBuilder::fpDiv(std::initializer_list<InstrHandle> deps)
{
    return append(InstrClass::kFpDiv, deps);
}

inline InstrHandle
TraceBuilder::vfma(unsigned lanes, std::initializer_list<InstrHandle> deps)
{
    return append(InstrClass::kVecFma, deps, 0, false, lanes);
}

inline InstrHandle
TraceBuilder::vadd(unsigned lanes, std::initializer_list<InstrHandle> deps)
{
    return append(InstrClass::kVecAdd, deps, 0, false, lanes);
}

inline InstrHandle
TraceBuilder::vmul(unsigned lanes, std::initializer_list<InstrHandle> deps)
{
    return append(InstrClass::kVecMul, deps, 0, false, lanes);
}

inline InstrHandle
TraceBuilder::vint(std::initializer_list<InstrHandle> deps)
{
    return append(InstrClass::kVecInt, deps);
}

inline InstrHandle
TraceBuilder::vbroadcast(std::initializer_list<InstrHandle> deps)
{
    return append(InstrClass::kVecBroadcast, deps);
}

inline InstrHandle
TraceBuilder::microcoded(unsigned decode_cycles,
                         std::initializer_list<InstrHandle> deps)
{
    return append(InstrClass::kAlu, deps, 0, false, 0, decode_cycles);
}

inline InstrHandle
TraceBuilder::yield(std::uint32_t cycles)
{
    return append(InstrClass::kYield, {}, 0, false, 0, 1, cycles);
}

}  // namespace stackscope::trace

#endif  // STACKSCOPE_TRACE_TRACE_BUILDER_HPP
