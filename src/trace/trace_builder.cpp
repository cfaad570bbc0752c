#include "trace/trace_builder.hpp"

#include <cassert>
#include <utility>

namespace stackscope::trace {

VectorTraceSource::VectorTraceSource(std::vector<DynInstr> instrs)
    : instrs_(std::make_shared<const std::vector<DynInstr>>(std::move(instrs)))
{
}

VectorTraceSource::VectorTraceSource(
    std::shared_ptr<const std::vector<DynInstr>> instrs)
    : instrs_(std::move(instrs))
{
    assert(instrs_);
}

bool
VectorTraceSource::next(DynInstr &out)
{
    if (pos_ >= instrs_->size())
        return false;
    out = (*instrs_)[pos_++];
    return true;
}

void
VectorTraceSource::reset()
{
    pos_ = 0;
}

std::unique_ptr<TraceSource>
VectorTraceSource::clone() const
{
    return std::make_unique<VectorTraceSource>(instrs_);
}

TraceBuilder::TraceBuilder() = default;

TraceBuilder &
TraceBuilder::at(Addr pc)
{
    next_pc_ = pc;
    return *this;
}

InstrHandle
TraceBuilder::add(DynInstr instr)
{
    if (instr.pc == 0) {
        instr.pc = next_pc_;
    } else {
        next_pc_ = instr.pc;
    }
    next_pc_ += 4;
    instrs_.push_back(instr);
    return InstrHandle{size() - 1};
}

TraceBuilder &
TraceBuilder::repeatLast(std::size_t count, std::size_t times)
{
    assert(count <= instrs_.size());
    const std::size_t begin = instrs_.size() - count;
    for (std::size_t t = 0; t < times; ++t) {
        for (std::size_t i = begin; i < begin + count; ++i) {
            DynInstr instr = instrs_[i];
            const std::size_t here = instrs_.size();
            // The copies execute the *same code again* (a loop): they keep
            // the template's PCs, so the icache and the branch predictor
            // see loop behaviour, not straight-line code.
            //
            // Preserve the producer-consumer *distance* of each dependence.
            // This is the natural loop-body semantics: an accumulator that
            // read its value from `count` instructions earlier keeps doing
            // so, chaining iteration to iteration.
            for (unsigned s = 0; s < instr.num_srcs; ++s)
                instr.src[s] += here - i;
            instrs_.push_back(instr);
        }
    }
    return *this;
}

void
TraceBuilder::clearPending()
{
    base_ += instrs_.size();
    instrs_.clear();
}

std::unique_ptr<VectorTraceSource>
TraceBuilder::build()
{
    assert(base_ == 0);
    return std::make_unique<VectorTraceSource>(std::move(instrs_));
}

}  // namespace stackscope::trace
