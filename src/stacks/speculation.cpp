#include "stacks/speculation.hpp"

#include <algorithm>

namespace stackscope::stacks {

std::string_view
toString(SpeculationMode mode)
{
    switch (mode) {
      case SpeculationMode::kOracle:
        return "oracle";
      case SpeculationMode::kSimple:
        return "simple";
      case SpeculationMode::kSpecCounters:
        return "spec-counters";
    }
    return "?";
}

std::optional<SpeculationMode>
parseSpeculationMode(std::string_view text)
{
    for (const SpeculationMode mode : kSpeculationModes) {
        if (text == toString(mode))
            return mode;
    }
    return std::nullopt;
}

void
SpeculativeCounters::onBranchFetched(SeqNum seq)
{
    epochs_.push_back(Epoch{seq, StageStacks{}});
}

void
SpeculativeCounters::onBranchResolved(SeqNum seq, bool mispredicted)
{
    auto it = std::find_if(epochs_.begin(), epochs_.end(),
                           [&](const Epoch &e) { return e.branch_seq == seq; });
    if (it == epochs_.end())
        return;  // already discarded by an older misprediction

    if (mispredicted) {
        // Everything accumulated since this branch was fetched is
        // wrong-path work: credit it all to the bpred component.
        for (std::size_t s = 0; s < kNumStages; ++s) {
            double squashed = 0.0;
            for (auto e = it; e != epochs_.end(); ++e)
                squashed += e->pending[s].sum();
            committed_[s][CpiComponent::kBpred] += squashed;
        }
        epochs_.erase(it, epochs_.end());
    } else {
        // Proven correct: merge into the parent epoch (or the committed
        // counters if this was the oldest in-flight branch).
        StageStacks &into =
            it == epochs_.begin() ? committed_ : std::prev(it)->pending;
        for (std::size_t s = 0; s < kNumStages; ++s)
            into[s] += it->pending[s];
        epochs_.erase(it);
    }
}

void
SpeculativeCounters::finalize()
{
    for (Epoch &e : epochs_) {
        for (std::size_t s = 0; s < kNumStages; ++s)
            committed_[s] += e.pending[s];
    }
    epochs_.clear();
}

void
applySimpleSpeculationFixup(CpiStack &stack, double commit_base)
{
    const double surplus = stack[CpiComponent::kBase] - commit_base;
    if (surplus > 0.0) {
        stack[CpiComponent::kBase] -= surplus;
        stack[CpiComponent::kBpred] += surplus;
    }
}

}  // namespace stackscope::stacks
