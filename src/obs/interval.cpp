#include "obs/interval.hpp"

#include "common/error.hpp"
#include "core/ooo_core.hpp"

namespace stackscope::obs {

using stacks::Stage;

namespace {

/** Compensated component-wise sum over samples via long double. */
template <typename E, typename Pick>
stacks::StackT<E>
sumStacks(const std::vector<IntervalSample> &samples, Pick &&pick)
{
    std::array<long double, stacks::StackT<E>::kSize> acc{};
    for (const IntervalSample &s : samples) {
        pick(s).forEach([&](E c, double v) {
            acc[static_cast<std::size_t>(c)] += v;
        });
    }
    stacks::StackT<E> out;
    for (std::size_t i = 0; i < stacks::StackT<E>::kSize; ++i)
        out[static_cast<E>(i)] = static_cast<double>(acc[i]);
    return out;
}

}  // namespace

stacks::CpiStack
IntervalSeries::summedCycleStack(Stage stage) const
{
    return sumStacks<stacks::CpiComponent>(
        samples,
        [stage](const IntervalSample &s) -> const stacks::CpiStack & {
            return s.cycleStack(stage);
        });
}

stacks::FlopsStack
IntervalSeries::summedFlopsCycles() const
{
    return sumStacks<stacks::FlopsComponent>(
        samples, [](const IntervalSample &s) -> const stacks::FlopsStack & {
            return s.flops_cycles;
        });
}

IntervalAccountant::IntervalAccountant(Cycle window)
    : window_(window), next_(window)
{
    if (window == 0) {
        throw StackscopeError(ErrorCategory::kConfig,
                              "interval accountant needs a window >= 1 "
                              "cycle");
    }
    series_.window = window;
}

void
IntervalAccountant::capture(const core::OooCore &core, Cycle now)
{
    IntervalSample s;
    s.start = prev_cycles_;
    s.end = now;
    s.instrs = core.stats().instrs_committed - prev_instrs_;
    const stacks::StackAccountant &acct = core.accountant();
    for (std::size_t i = 0; i < stacks::kNumStages; ++i) {
        const stacks::CpiStack cur = acct.cycles(static_cast<Stage>(i));
        s.cycle_stacks[i] = cur - prev_stacks_[i];
        prev_stacks_[i] = cur;
    }
    const stacks::FlopsStack cur_flops = acct.flopsCycles();
    s.flops_cycles = cur_flops - prev_flops_;
    prev_flops_ = cur_flops;
    prev_cycles_ = now;
    prev_instrs_ = core.stats().instrs_committed;
    series_.samples.push_back(std::move(s));
}

void
IntervalAccountant::snapshot(const core::OooCore &core)
{
    capture(core, core.cycles());
    next_ += window_;
}

void
IntervalAccountant::finish(const core::OooCore &core)
{
    const Cycle now = core.cycles();
    if (now > prev_cycles_ || series_.samples.empty()) {
        capture(core, now);
        return;
    }
    // The run ended exactly on a boundary, but finalize() may still have
    // redistributed mass (e.g. the kSimple fixup). Fold the residual into
    // the last sample so the series keeps summing to the aggregate.
    IntervalSample &last = series_.samples.back();
    const stacks::StackAccountant &acct = core.accountant();
    for (std::size_t i = 0; i < stacks::kNumStages; ++i) {
        const stacks::CpiStack cur = acct.cycles(static_cast<Stage>(i));
        last.cycle_stacks[i] += cur - prev_stacks_[i];
        prev_stacks_[i] = cur;
    }
    const stacks::FlopsStack cur_flops = acct.flopsCycles();
    last.flops_cycles += cur_flops - prev_flops_;
    prev_flops_ = cur_flops;
}

}  // namespace stackscope::obs
