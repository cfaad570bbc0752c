#include "stacks/flops_accountant.hpp"

#include "common/error.hpp"

namespace stackscope::stacks {

FlopsAccountant::FlopsAccountant(const FlopsAccountantConfig &config)
    : config_(config)
{
    if (config_.vpu_count == 0 || config_.vec_lanes == 0) {
        throw StackscopeError(ErrorCategory::kConfig,
                              "FLOPS accountant needs vpu_count >= 1 and "
                              "vec_lanes >= 1");
    }
}

void
FlopsAccountant::tick(const CycleState &s, Cycle n)
{
    const double reps = static_cast<double>(n);
    if (s.unsched) {
        cycles_[FlopsComponent::kUnsched] += reps;
        return;
    }

    const double k = config_.vpu_count;
    const double v = config_.vec_lanes;
    const double peak = 2.0 * k * v;

    // Table III line 1: f = (sum of a_i * m_i) / (2 k v).
    const double f = s.vfp_lane_ops / peak;
    cycles_[FlopsComponent::kBase] += f * reps;
    if (f >= 1.0)
        return;

    // Lines 4-7: per-instruction losses from non-FMA ops and masking.
    // Per issued VFP instruction, f_i + nonfma_i + mask_i = 1/k exactly,
    // so base+nonfma+mask account for n/k of this cycle.
    cycles_[FlopsComponent::kNonFma] += s.vfp_nonfma_loss / peak * reps;
    cycles_[FlopsComponent::kMask] += s.vfp_mask_loss / (k * v) * reps;

    // Lines 8-18: the (k - n)/k remainder is attributed to the reason no
    // further VFP instruction issued.
    if (s.n_vfp < config_.vpu_count) {
        const double rem = (k - static_cast<double>(s.n_vfp)) / k * reps;
        if (!s.vfp_in_rs) {
            cycles_[FlopsComponent::kFrontend] += rem;
        } else if (s.nonvfp_on_vpu > 0) {
            cycles_[FlopsComponent::kNonVfp] += rem;
        } else if (s.vfp_blame == VfpBlame::kMem) {
            cycles_[FlopsComponent::kMem] += rem;
        } else {
            cycles_[FlopsComponent::kDepend] += rem;
        }
    }
}

FlopsStack
FlopsAccountant::asFlops(std::uint64_t total_cycles, double freq_hz) const
{
    if (total_cycles == 0)
        return FlopsStack{};
    const double factor = freq_hz * peakFlopsPerCycle() /
                          static_cast<double>(total_cycles);
    return cycles_.scaled(factor);
}

double
FlopsAccountant::achievedFlops(std::uint64_t total_cycles,
                               double freq_hz) const
{
    return asFlops(total_cycles, freq_hz)[FlopsComponent::kBase];
}

}  // namespace stackscope::stacks
