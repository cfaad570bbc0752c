#include "stacks/stack_accountant.hpp"

#include <string>

#include "common/error.hpp"

namespace stackscope::stacks {

namespace {

constexpr auto kD = static_cast<std::size_t>(Stage::kDispatch);
constexpr auto kI = static_cast<std::size_t>(Stage::kIssue);
constexpr auto kC = static_cast<std::size_t>(Stage::kCommit);

/**
 * One stage's Table II arithmetic for a run of @p n cycles into @p stack:
 * the useful fraction of the W slots goes to base, the rest to @p stall.
 * A fraction above 1 is clamped and its excess carried into the next
 * cycle (§III-A), so the per-cycle arithmetic replays while the stage is
 * active or the carry drains; every remaining idle cycle adds 1.0 to the
 * same stall component, so the rest of the run folds into one add.
 */
void
tickStage(CpiStack &stack, double &carry, unsigned width,
          std::uint32_t useful, bool active, CpiComponent stall, Cycle n)
{
    do {
        double f = static_cast<double>(useful) /
                       static_cast<double>(width) +
                   carry;
        if (f > 1.0) {
            carry = f - 1.0;
            f = 1.0;
        } else {
            carry = 0.0;
        }
        stack[CpiComponent::kBase] += f;
        if (f < 1.0)
            stack[stall] += 1.0 - f;
    } while (--n > 0 && (carry != 0.0 || active));
    if (n > 0)
        stack[stall] += static_cast<double>(n);
}

}  // namespace

StackAccountant::StackAccountant(const StackAccountantConfig &config)
    : config_(config)
{
    for (std::size_t s = 0; s < kNumStages; ++s) {
        if (config_.widths[s] == 0) {
            throw StackscopeError(ErrorCategory::kConfig,
                                  "CPI accounting needs an accounting "
                                  "width >= 1")
                .withContext("stage",
                             std::string(toString(static_cast<Stage>(s))));
        }
    }
    if (config_.vpu_count == 0 || config_.vec_lanes == 0) {
        throw StackscopeError(ErrorCategory::kConfig,
                              "FLOPS accounting needs vpu_count >= 1 and "
                              "vec_lanes >= 1");
    }
}

void
StackAccountant::tick(const CycleState &s, Cycle n)
{
    if (finalized_) {
        throw StackscopeError(ErrorCategory::kInternal,
                              "StackAccountant::tick() after finalize()");
    }
    if (n == 0)
        return;
    const SpeculationMode mode = config_.spec_mode;
    StageStacks &to =
        mode == SpeculationMode::kSpecCounters ? spec_.current() : cycles_;
    if (s.unsched) {
        const double reps = static_cast<double>(n);
        for (CpiStack &stack : to)
            stack[CpiComponent::kUnsched] += reps;
        flops_[FlopsComponent::kUnsched] += reps;
        return;
    }

    // In the hardware-realistic modes wrong-path uops are
    // indistinguishable from correct-path ones at dispatch and issue, so
    // they count toward the useful fraction; the surplus is reclaimed
    // later (§III-B). Wrong-path uops never commit.
    const bool oracle = mode == SpeculationMode::kOracle;
    const auto stall = [&](Stage stage) {
        return stallComponent(stallSource(stage, s, mode), s);
    };
    tickStage(to[kD], carry_[kD], config_.widths[kD],
              oracle ? s.n_dispatch : s.n_dispatch + s.n_dispatch_wrong,
              (s.n_dispatch | s.n_dispatch_wrong) != 0,
              stall(Stage::kDispatch), n);
    tickStage(to[kI], carry_[kI], config_.widths[kI],
              oracle ? s.n_issue : s.n_issue + s.n_issue_wrong,
              (s.n_issue | s.n_issue_wrong) != 0, stall(Stage::kIssue), n);
    tickStage(to[kC], carry_[kC], config_.widths[kC], s.n_commit,
              s.n_commit != 0, stall(Stage::kCommit), n);
    tickFlops(s, n);
}

void
StackAccountant::tickFlops(const CycleState &s, Cycle n)
{
    const double reps = static_cast<double>(n);
    const double k = config_.vpu_count;
    const double v = config_.vec_lanes;
    const double peak = 2.0 * k * v;

    // Table III line 1: f = (sum of a_i * m_i) / (2 k v).
    const double f = s.vfp_lane_ops / peak;
    flops_[FlopsComponent::kBase] += f * reps;
    if (f >= 1.0)
        return;

    // Lines 4-7: per-instruction losses from non-FMA ops and masking.
    // Per issued VFP instruction, f_i + nonfma_i + mask_i = 1/k exactly,
    // so base+nonfma+mask account for n/k of this cycle.
    flops_[FlopsComponent::kNonFma] += s.vfp_nonfma_loss / peak * reps;
    flops_[FlopsComponent::kMask] += s.vfp_mask_loss / (k * v) * reps;

    // Lines 8-18: the (k - n)/k remainder is attributed to the reason no
    // further VFP instruction issued.
    if (s.n_vfp < config_.vpu_count) {
        const double rem = (k - static_cast<double>(s.n_vfp)) / k * reps;
        if (!s.vfp_in_rs) {
            flops_[FlopsComponent::kFrontend] += rem;
        } else if (s.nonvfp_on_vpu > 0) {
            flops_[FlopsComponent::kNonVfp] += rem;
        } else if (s.vfp_blame == VfpBlame::kMem) {
            flops_[FlopsComponent::kMem] += rem;
        } else {
            flops_[FlopsComponent::kDepend] += rem;
        }
    }
}

void
StackAccountant::onBranchFetched(SeqNum seq)
{
    if (config_.spec_mode == SpeculationMode::kSpecCounters)
        spec_.onBranchFetched(seq);
}

void
StackAccountant::onBranchResolved(SeqNum seq, bool mispredicted)
{
    if (config_.spec_mode == SpeculationMode::kSpecCounters)
        spec_.onBranchResolved(seq, mispredicted);
}

void
StackAccountant::finalize()
{
    if (finalized_)
        return;
    if (config_.spec_mode == SpeculationMode::kSpecCounters) {
        spec_.finalize();
        cycles_ = spec_.committed();
    } else if (config_.spec_mode == SpeculationMode::kSimple) {
        const double commit_base = cycles_[kC][CpiComponent::kBase];
        applySimpleSpeculationFixup(cycles_[kD], commit_base);
        applySimpleSpeculationFixup(cycles_[kI], commit_base);
    }
    finalized_ = true;
}

const CpiStack &
StackAccountant::cycles(Stage stage) const
{
    if (config_.spec_mode == SpeculationMode::kSpecCounters && !finalized_) {
        throw StackscopeError(
            ErrorCategory::kInternal,
            "spec-counter stacks are undefined before finalize()")
            .withContext("stage", std::string(toString(stage)));
    }
    return cycles_[static_cast<std::size_t>(stage)];
}

CpiStack
StackAccountant::cpi(Stage stage, std::uint64_t instructions) const
{
    if (instructions == 0)
        return CpiStack{};
    return cycles(stage).scaled(1.0 / static_cast<double>(instructions));
}

}  // namespace stackscope::stacks
