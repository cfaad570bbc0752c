#include "stacks/cpi_accountant.hpp"

#include <string>

#include "common/error.hpp"

namespace stackscope::stacks {

CpiAccountant::CpiAccountant(const CpiAccountantConfig &config)
    : config_(config)
{
    if (config_.effective_width == 0) {
        throw StackscopeError(ErrorCategory::kConfig,
                              "CPI accountant needs an accounting width "
                              ">= 1")
            .withContext("stage", std::string(toString(config_.stage)));
    }
}

void
CpiAccountant::add(CpiComponent c, double value)
{
    if (config_.spec_mode == SpeculationMode::kSpecCounters)
        spec_.add(c, value);
    else
        cycles_[c] += value;
}

double
CpiAccountant::usefulFraction(std::uint32_t n_correct, std::uint32_t n_wrong)
{
    // In the hardware-realistic modes wrong-path uops are indistinguishable
    // from correct-path ones at dispatch/issue time, so they count toward
    // the useful fraction; the surplus is later reclaimed (§III-B).
    const std::uint32_t n = config_.spec_mode == SpeculationMode::kOracle
                                ? n_correct
                                : n_correct + n_wrong;
    double f = static_cast<double>(n) /
                   static_cast<double>(config_.effective_width) +
               carry_;
    if (f > 1.0) {
        // Wider-stage carry-over (§III-A): clamp to 1 and transfer the
        // excess to the next cycle.
        carry_ = f - 1.0;
        f = 1.0;
    } else {
        carry_ = 0.0;
    }
    return f;
}

CpiComponent
CpiAccountant::frontendComponent(FrontendReason reason)
{
    switch (reason) {
      case FrontendReason::kIcache:
        return CpiComponent::kIcache;
      case FrontendReason::kBpred:
        return CpiComponent::kBpred;
      case FrontendReason::kMicrocode:
        return CpiComponent::kMicrocode;
      case FrontendReason::kNone:
      case FrontendReason::kDrain:
        break;
    }
    return CpiComponent::kOther;
}

CpiComponent
CpiAccountant::backendComponent(BackendBlame blame)
{
    switch (blame) {
      case BackendBlame::kDcache:
        return CpiComponent::kDcache;
      case BackendBlame::kAluLat:
        return CpiComponent::kAluLat;
      case BackendBlame::kDepend:
      case BackendBlame::kNone:
        break;
    }
    return CpiComponent::kDepend;
}

CpiComponent
CpiAccountant::classifyDispatch(bool fe_empty, bool backend_full,
                                FrontendReason fe_reason,
                                BackendBlame head_blame)
{
    // Table II (dispatch): frontend-empty first, then ROB/RS full, then
    // the residual partial-dispatch cases (the frontend delivered some
    // but fewer than W uops: the ongoing frontend condition is the root
    // cause).
    if (fe_empty)
        return frontendComponent(fe_reason);
    if (backend_full)
        return backendComponent(head_blame);
    return frontendComponent(fe_reason);
}

CpiComponent
CpiAccountant::classifyIssue(bool rs_empty, bool backend_full,
                             FrontendReason fe_reason,
                             BackendBlame head_blame,
                             BackendBlame issue_blame)
{
    if (rs_empty) {
        // RS drained while the ROB is full (e.g., a long Dcache miss
        // with all independent work already issued): a backend stall,
        // blamed through the ROB head like the other stages.
        if (backend_full)
            return backendComponent(head_blame);
        return frontendComponent(fe_reason);
    }
    // Table II (issue): blame the producer of the first non-ready
    // instruction; ready-but-unissued structural limits (ports,
    // load-store conflicts) fall through to the issue-stage-only
    // "Other" component (§V-A).
    if (issue_blame != BackendBlame::kNone)
        return backendComponent(issue_blame);
    return CpiComponent::kOther;
}

CpiComponent
CpiAccountant::classifyCommit(bool rob_empty, bool head_incomplete,
                              FrontendReason fe_reason,
                              BackendBlame head_blame)
{
    if (rob_empty)
        return frontendComponent(fe_reason);
    if (head_incomplete)
        return backendComponent(head_blame);
    return CpiComponent::kOther;
}

void
CpiAccountant::tick(const CycleState &s, Cycle n)
{
    if (finalized_) {
        throw StackscopeError(ErrorCategory::kInternal,
                              "CpiAccountant::tick() after finalize()");
    }
    if (n == 0)
        return;
    if (s.unsched) {
        add(CpiComponent::kUnsched, static_cast<double>(n));
        return;
    }

    std::uint32_t count = 0;
    std::uint32_t wrong = 0;
    CpiComponent stall = CpiComponent::kOther;
    const bool oracle = config_.spec_mode == SpeculationMode::kOracle;
    switch (config_.stage) {
      case Stage::kDispatch:
        count = s.n_dispatch;
        wrong = s.n_dispatch_wrong;
        stall = classifyDispatch(oracle ? !s.fe_has_correct : !s.fe_has_any,
                                 s.backend_full, s.fe_reason, s.head_blame);
        break;
      case Stage::kIssue:
        count = s.n_issue;
        wrong = s.n_issue_wrong;
        stall = classifyIssue(oracle ? s.rs_empty_correct : s.rs_empty_any,
                              s.backend_full, s.fe_reason, s.head_blame,
                              s.issue_blame);
        break;
      case Stage::kCommit:
        count = s.n_commit;  // wrong-path uops never commit
        stall = classifyCommit(oracle ? s.rob_empty_correct
                                      : s.rob_empty_any,
                               s.head_incomplete, s.fe_reason, s.head_blame);
        break;
      case Stage::kCount:
        throw StackscopeError(ErrorCategory::kInternal,
                              "CpiAccountant configured with Stage::kCount");
    }

    // Replay the per-cycle arithmetic while the stage is active or the
    // §III-A carry is still draining; every remaining idle cycle adds
    // 1.0 to the same stall component, so the rest of the run folds into
    // one add.
    do {
        const double f = usefulFraction(count, wrong);
        add(CpiComponent::kBase, f);
        if (f < 1.0)
            add(stall, 1.0 - f);
    } while (--n > 0 && (carry_ != 0.0 || (count | wrong) != 0));
    if (n > 0)
        add(stall, static_cast<double>(n));
}

void
CpiAccountant::onBranchFetched(SeqNum seq)
{
    if (config_.spec_mode == SpeculationMode::kSpecCounters)
        spec_.onBranchFetched(seq);
}

void
CpiAccountant::onBranchResolved(SeqNum seq, bool mispredicted)
{
    if (config_.spec_mode == SpeculationMode::kSpecCounters)
        spec_.onBranchResolved(seq, mispredicted);
}

void
CpiAccountant::finalize()
{
    if (finalized_)
        return;
    if (config_.spec_mode == SpeculationMode::kSpecCounters) {
        spec_.finalize();
        cycles_ = spec_.committed();
    }
    finalized_ = true;
}

void
CpiAccountant::applySimpleFixup(double commit_base)
{
    applySimpleSpeculationFixup(cycles_, commit_base);
}

const CpiStack &
CpiAccountant::cycles() const
{
    if (config_.spec_mode == SpeculationMode::kSpecCounters && !finalized_) {
        throw StackscopeError(
            ErrorCategory::kInternal,
            "spec-counter stacks are undefined before finalize()")
            .withContext("stage", std::string(toString(config_.stage)));
    }
    return cycles_;
}

CpiStack
CpiAccountant::cpi(std::uint64_t instructions) const
{
    if (instructions == 0)
        return CpiStack{};
    return cycles().scaled(1.0 / static_cast<double>(instructions));
}

}  // namespace stackscope::stacks
