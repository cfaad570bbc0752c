/**
 * @file
 * The stack accountant: one consumer of the per-cycle CycleState that
 * keeps all four of the paper's stacks. These are the dispatch, issue
 * and commit CPI stacks (Table II, extended with the microcode, other
 * and unsched components and the §III-A width normalization) and the
 * FLOPS stack (Table III).
 *
 * Table II's per-stage decision is one pure function, stallSource().
 * The pipeline tracer (obs/trace_events.hpp) calls it too, so a trace's
 * stall spans name the components the stacks charge.
 *
 * tick() accounts one CycleState for a run of n identical cycles: each
 * stage replays its per-cycle arithmetic while it is active or its
 * §III-A carry is draining, and the rest of an idle run lands in one add.
 */

#ifndef STACKSCOPE_STACKS_STACK_ACCOUNTANT_HPP
#define STACKSCOPE_STACKS_STACK_ACCOUNTANT_HPP

#include <array>
#include <cstdint>

#include "stacks/cycle_state.hpp"
#include "stacks/speculation.hpp"
#include "stacks/stack.hpp"

namespace stackscope::stacks {

/** The per-cycle observation that explains a stage's unused slots. */
enum class StallSource : std::uint8_t
{
    kUnsched,     ///< the thread yielded (CycleState::unsched)
    kFrontend,    ///< the frontend condition (CycleState::fe_reason)
    kRobHead,     ///< the ROB head's blocker (CycleState::head_blame)
    kProducer,    ///< the first non-ready RS entry (CycleState::issue_blame)
    kStructural,  ///< ports, load-store conflicts or a finished ROB head
};

/**
 * Table II: what explains @p stage's unused slots on a cycle that
 * observed @p s. Under kOracle the emptiness tests see correct-path uops
 * only; the hardware-realistic modes cannot tell wrong-path uops apart,
 * so there any uop counts (§III-B).
 */
constexpr StallSource
stallSource(Stage stage, const CycleState &s, SpeculationMode mode)
{
    if (s.unsched)
        return StallSource::kUnsched;
    const bool oracle = mode == SpeculationMode::kOracle;
    switch (stage) {
      case Stage::kDispatch:
        // Frontend empty first, then ROB or RS full. A partial dispatch
        // (fewer than W uops delivered) is the frontend's doing.
        if ((oracle ? s.fe_has_correct : s.fe_has_any) && s.backend_full)
            return StallSource::kRobHead;
        return StallSource::kFrontend;
      case Stage::kIssue:
        if (oracle ? s.rs_empty_correct : s.rs_empty_any) {
            // An RS drained while the ROB is full (a long Dcache miss
            // with all independent work issued) is a backend stall,
            // blamed through the ROB head like the other stages.
            return s.backend_full ? StallSource::kRobHead
                                  : StallSource::kFrontend;
        }
        // Blame the producer of the first non-ready instruction; ready
        // but unissued work (ports, load-store conflicts) is the
        // issue-stage-only "Other" component (§V-A).
        return s.issue_blame != BackendBlame::kNone
                   ? StallSource::kProducer
                   : StallSource::kStructural;
      case Stage::kCommit:
        if (oracle ? s.rob_empty_correct : s.rob_empty_any)
            return StallSource::kFrontend;
        return s.head_incomplete ? StallSource::kRobHead
                                 : StallSource::kStructural;
      case Stage::kCount:
        break;
    }
    return StallSource::kStructural;
}

/** The CPI component @p source names on a cycle that observed @p s. */
constexpr CpiComponent
stallComponent(StallSource source, const CycleState &s)
{
    const auto backend = [](BackendBlame blame) {
        switch (blame) {
          case BackendBlame::kDcache: return CpiComponent::kDcache;
          case BackendBlame::kAluLat: return CpiComponent::kAluLat;
          case BackendBlame::kDepend:
          case BackendBlame::kNone: break;
        }
        return CpiComponent::kDepend;
    };
    switch (source) {
      case StallSource::kUnsched:
        return CpiComponent::kUnsched;
      case StallSource::kFrontend:
        switch (s.fe_reason) {
          case FrontendReason::kIcache: return CpiComponent::kIcache;
          case FrontendReason::kBpred: return CpiComponent::kBpred;
          case FrontendReason::kMicrocode: return CpiComponent::kMicrocode;
          case FrontendReason::kNone:
          case FrontendReason::kDrain: break;
        }
        return CpiComponent::kOther;
      case StallSource::kRobHead:
        return backend(s.head_blame);
      case StallSource::kProducer:
        return backend(s.issue_blame);
      case StallSource::kStructural:
        break;
    }
    return CpiComponent::kOther;
}

/** What the stack accountant needs to know about the machine and run. */
struct StackAccountantConfig
{
    /**
     * Accounting width W of each stage, indexed by Stage. The paper uses
     * the minimum width over all stages everywhere (§III-A): that keeps
     * the base component equal across stacks and models wider stages
     * through the carry-over rule. Native widths exist for the ablation.
     */
    std::array<unsigned, kNumStages> widths{4, 4, 4};
    SpeculationMode spec_mode = SpeculationMode::kOracle;
    unsigned vpu_count = 2;   ///< k: vector floating-point units
    unsigned vec_lanes = 16;  ///< v: SP elements per vector
};

/**
 * The dispatch, issue and commit CPI stacks and the FLOPS stack,
 * accumulated cycle by cycle from one CycleState per cycle.
 *
 * Invariant: every accounted cycle adds exactly 1 to each stack, so each
 * stack sums to the number of accounted cycles.
 */
class StackAccountant
{
  public:
    explicit StackAccountant(const StackAccountantConfig &config);

    /**
     * Account @p n consecutive cycles that all observed @p state.
     * Equivalent to n calls of tick(state): bitwise while a stage is
     * active or its carry drains, after which an idle run adds its
     * remaining cycles to the stall component in one step (exact when
     * the per-cycle fractions are dyadic, i.e. W a power of two). Table
     * III has no carry, so the FLOPS stack scales one cycle by n.
     */
    void tick(const CycleState &state, Cycle n = 1);

    /** @name Branch events (consumed by SpeculationMode::kSpecCounters) @{ */
    void onBranchFetched(SeqNum seq);
    void onBranchResolved(SeqNum seq, bool mispredicted);
    /** @} */

    /**
     * Close the run; call once after the last tick. Flushes the
     * spec-counter epochs, and under kSimple moves the dispatch and issue
     * base surplus over the commit base into bpred (§III-B / Yasin).
     */
    void finalize();
    bool finalized() const { return finalized_; }

    /**
     * Per-component cycle counts of @p stage's CPI stack. Under
     * kSpecCounters, valid only after finalize().
     */
    const CpiStack &cycles(Stage stage) const;

    /** @p stage's stack in CPI units (cycles / @p instructions). */
    CpiStack cpi(Stage stage, std::uint64_t instructions) const;

    /** Per-component cycle counts of the FLOPS stack. */
    const FlopsStack &flopsCycles() const { return flops_; }

    const StackAccountantConfig &config() const { return config_; }

  private:
    void tickFlops(const CycleState &s, Cycle n);

    StackAccountantConfig config_;
    /**
     * The CPI stacks: ticked directly outside kSpecCounters, set from the
     * committed epochs by finalize() under it.
     */
    StageStacks cycles_{};
    /** §III-A carry of each stage. */
    std::array<double, kNumStages> carry_{};
    FlopsStack flops_;
    SpeculativeCounters spec_;
    bool finalized_ = false;
};

}  // namespace stackscope::stacks

#endif  // STACKSCOPE_STACKS_STACK_ACCOUNTANT_HPP
