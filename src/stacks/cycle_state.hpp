/**
 * @file
 * The per-cycle observation record that the core publishes and the stack
 * accountant and the pipeline tracer consume.
 *
 * This is the key architectural idea behind "easy to collect" (§III / §IV):
 * the accounting algorithms of Tables II and III only need a handful of
 * per-cycle facts about stage occupancy and blocker status. The core fills
 * one CycleState per cycle; the accountant is a pure consumer, so the
 * whole mechanism can be attached to any cycle-level simulator.
 */

#ifndef STACKSCOPE_STACKS_CYCLE_STATE_HPP
#define STACKSCOPE_STACKS_CYCLE_STATE_HPP

#include <cstdint>

#include "common/types.hpp"

namespace stackscope::stacks {

/** Why the frontend is not delivering correct-path instructions. */
enum class FrontendReason : std::uint8_t
{
    kNone,       ///< frontend is delivering (or nothing is wrong)
    kIcache,     ///< instruction cache miss outstanding
    kBpred,      ///< fetching wrong path / refilling after a misprediction
    kMicrocode,  ///< decoder occupied by a microcoded instruction
    kDrain,      ///< trace exhausted; pipeline draining
};

/** Which kind of instruction is blamed for a backend stall. */
enum class BackendBlame : std::uint8_t
{
    kNone,
    kDcache,  ///< blocked on a data cache miss
    kAluLat,  ///< blocked on a multi-cycle instruction
    kDepend,  ///< blocked on a single-cycle dependence chain
};

/** Producer blame for the FLOPS stack (Table III lines 14-18). */
enum class VfpBlame : std::uint8_t
{
    kNone,
    kMem,     ///< producer of the oldest waiting VFP op is a load
    kDepend,  ///< producer is a non-load instruction
};

/**
 * Everything the stack accountant needs to know about one core cycle.
 */
struct CycleState
{
    /** @name Dispatch stage @{ */
    std::uint32_t n_dispatch = 0;        ///< correct-path uops dispatched
    std::uint32_t n_dispatch_wrong = 0;  ///< wrong-path uops dispatched
    /** Fetch queue holds correct-path uops ready to dispatch. */
    bool fe_has_correct = false;
    /** Fetch queue holds any uops (wrong path included) ready to dispatch. */
    bool fe_has_any = false;
    FrontendReason fe_reason = FrontendReason::kNone;
    /** Dispatch blocked because the ROB or the RS is full. */
    bool backend_full = false;
    /** @} */

    /** @name ROB head (blame for dispatch-full and commit stalls) @{ */
    bool rob_empty_correct = true;  ///< no correct-path uops in the ROB
    bool rob_empty_any = true;      ///< no uops at all in the ROB
    bool head_incomplete = false;   ///< correct-path head not finished
    BackendBlame head_blame = BackendBlame::kNone;
    /** @} */

    /** @name Issue stage @{ */
    std::uint32_t n_issue = 0;
    std::uint32_t n_issue_wrong = 0;
    bool rs_empty_correct = true;  ///< no correct-path uops waiting in RS
    bool rs_empty_any = true;      ///< no uops at all waiting in RS
    /** Ready uops existed but ports/conflicts prevented issuing them. */
    bool ready_unissued = false;
    /** Blame via the producer of the first non-ready RS entry. */
    BackendBlame issue_blame = BackendBlame::kNone;
    /** @} */

    /** @name Commit stage @{ */
    std::uint32_t n_commit = 0;
    /** @} */

    /** @name Vector FP issue activity (Table III) @{ */
    std::uint32_t n_vfp = 0;        ///< VFP uops issued this cycle
    double vfp_lane_ops = 0.0;      ///< sum over issued VFP of a_i * m_i
    double vfp_nonfma_loss = 0.0;   ///< sum of (2 - a_i) * m_i
    double vfp_mask_loss = 0.0;     ///< sum of (v - m_i)
    bool vfp_in_rs = false;         ///< correct-path VFP waiting in RS
    std::uint32_t nonvfp_on_vpu = 0;  ///< VPU slots used by non-VFP ops
    VfpBlame vfp_blame = VfpBlame::kNone;
    /** @} */

    /** Thread yielded this cycle (synchronization). */
    bool unsched = false;

    /** Field-wise equality: equal idle cycles fold into one run. */
    bool operator==(const CycleState &) const = default;
};

}  // namespace stackscope::stacks

#endif  // STACKSCOPE_STACKS_CYCLE_STATE_HPP
