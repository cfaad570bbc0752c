/**
 * @file
 * Cycle-level superscalar out-of-order core model.
 *
 * The pipeline models the mechanisms the paper's analysis depends on:
 *  - a frontend with instruction-cache misses, microcoded-decode stalls and
 *    branch misprediction handling (wrong-path uops are fetched, dispatched
 *    and issued until the branch executes, then squashed and the frontend
 *    refills);
 *  - dispatch into a ROB and unified reservation stations, blocking when
 *    either is full;
 *  - oldest-first issue limited by issue width and functional-unit/port
 *    availability, with load/store address-conflict blocking;
 *  - execution with per-class latencies, timed data-cache accesses for
 *    loads (including MSHR and bandwidth contention);
 *  - in-order commit.
 *
 * Every cycle the core fills a stacks::CycleState observation and hands
 * it to one stacks::StackAccountant, which keeps the dispatch, issue and
 * commit CPI stacks and the FLOPS stack: exactly the integration style
 * the paper recommends for simulators (§IV: negligible overhead).
 *
 * A run of identical idle cycles is held as one pending CycleState plus
 * a cycle count and handed to the accountant in a single tick(state, n);
 * provably quiet spans extend that run while `now_` skips ahead to the
 * next writeback/refill/redirect event (docs/performance.md).
 * CoreParams::batched_accounting = false turns off both the fold and the
 * skip and ticks every cycle on its own.
 */

#ifndef STACKSCOPE_CORE_OOO_CORE_HPP
#define STACKSCOPE_CORE_OOO_CORE_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bounded_deque.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/wb_calendar.hpp"
#include "stacks/cycle_state.hpp"
#include "stacks/stack_accountant.hpp"
#include "trace/trace_source.hpp"
#include "uarch/branch_predictor.hpp"
#include "uarch/cache_hierarchy.hpp"
#include "uarch/fu_pool.hpp"
#include "uarch/reservation_station.hpp"
#include "uarch/rob.hpp"

namespace stackscope::core {

/** Full static configuration of one core. */
struct CoreParams
{
    unsigned fetch_width = 4;
    unsigned dispatch_width = 4;
    unsigned issue_width = 6;
    unsigned commit_width = 4;

    unsigned rob_size = 192;
    unsigned rs_size = 60;
    unsigned fetch_queue_size = 16;

    /** Frontend refill penalty after a misprediction redirect (cycles). */
    unsigned frontend_depth = 8;

    uarch::FuPoolParams fu{};
    uarch::HierarchyParams mem{};
    uarch::BranchPredictorParams bpred{};

    /** Wrong-path handling for the dispatch and issue stacks (§III-B). */
    stacks::SpeculationMode spec_mode = stacks::SpeculationMode::kOracle;

    /** Master switch for all stack accounting (overhead benchmark). */
    bool accounting_enabled = true;

    /**
     * Engine selection: true (default) folds runs of identical idle
     * cycles into one accountant tick and skips ahead across provably
     * quiet spans; false ticks every cycle on its own, with no fold and
     * no skip: the per-cycle oracle the golden identity suite compares
     * against (SimOptions::reference_engine).
     */
    bool batched_accounting = true;

    /**
     * Ablation knob: account each stage with its *native* width instead of
     * the normalized minimum width of §III-A. Breaks the equal-base
     * property across stacks; exists to demonstrate why the paper
     * normalizes (see bench/ablation_design_choices).
     */
    bool accounting_native_widths = false;

    /** Machine vector width (v of Table III) for the FLOPS stack. */
    unsigned flops_vec_lanes = 16;

    /** Seed for the deterministic wrong-path uop synthesizer. */
    std::uint64_t wrong_path_seed = 7;

    /** Effective accounting width: min over all stage widths (§III-A). */
    unsigned
    effectiveWidth() const
    {
        unsigned w = dispatch_width;
        w = std::min(w, issue_width);
        w = std::min(w, commit_width);
        return std::max(1u, w);
    }
};

/**
 * Wall-time breakdown of the pipeline stages, accumulated by
 * OooCore::cycleProfiled() when a profile sink is attached
 * (`bench/simspeed --profile`). Nanoseconds of std::chrono::steady_clock;
 * `accounting_ns` covers the accountant's ticks, the pending idle run and
 * skip-ahead.
 */
struct StageProfile
{
    std::uint64_t writeback_ns = 0;
    std::uint64_t commit_ns = 0;
    std::uint64_t issue_ns = 0;
    std::uint64_t dispatch_ns = 0;
    std::uint64_t fetch_ns = 0;
    std::uint64_t accounting_ns = 0;
    std::uint64_t cycles = 0;  ///< profiled cycle() invocations
};

/** Aggregate run counters not covered by the stacks. */
struct CoreStats
{
    Cycle cycles = 0;
    std::uint64_t instrs_committed = 0;  ///< correct-path uops (incl. yields)
    std::uint64_t wrong_path_dispatched = 0;
    std::uint64_t branches = 0;
    std::uint64_t branch_mispredicts = 0;
    std::uint64_t loads = 0;
    std::uint64_t l1d_load_misses = 0;
    std::uint64_t squashed_uops = 0;
    std::uint64_t flops_issued = 0;  ///< actual flops (sum of a*m over VFP)
};

/**
 * The core. Construct with a trace and (optionally) a shared uncore, call
 * run(), then read stacks and stats.
 */
class OooCore
{
  public:
    OooCore(const CoreParams &params,
            std::unique_ptr<trace::TraceSource> trace,
            uarch::Uncore *shared_uncore = nullptr);

    /** Advance one cycle (or, when skip-ahead engages, one quiet span). */
    void cycle();

    /** Trace exhausted and pipeline drained. */
    bool done() const;

    /**
     * Run until done (or @p max_cycles when non-zero) and finalize
     * accounting.
     */
    void run(Cycle max_cycles = 0);

    /** Flush speculative accounting state; called by run(). */
    void finalizeAccounting();

    /**
     * Restart measurement at the current cycle: zero the stacks and
     * statistics while keeping all microarchitectural state (caches,
     * predictor, pipeline contents) warm. This is the paper's
     * fast-forward-then-measure methodology (§IV).
     */
    void resetMeasurement();

    /**
     * Attach a per-stage wall-time profile sink (nullptr detaches).
     * While attached, cycle() routes through a timed twin that brackets
     * each stage with steady_clock reads; when detached the hot path pays
     * one predicted branch. Used by `bench/simspeed --profile`.
     */
    void setStageProfile(StageProfile *sink) { profile_ = sink; }

    /**
     * Absolute-cycle ceiling for skip-ahead: a quiet span never advances
     * `now_` past this value, so cycle-exact consumers (watchdogs,
     * interval snapshots, periodic validators) observe the same
     * boundaries as a never-skipping run. kNeverCycle disables the cap;
     * drivers refresh it every iteration.
     */
    void setCycleHorizon(Cycle horizon) { cycle_horizon_ = horizon; }

    /**
     * The `pending_stores_` ordering invariant the load-alias early-break
     * relies on: sequence numbers strictly increase front to back.
     * Dispatch appends in program order and both removal paths (commit
     * pops the front, squash pops the wrong-path suffix from the back)
     * preserve it; validate::IntervalValidator asserts it under
     * `--validate strict`.
     */
    bool storeQueueSorted() const;

    /** @name Results @{ */
    /** Cycles elapsed since the last resetMeasurement() (or start). */
    Cycle cycles() const { return now_ - measure_start_cycle_; }
    /** Absolute simulated cycle count. */
    Cycle absoluteCycles() const { return now_; }
    const CoreStats &stats() const { return stats_; }
    double
    cpi() const
    {
        return stats_.instrs_committed == 0
                   ? 0.0
                   : static_cast<double>(cycles()) /
                         static_cast<double>(stats_.instrs_committed);
    }
    /** The stack accountant; hands over the pending idle run first. */
    const stacks::StackAccountant &accountant() const;
    /** The observation record of the most recently executed cycle. */
    const stacks::CycleState &cycleState() const { return cs_; }
    const uarch::CacheHierarchy &caches() const { return mem_; }
    const uarch::BranchPredictor &branchPredictor() const { return bp_; }
    /** @} */

    const CoreParams &params() const { return params_; }

  private:
    /** Dependence scoreboard entry for one correct-path instruction. */
    /**
     * Packed to 32 bytes (two per cache line): the dispatch stage rewrites
     * one entry per uop, so the footprint is hot.
     */
    struct ScoreEntry
    {
        std::uint64_t trace_index = kNoSeq;
        Cycle complete_at = kNeverCycle;
        std::uint32_t exec_latency = 1;
        bool is_load = false;
        bool dcache_miss = false;
        bool issued = false;
        /**
         * ROB slots of RS entries parked (readiness bound kNeverCycle)
         * until this producer issues; issueOne() re-arms them through
         * ReservationStations::rearmSlot(). A full list simply leaves
         * further consumers on the evaluate-every-cycle path, and a stale
         * wake is only a spurious re-evaluation, never a correctness
         * hazard.
         */
        std::uint8_t num_waiters = 0;
        std::uint16_t waiters[4] = {};
    };

    /** Outstanding (uncommitted) store for load-conflict checks. */
    struct PendingStore
    {
        unsigned slot = 0;
        SeqNum seq = kNoSeq;
        Addr word_addr = 0;
    };

    /**
     * Counting-filter buckets for pending-store word addresses (power of
     * two; collisions only cost a redundant scan, never a missed one).
     */
    static constexpr std::size_t kStoreFilterSize = 1024;

    void doWriteback();
    void doCommit();
    void doIssue();
    void doDispatch();
    void doFetch();
    /** cycle() twin that brackets every stage with steady_clock reads. */
    void cycleProfiled();
    /** One descheduled (yield) step, shared by cycle()/cycleProfiled(). */
    void stepUnsched();
    /** Account cs_ for @p n cycles: extend the pending idle run or tick. */
    void account(Cycle n = 1);
    /** Hand the pending idle run to the accountant in one tick. */
    void flushIdleRun();
    void maybeSkipAhead();

    void fetchCorrectPath(unsigned budget);
    void fetchWrongPath(unsigned budget);
    void squashAfter(unsigned branch_slot, SeqNum branch_seq);

    ScoreEntry &scoreSlot(std::uint64_t trace_index);
    bool producerComplete(std::uint64_t trace_index) const;
    /**
     * The scoreboard entry for @p trace_index iff it still holds that
     * producer and the producer is not yet complete; nullptr otherwise.
     * The ring is sized so that no producer a dispatched uop can name has
     * been recycled; blame selection still goes through this guard, since
     * a recycled entry's is_load/dcache_miss/exec_latency belong to a
     * long-gone instruction.
     */
    const ScoreEntry *liveIncompleteProducer(std::uint64_t trace_index) const;
    Addr
    ifetchLine(Addr pc) const
    {
        return ifetch_line_shift_ != 0
                   ? pc >> ifetch_line_shift_
                   : pc / mem_.params().l1i.line_bytes;
    }
    bool entryReady(const uarch::InflightInstr &e, bool &store_conflict) const;
    stacks::BackendBlame blameProducer(const uarch::InflightInstr &e) const;
    /**
     * For an RS entry that failed entryReady() on a producer dependence:
     * the earliest cycle it could become ready (0 when unknowable, i.e.
     * some producer has not issued yet) and the Table II blame it will
     * carry until then. Mirrors blameProducer() exactly; the pair feeds
     * the per-slot ready_lb_ cache that lets doIssue() skip re-evaluating
     * provably blocked entries.
     */
    void classifyBlocked(const uarch::InflightInstr &e, Cycle &lb,
                         stacks::BackendBlame &blame,
                         std::uint64_t &unissued_src) const;
    stacks::BackendBlame headBlame() const;
    void captureHeadState();
    void issueOne(unsigned slot);
    /** @name Branch events for spec-counter accounting @{ */
    void onBranchFetched(SeqNum seq);
    void onBranchResolved(SeqNum seq, bool mispredicted);
    /** @} */
    void recountRsVfp();
    /** FLOPS-stack inputs (cs_.vfp_in_rs / vfp_blame) from the RS walk. */
    void scanVfpWait();

    CoreParams params_;
    std::unique_ptr<trace::TraceSource> trace_;
    uarch::CacheHierarchy mem_;
    uarch::BranchPredictor bp_;
    uarch::FuPool fu_;
    uarch::Rob rob_;
    uarch::ReservationStations rs_;

    Cycle now_ = 0;
    Cycle measure_start_cycle_ = 0;
    SeqNum next_seq_ = 0;
    std::uint64_t next_trace_index_ = 0;
    bool trace_done_ = false;
    CoreStats stats_;

    // Frontend state.
    BoundedDeque<uarch::InflightInstr> fetch_q_;
    trace::DynInstr pending_{};
    std::uint64_t pending_index_ = 0;
    bool has_pending_ = false;
    bool pending_decode_paid_ = false;
    Cycle fetch_ready_at_ = 0;       ///< icache-miss stall
    unsigned decode_busy_ = 0;       ///< microcode decode cycles remaining
    Addr last_fetch_line_ = ~Addr{0};
    /** log2(l1i line bytes) when a power of two, else 0 (= use division). */
    unsigned ifetch_line_shift_ = 0;
    stacks::FrontendReason fe_reason_ = stacks::FrontendReason::kNone;

    // Wrong-path / redirect state.
    bool wrong_path_mode_ = false;
    Cycle redirect_until_ = 0;
    Rng wp_rng_;
    SeqNum wp_last_producer_seq_ = kNoSeq;
    int wp_last_producer_slot_ = -1;

    // Synchronization yield state.
    Cycle unsched_until_ = 0;

    // Occupancy counters for "empty of correct-path work" tests.
    unsigned fetch_q_correct_ = 0;
    unsigned rob_correct_ = 0;
    unsigned rs_correct_ = 0;
    /** Correct-path VFP uops waiting in the RS (elides the Table III scan). */
    unsigned rs_vfp_correct_ = 0;

    // Backend bookkeeping. (Per-entry readiness bounds + cached blames
    // live inside rs_, position-parallel with its age-ordered slot list,
    // so the issue walk scans them with SIMD; see reservation_station.hpp.)
    /**
     * Dependence scoreboard: a ring indexed by trace index & score_mask_.
     * Its size is the power of two above kMaxDepDistance + rob_size. A
     * producer's entry is overwritten only by the uop `size` indices
     * later, and every reader lies within kMaxDepDistance of its producer
     * and within rob_size of the youngest dispatched uop, so no reader
     * ever sees its producer's entry recycled.
     */
    std::vector<ScoreEntry> scoreboard_;
    std::uint64_t score_mask_;
    /** RS positions issued this cycle (ascending walk order). */
    std::vector<unsigned> issued_scratch_;
    /**
     * doIssue() O(1) fast path. While rs_counts_valid_, rs_active_ counts
     * RS entries whose readiness bound has been reached (they must be
     * re-evaluated), and next_wake_ is the earliest finite bound among
     * the parked rest. When rs_active_ == 0 and now_ < next_wake_, no
     * entry can possibly issue this cycle and the per-entry walk is
     * skipped: blame replays from the oldest entry's cached value.
     * Invalidated by any issue (wakeups shift entries to active) or
     * squash; revalidated by the next completed full walk.
     */
    bool rs_counts_valid_ = false;
    unsigned rs_active_ = 0;
    Cycle next_wake_ = 0;
    /**
     * Set by issueOne() when a producer wakeup actually re-armed a queued
     * RS entry; the issue walk then refreshes the current block's due
     * mask. Issues without waiters (the vast majority) skip the rescan.
     */
    bool rearmed_waiter_ = false;
    WbCalendar wb_cal_;
    BoundedDeque<PendingStore> pending_stores_;
    /** Per-bucket count of pending-store word addresses. */
    std::vector<std::uint16_t> store_filter_;

    // Accounting.
    stacks::StackAccountant acct_;
    stacks::CycleState cs_;
    /** Pending idle run: idle_run_ observed on idle_run_cycles_ cycles. */
    stacks::CycleState idle_run_;
    Cycle idle_run_cycles_ = 0;

    // Skip-ahead state.
    bool progress_ = false;  ///< any state mutation in the current cycle
    /** Folding is on and no other core shares the uncore. */
    bool skip_allowed_ = false;
    Cycle cycle_horizon_ = kNeverCycle;
    StageProfile *profile_ = nullptr;
};

}  // namespace stackscope::core

#endif  // STACKSCOPE_CORE_OOO_CORE_HPP
