/**
 * @file
 * Pipeline event tracing: a bounded ring buffer of structured events with
 * a Chrome trace-event (chrome://tracing / Perfetto) JSON exporter.
 *
 * The tracer consumes the same per-cycle stacks::CycleState observation
 * the stack accountant does, so it attaches to the simulation loop
 * without touching the core's hot path: contiguous cycles in which a
 * stage is active (or stalled for one cause) collapse into a single span
 * event, which is what keeps the event rate — and therefore the overhead
 * — low. A stall's cause comes from the accountant's own Table II
 * decision (stacks::stallSource) under the run's speculation mode, so the
 * trace timeline is the time-resolved view of what the CPI stacks
 * aggregate.
 *
 * Event lanes per core (Chrome "tid"): 0 = pipeline events (flush,
 * watchdog, validation), 1 = dispatch, 2 = issue, 3 = commit. The full
 * mapping to Chrome trace-event JSON is specified in docs/formats.md.
 */

#ifndef STACKSCOPE_OBS_TRACE_EVENTS_HPP
#define STACKSCOPE_OBS_TRACE_EVENTS_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "stacks/components.hpp"
#include "stacks/cycle_state.hpp"
#include "stacks/speculation.hpp"

namespace stackscope::obs {

/** Why a stage produced no uops this cycle (unified cause taxonomy). */
enum class StallCause : std::uint8_t
{
    kNone,       ///< not stalled (active spans)
    kIcache,     ///< frontend: instruction-cache miss
    kBpred,      ///< frontend: wrong-path fetch / redirect refill
    kMicrocode,  ///< frontend: decoder sequencing a microcoded instr
    kDrain,      ///< frontend: trace exhausted, pipeline draining
    kDcache,     ///< backend: blocked on a data-cache miss
    kAluLat,     ///< backend: blocked on a multi-cycle instruction
    kDepend,     ///< backend: blocked on a dependence chain
    kOther,      ///< structural (ports, conflicts) or unattributed
    kUnsched,    ///< thread yielded for synchronization
};

std::string_view toString(StallCause cause);

/** What one ring-buffer entry describes. */
enum class TraceEventKind : std::uint8_t
{
    kStageActive,  ///< span: lane's stage delivered uops (count = uops)
    kStageStall,   ///< span: lane's stage idle for `cause`
    kFlush,        ///< instant: pipeline squash (count = squashed uops)
    kWatchdog,     ///< instant: the run watchdog tripped
    kValidation,   ///< instant: an invariant violation was recorded
};

/** One structured pipeline event (POD; 24 bytes). */
struct TraceEvent
{
    /** Measured cycle the event (or span) starts at. */
    Cycle start = 0;
    /** Span length in cycles; 0 for instant events. */
    Cycle dur = 0;
    TraceEventKind kind = TraceEventKind::kStageActive;
    /** stacks::Stage index for stage spans; 0 otherwise. */
    std::uint8_t lane = 0;
    StallCause cause = StallCause::kNone;
    /** Uops for active spans / flushes; violation count for validation. */
    std::uint32_t count = 0;
};

/** The completed event log of one core's run. */
struct EventLog
{
    bool enabled = false;
    /** Events in emission order (spans close in end-cycle order). */
    std::vector<TraceEvent> events;
    /** Total events emitted, including any overwritten in the ring. */
    std::uint64_t emitted = 0;
    /** Events lost to ring-buffer wrap-around (oldest dropped first). */
    std::uint64_t dropped = 0;
    /** Measured cycle the log was closed at. */
    Cycle end_cycle = 0;
};

/**
 * Bounded pipeline tracer. Call observe() once per measured cycle with
 * the CycleState the core just published; call note() for out-of-band
 * events; call finish() once after the last cycle, then take() the log.
 */
class PipelineTracer
{
  public:
    static constexpr std::size_t kDefaultCapacity = 1 << 16;

    /** @param mode the run's speculation mode, which Table II reads. */
    explicit PipelineTracer(stacks::SpeculationMode mode,
                            std::size_t capacity = kDefaultCapacity);

    /**
     * Observe the cycle that just executed. @p cycle is the measured
     * cycle index (0-based); @p squashed_total is the cumulative
     * CoreStats::squashed_uops counter, used to detect flushes.
     */
    void observe(Cycle cycle, const stacks::CycleState &state,
                 std::uint64_t squashed_total);

    /** Record an instant event (watchdog trip, validation violation). */
    void note(TraceEventKind kind, Cycle cycle, std::uint32_t count = 0);

    /** Close all open spans at @p end_cycle. Idempotent. */
    void finish(Cycle end_cycle);

    /** Move the log out (call after finish()). */
    EventLog take();

  private:
    struct LaneState
    {
        bool open = false;
        bool active = false;
        StallCause cause = StallCause::kNone;
        Cycle start = 0;
        std::uint32_t count = 0;
    };

    void laneObserve(std::size_t lane, bool active, StallCause cause,
                     std::uint32_t uops, Cycle cycle);
    void closeLane(std::size_t lane, Cycle end);
    void push(const TraceEvent &event);

    stacks::SpeculationMode mode_;
    std::size_t capacity_;
    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0;  ///< index of the oldest event once wrapped
    std::uint64_t emitted_ = 0;
    std::uint64_t dropped_ = 0;
    LaneState lanes_[stacks::kNumStages];
    std::uint64_t last_squashed_ = 0;
    Cycle last_cycle_ = 0;
    bool finished_ = false;
};

/**
 * Serialize per-core event logs as one Chrome trace-event JSON document
 * (loadable in chrome://tracing and Perfetto). One trace "pid" per core,
 * lanes as named threads; 1 simulated cycle maps to 1 trace microsecond.
 * The exact mapping is documented in docs/formats.md.
 */
std::string chromeTraceJson(const std::vector<EventLog> &cores);

/**
 * One named wall-clock span on a host timeline (e.g. a serve request
 * phase). Timestamps are microseconds relative to the timeline origin.
 */
struct HostSpan
{
    std::string name;
    std::string category;
    std::int64_t start_us = 0;
    std::int64_t dur_us = 0;
    /** Chrome "tid" lane; names come from the exporter's lane list. */
    int lane = 0;
};

/**
 * Serialize host-side spans as one Chrome trace-event JSON document on a
 * single trace process named @p process_name, with lanes named by
 * @p lane_names (index == HostSpan::lane). Timestamps pass through
 * unscaled: 1 span microsecond = 1 trace microsecond.
 */
std::string hostSpansChromeJson(const std::string &process_name,
                                const std::vector<std::string> &lane_names,
                                const std::vector<HostSpan> &spans);

}  // namespace stackscope::obs

#endif  // STACKSCOPE_OBS_TRACE_EVENTS_HPP
