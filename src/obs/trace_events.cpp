#include "obs/trace_events.hpp"

#include <utility>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "stacks/stack_accountant.hpp"

namespace stackscope::obs {

using stacks::CpiComponent;
using stacks::CycleState;
using stacks::Stage;

std::string_view
toString(StallCause cause)
{
    switch (cause) {
      case StallCause::kNone: return "none";
      case StallCause::kIcache: return "icache";
      case StallCause::kBpred: return "bpred";
      case StallCause::kMicrocode: return "microcode";
      case StallCause::kDrain: return "drain";
      case StallCause::kDcache: return "dcache";
      case StallCause::kAluLat: return "alu-lat";
      case StallCause::kDepend: return "depend";
      case StallCause::kOther: return "other";
      case StallCause::kUnsched: return "unsched";
    }
    return "none";
}

namespace {

/**
 * The trace's name for stage @p stage's stall on a cycle that observed
 * @p s: the component the stack accountant charges, except that a
 * draining pipeline keeps its own cause where the stacks say "Other".
 */
StallCause
stallCause(Stage stage, const CycleState &s, stacks::SpeculationMode mode)
{
    const stacks::StallSource source = stacks::stallSource(stage, s, mode);
    if (source == stacks::StallSource::kFrontend &&
        s.fe_reason == stacks::FrontendReason::kDrain)
        return StallCause::kDrain;
    switch (stacks::stallComponent(source, s)) {
      case CpiComponent::kIcache: return StallCause::kIcache;
      case CpiComponent::kBpred: return StallCause::kBpred;
      case CpiComponent::kMicrocode: return StallCause::kMicrocode;
      case CpiComponent::kDcache: return StallCause::kDcache;
      case CpiComponent::kAluLat: return StallCause::kAluLat;
      case CpiComponent::kDepend: return StallCause::kDepend;
      case CpiComponent::kUnsched: return StallCause::kUnsched;
      case CpiComponent::kBase:
      case CpiComponent::kOther:
      case CpiComponent::kCount: break;
    }
    return StallCause::kOther;
}

}  // namespace

PipelineTracer::PipelineTracer(stacks::SpeculationMode mode,
                               std::size_t capacity)
    : mode_(mode), capacity_(capacity == 0 ? 1 : capacity)
{
    ring_.reserve(capacity_ < 1024 ? capacity_ : 1024);
}

void
PipelineTracer::push(const TraceEvent &event)
{
    ++emitted_;
    if (ring_.size() < capacity_) {
        ring_.push_back(event);
        return;
    }
    // Ring is full: overwrite the oldest entry.
    ring_[head_] = event;
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
}

void
PipelineTracer::laneObserve(std::size_t lane, bool active, StallCause cause,
                            std::uint32_t uops, Cycle cycle)
{
    LaneState &ls = lanes_[lane];
    if (ls.open && ls.active == active && (active || ls.cause == cause)) {
        ls.count += uops;
        return;
    }
    if (ls.open)
        closeLane(lane, cycle);
    ls.open = true;
    ls.active = active;
    ls.cause = active ? StallCause::kNone : cause;
    ls.start = cycle;
    ls.count = uops;
}

void
PipelineTracer::closeLane(std::size_t lane, Cycle end)
{
    LaneState &ls = lanes_[lane];
    if (!ls.open)
        return;
    TraceEvent e;
    e.start = ls.start;
    e.dur = end - ls.start;
    e.kind = ls.active ? TraceEventKind::kStageActive
                       : TraceEventKind::kStageStall;
    e.lane = static_cast<std::uint8_t>(lane);
    e.cause = ls.cause;
    e.count = ls.count;
    push(e);
    ls.open = false;
}

void
PipelineTracer::observe(Cycle cycle, const CycleState &s,
                        std::uint64_t squashed_total)
{
    const std::uint32_t disp = s.n_dispatch + s.n_dispatch_wrong;
    const std::uint32_t iss = s.n_issue + s.n_issue_wrong;
    const auto cause = [&](Stage stage, std::uint32_t uops) {
        return uops > 0 ? StallCause::kNone : stallCause(stage, s, mode_);
    };
    laneObserve(static_cast<std::size_t>(Stage::kDispatch), disp > 0,
                cause(Stage::kDispatch, disp), disp, cycle);
    laneObserve(static_cast<std::size_t>(Stage::kIssue), iss > 0,
                cause(Stage::kIssue, iss), iss, cycle);
    laneObserve(static_cast<std::size_t>(Stage::kCommit), s.n_commit > 0,
                cause(Stage::kCommit, s.n_commit), s.n_commit, cycle);
    if (squashed_total > last_squashed_) {
        TraceEvent e;
        e.start = cycle;
        e.kind = TraceEventKind::kFlush;
        e.count = static_cast<std::uint32_t>(squashed_total - last_squashed_);
        push(e);
        last_squashed_ = squashed_total;
    }
    last_cycle_ = cycle;
}

void
PipelineTracer::note(TraceEventKind kind, Cycle cycle, std::uint32_t count)
{
    TraceEvent e;
    e.start = cycle;
    e.kind = kind;
    e.count = count;
    push(e);
}

void
PipelineTracer::finish(Cycle end_cycle)
{
    if (finished_)
        return;
    finished_ = true;
    last_cycle_ = end_cycle;
    for (std::size_t lane = 0; lane < stacks::kNumStages; ++lane)
        closeLane(lane, end_cycle);
}

EventLog
PipelineTracer::take()
{
    // The ring drops oldest-first when full; surface that in the global
    // registry so a truncated trace can never pass for a complete one.
    MetricsRegistry &reg = MetricsRegistry::global();
    reg.counter("obs.trace_events_emitted_total").inc(emitted_);
    reg.counter("obs.trace_events_dropped_total").inc(dropped_);

    EventLog log;
    log.enabled = true;
    log.emitted = emitted_;
    log.dropped = dropped_;
    log.end_cycle = last_cycle_;
    log.events.reserve(ring_.size());
    // Unroll the ring into chronological (emission) order.
    for (std::size_t i = 0; i < ring_.size(); ++i)
        log.events.push_back(ring_[(head_ + i) % ring_.size()]);
    ring_.clear();
    head_ = 0;
    return log;
}

namespace {

const char *
laneName(std::uint8_t lane)
{
    switch (lane) {
      case 0: return "dispatch";
      case 1: return "issue";
      case 2: return "commit";
      default: return "stage";
    }
}

void
writeMeta(JsonWriter &w, unsigned pid, int tid, const char *what,
          const std::string &name)
{
    w.beginObject()
        .key("name").value(what)
        .key("ph").value("M")
        .key("pid").value(pid)
        .key("tid").value(tid)
        .key("args").beginObject().key("name").value(name).endObject()
        .endObject();
}

void
writeEvent(JsonWriter &w, unsigned pid, const TraceEvent &e)
{
    switch (e.kind) {
      case TraceEventKind::kStageActive:
      case TraceEventKind::kStageStall: {
        const bool active = e.kind == TraceEventKind::kStageActive;
        w.beginObject()
            .key("name").value(active ? "active" : toString(e.cause))
            .key("cat").value(active ? "active" : "stall")
            .key("ph").value("X")
            .key("ts").value(static_cast<std::uint64_t>(e.start))
            .key("dur").value(static_cast<std::uint64_t>(e.dur))
            .key("pid").value(pid)
            .key("tid").value(static_cast<int>(e.lane) + 1)
            .key("args").beginObject();
        if (active)
            w.key("uops").value(e.count);
        w.endObject().endObject();
        return;
      }
      case TraceEventKind::kFlush:
        w.beginObject()
            .key("name").value("flush")
            .key("cat").value("pipeline")
            .key("ph").value("i")
            .key("ts").value(static_cast<std::uint64_t>(e.start))
            .key("pid").value(pid)
            .key("tid").value(0)
            .key("s").value("t")
            .key("args").beginObject()
            .key("squashed").value(e.count)
            .endObject().endObject();
        return;
      case TraceEventKind::kWatchdog:
        w.beginObject()
            .key("name").value("watchdog")
            .key("cat").value("pipeline")
            .key("ph").value("i")
            .key("ts").value(static_cast<std::uint64_t>(e.start))
            .key("pid").value(pid)
            .key("tid").value(0)
            .key("s").value("t")
            .key("args").beginObject().endObject()
            .endObject();
        return;
      case TraceEventKind::kValidation:
        w.beginObject()
            .key("name").value("validation")
            .key("cat").value("pipeline")
            .key("ph").value("i")
            .key("ts").value(static_cast<std::uint64_t>(e.start))
            .key("pid").value(pid)
            .key("tid").value(0)
            .key("s").value("t")
            .key("args").beginObject()
            .key("violations").value(e.count)
            .endObject().endObject();
        return;
    }
}

}  // namespace

std::string
chromeTraceJson(const std::vector<EventLog> &cores)
{
    JsonWriter w;
    w.beginObject().key("traceEvents").beginArray();
    for (std::size_t core = 0; core < cores.size(); ++core) {
        const unsigned pid = static_cast<unsigned>(core);
        writeMeta(w, pid, 0, "process_name",
                  "core " + std::to_string(core));
        writeMeta(w, pid, 0, "thread_name", "events");
        for (int lane = 0; lane < static_cast<int>(stacks::kNumStages);
             ++lane) {
            writeMeta(w, pid, lane + 1, "thread_name",
                      laneName(static_cast<std::uint8_t>(lane)));
        }
        for (const TraceEvent &e : cores[core].events)
            writeEvent(w, pid, e);
    }
    std::uint64_t total_emitted = 0;
    std::uint64_t total_dropped = 0;
    for (const EventLog &log : cores) {
        total_emitted += log.emitted;
        total_dropped += log.dropped;
    }
    w.endArray()
        .key("displayTimeUnit").value("ns")
        .key("otherData").beginObject()
        .key("timebase").value("1 simulated cycle = 1 trace microsecond")
        .key("events_emitted").value(total_emitted)
        .key("events_dropped").value(total_dropped)
        .endObject()
        .endObject();
    return w.take();
}

std::string
hostSpansChromeJson(const std::string &process_name,
                    const std::vector<std::string> &lane_names,
                    const std::vector<HostSpan> &spans)
{
    constexpr unsigned pid = 0;
    JsonWriter w;
    w.beginObject().key("traceEvents").beginArray();
    writeMeta(w, pid, 0, "process_name", process_name);
    for (std::size_t lane = 0; lane < lane_names.size(); ++lane)
        writeMeta(w, pid, static_cast<int>(lane), "thread_name",
                  lane_names[lane]);
    for (const HostSpan &s : spans) {
        w.beginObject()
            .key("name").value(s.name)
            .key("cat").value(s.category)
            .key("ph").value("X")
            .key("ts").value(s.start_us)
            .key("dur").value(s.dur_us)
            .key("pid").value(pid)
            .key("tid").value(s.lane)
            .key("args").beginObject().endObject()
            .endObject();
    }
    w.endArray()
        .key("displayTimeUnit").value("ns")
        .key("otherData").beginObject()
        .key("timebase").value("wall clock; 1 trace microsecond = 1 us")
        .endObject()
        .endObject();
    return w.take();
}

}  // namespace stackscope::obs
