/**
 * Tests for the pipeline event tracer: span merging, stall attribution,
 * ring-buffer bounds, and the Chrome trace-event JSON exporter.
 */

#include "obs/trace_events.hpp"

#include <algorithm>
#include <cctype>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "json_checker.hpp"
#include "obs/json.hpp"
#include "sim/presets.hpp"
#include "sim/simulation.hpp"
#include "stacks/stack_accountant.hpp"
#include "trace/synthetic_generator.hpp"
#include "trace/workload_library.hpp"

namespace stackscope::obs {
namespace {

using stacks::CycleState;
using stacks::SpeculationMode;
using stacks::Stage;

constexpr auto kDispatchLane =
    static_cast<std::uint8_t>(Stage::kDispatch);

CycleState
activeCycle(std::uint32_t uops = 2)
{
    CycleState s;
    s.n_dispatch = uops;
    s.n_issue = uops;
    s.n_commit = uops;
    return s;
}

CycleState
icacheStallCycle()
{
    CycleState s;  // all stage counts zero
    s.fe_reason = stacks::FrontendReason::kIcache;
    return s;
}

std::vector<TraceEvent>
laneEvents(const EventLog &log, std::uint8_t lane)
{
    std::vector<TraceEvent> out;
    for (const TraceEvent &e : log.events) {
        if ((e.kind == TraceEventKind::kStageActive ||
             e.kind == TraceEventKind::kStageStall) &&
            e.lane == lane)
            out.push_back(e);
    }
    return out;
}

TEST(PipelineTracer, MergesContiguousCyclesIntoSpans)
{
    PipelineTracer tracer(SpeculationMode::kOracle);
    Cycle cycle = 0;
    for (int i = 0; i < 3; ++i)
        tracer.observe(cycle++, activeCycle(), 0);
    for (int i = 0; i < 2; ++i)
        tracer.observe(cycle++, icacheStallCycle(), 0);
    tracer.finish(cycle);
    const EventLog log = tracer.take();

    const std::vector<TraceEvent> lane = laneEvents(log, kDispatchLane);
    ASSERT_EQ(lane.size(), 2u);
    EXPECT_EQ(lane[0].kind, TraceEventKind::kStageActive);
    EXPECT_EQ(lane[0].start, 0u);
    EXPECT_EQ(lane[0].dur, 3u);
    EXPECT_EQ(lane[0].count, 6u);  // 3 cycles x 2 uops
    EXPECT_EQ(lane[1].kind, TraceEventKind::kStageStall);
    EXPECT_EQ(lane[1].cause, StallCause::kIcache);
    EXPECT_EQ(lane[1].start, 3u);
    EXPECT_EQ(lane[1].dur, 2u);
}

TEST(PipelineTracer, StallCauseFollowsAccountantAttribution)
{
    // A correct-path uop waits in the fetch queue but the backend is
    // full: Table II blames the ROB head.
    CycleState s;
    s.fe_has_correct = true;
    s.fe_has_any = true;
    s.backend_full = true;
    s.head_blame = stacks::BackendBlame::kDcache;

    PipelineTracer tracer(SpeculationMode::kOracle);
    tracer.observe(0, s, 0);
    tracer.finish(1);
    const EventLog log = tracer.take();
    const std::vector<TraceEvent> lane = laneEvents(log, kDispatchLane);
    ASSERT_EQ(lane.size(), 1u);
    EXPECT_EQ(lane[0].kind, TraceEventKind::kStageStall);
    EXPECT_EQ(lane[0].cause, StallCause::kDcache);
}

/** "ALU lat" -> "alu-lat": a CPI component's name as a trace cause. */
std::string
causeName(stacks::CpiComponent c)
{
    std::string out(stacks::componentName(c));
    for (char &ch : out) {
        ch = ch == ' ' ? '-'
                       : static_cast<char>(
                             std::tolower(static_cast<unsigned char>(ch)));
    }
    return out;
}

/** A random observation: any mix of frontend, ROB, RS and yield facts,
 *  with each stage idle about half the time. */
CycleState
randomObservation(Rng &rng)
{
    using stacks::BackendBlame;
    using stacks::FrontendReason;
    CycleState s;
    s.fe_has_correct = rng.chance(0.5);
    s.fe_has_any = s.fe_has_correct || rng.chance(0.5);
    s.fe_reason = static_cast<FrontendReason>(rng.below(5));
    s.backend_full = rng.chance(0.5);
    s.rob_empty_correct = rng.chance(0.3);
    s.rob_empty_any = s.rob_empty_correct && rng.chance(0.5);
    s.head_incomplete = rng.chance(0.5);
    s.head_blame = static_cast<BackendBlame>(rng.below(4));
    s.rs_empty_correct = rng.chance(0.3);
    s.rs_empty_any = s.rs_empty_correct && rng.chance(0.5);
    s.ready_unissued = rng.chance(0.3);
    s.issue_blame = static_cast<BackendBlame>(rng.below(4));
    s.unsched = rng.chance(0.05);
    const auto uops = [&](std::uint64_t bound) {
        return rng.chance(0.5) ? 0u : static_cast<std::uint32_t>(
                                          rng.below(bound));
    };
    s.n_dispatch = uops(3);
    s.n_dispatch_wrong = uops(2);
    s.n_issue = uops(3);
    s.n_issue_wrong = uops(2);
    s.n_commit = uops(3);
    return s;
}

TEST(PipelineTracer, StallCausesNameTheAccountantsComponents)
{
    // For every fully stalled stage, in every speculation mode, the lane's
    // cause names the component the stack accountant charged for that
    // cycle. The trace's "drain" is the stacks' "Other".
    Rng rng(0x7ace5eed);
    for (const SpeculationMode mode : stacks::kSpeculationModes) {
        SCOPED_TRACE(std::string(stacks::toString(mode)));
        for (int i = 0; i < 3000; ++i) {
            const CycleState s = randomObservation(rng);
            stacks::StackAccountant acct({{4, 4, 4}, mode, 2, 16});
            acct.tick(s);
            acct.finalize();
            PipelineTracer tracer(mode);
            tracer.observe(0, s, 0);
            tracer.finish(1);
            const EventLog log = tracer.take();
            for (std::uint8_t lane = 0; lane < stacks::kNumStages; ++lane) {
                const std::vector<TraceEvent> spans = laneEvents(log, lane);
                ASSERT_EQ(spans.size(), 1u);
                if (spans[0].kind != TraceEventKind::kStageStall)
                    continue;
                // A fresh accountant charges a fully stalled stage's
                // whole cycle to one component.
                std::string charged;
                acct.cycles(static_cast<Stage>(lane))
                    .forEach([&](stacks::CpiComponent c, double v) {
                        if (v == 1.0)
                            charged = causeName(c);
                    });
                std::string cause(toString(spans[0].cause));
                if (cause == "drain")
                    cause = "other";
                EXPECT_EQ(cause, charged)
                    << "lane " << int(lane) << ", case " << i;
            }
            if (::testing::Test::HasFailure())
                return;
        }
    }
}

TEST(PipelineTracer, FlushesBecomeInstantEvents)
{
    PipelineTracer tracer(SpeculationMode::kOracle);
    tracer.observe(0, activeCycle(), 0);
    tracer.observe(1, activeCycle(), 7);  // 7 uops squashed this cycle
    tracer.observe(2, activeCycle(), 7);  // no further squashes
    tracer.finish(3);
    const EventLog log = tracer.take();

    std::vector<TraceEvent> flushes;
    for (const TraceEvent &e : log.events)
        if (e.kind == TraceEventKind::kFlush)
            flushes.push_back(e);
    ASSERT_EQ(flushes.size(), 1u);
    EXPECT_EQ(flushes[0].start, 1u);
    EXPECT_EQ(flushes[0].count, 7u);
}

TEST(PipelineTracer, RingBufferBoundsMemory)
{
    PipelineTracer tracer(SpeculationMode::kOracle, 4);
    // Alternate active/stall each cycle so every cycle closes a span on
    // all three lanes: far more events than capacity.
    for (Cycle c = 0; c < 40; ++c)
        tracer.observe(c, (c % 2 == 0) ? activeCycle() : icacheStallCycle(),
                       0);
    tracer.finish(40);
    const EventLog log = tracer.take();

    EXPECT_EQ(log.events.size(), 4u);
    EXPECT_GT(log.emitted, 4u);
    EXPECT_EQ(log.dropped, log.emitted - 4u);
    // Survivors are the newest events, still in chronological order.
    for (std::size_t i = 1; i < log.events.size(); ++i)
        EXPECT_GE(log.events[i].start + log.events[i].dur,
                  log.events[i - 1].start);
}

TEST(PipelineTracer, NoteRecordsInstantEvents)
{
    PipelineTracer tracer(SpeculationMode::kOracle);
    tracer.note(TraceEventKind::kWatchdog, 123);
    tracer.note(TraceEventKind::kValidation, 456, 2);
    tracer.finish(500);
    const EventLog log = tracer.take();
    ASSERT_EQ(log.events.size(), 2u);
    EXPECT_EQ(log.events[0].kind, TraceEventKind::kWatchdog);
    EXPECT_EQ(log.events[0].start, 123u);
    EXPECT_EQ(log.events[1].kind, TraceEventKind::kValidation);
    EXPECT_EQ(log.events[1].count, 2u);
}

TEST(PipelineTracer, SimulationSpansTileEveryLane)
{
    trace::SyntheticParams p = trace::findWorkload("gcc").params;
    p.num_instrs = 20'000;
    const trace::SyntheticGenerator gen(p);
    sim::SimOptions so;
    so.obs.trace_events = true;
    const sim::SimResult r = sim::simulate(sim::bdwConfig(), gen, so);

    ASSERT_TRUE(r.events.enabled);
    EXPECT_EQ(r.events.dropped, 0u);
    EXPECT_EQ(r.events.end_cycle, r.cycles);
    // Per lane, spans must cover [0, cycles) contiguously: the trace is
    // the complete time-resolved view of the measured window.
    for (std::uint8_t lane = 0; lane < stacks::kNumStages; ++lane) {
        const std::vector<TraceEvent> spans = laneEvents(r.events, lane);
        ASSERT_FALSE(spans.empty());
        Cycle expect_start = 0;
        for (const TraceEvent &e : spans) {
            EXPECT_EQ(e.start, expect_start) << "lane " << int(lane);
            expect_start = e.start + e.dur;
        }
        EXPECT_EQ(expect_start, r.cycles) << "lane " << int(lane);
    }
}

TEST(ChromeTraceJson, ProducesValidJsonWithMetadata)
{
    trace::SyntheticParams p = trace::findWorkload("mcf").params;
    p.num_instrs = 10'000;
    const trace::SyntheticGenerator gen(p);
    sim::SimOptions so;
    so.obs.trace_events = true;
    const sim::SimResult r = sim::simulate(sim::bdwConfig(), gen, so);

    const std::string json = chromeTraceJson({r.events});
    testutil::JsonChecker checker(json);
    EXPECT_TRUE(checker.valid());
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    for (const char *name : {"\"dispatch\"", "\"issue\"", "\"commit\"",
                             "\"events\"", "\"process_name\""})
        EXPECT_NE(json.find(name), std::string::npos) << name;
}

TEST(JsonWriter, EscapesControlAndQuoteCharacters)
{
    JsonWriter w;
    w.beginObject().key("k\"ey").value("a\nb\tc\x01" "d\\").endObject();
    testutil::JsonChecker checker(w.str());
    EXPECT_TRUE(checker.valid());
    EXPECT_EQ(w.str(), "{\"k\\\"ey\":\"a\\nb\\tc\\u0001d\\\\\"}");
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull)
{
    JsonWriter w;
    w.beginArray()
        .value(std::numeric_limits<double>::quiet_NaN())
        .value(std::numeric_limits<double>::infinity())
        .value(1.5)
        .endArray();
    EXPECT_EQ(w.str(), "[null,null,1.5]");
}

}  // namespace
}  // namespace stackscope::obs
