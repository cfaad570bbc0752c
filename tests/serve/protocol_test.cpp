/**
 * @file
 * Protocol-contract tests: every assertion here mirrors a normative
 * statement in docs/serving.md. When a test in this file fails, either
 * the implementation or the document is wrong — fix whichever it is,
 * in the same commit (the frames are a versioned wire contract).
 */

#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <string>

#include "obs/json_parse.hpp"
#include "obs/report.hpp"
#include "runner/job_spec.hpp"
#include "sim/presets.hpp"
#include "sim/simulation.hpp"
#include "trace/synthetic_generator.hpp"
#include "trace/workload_library.hpp"

namespace stackscope::serve {
namespace {

obs::JsonValue
parseSpecJson(const std::string &text)
{
    return obs::parseJson(text);
}

// ---------------------------------------------------------------------
// Frame bytes: docs/serving.md "Frame reference" shows these documents
// verbatim; the daemon must emit exactly these bytes.

TEST(ProtocolFrameTest, HelloFrameMatchesDocumentedBytes)
{
    EXPECT_EQ(helloFrame(),
              "{\"type\":\"hello\",\"schema\":\"stackscope-serve\","
              "\"version\":1}\n");
}

TEST(ProtocolFrameTest, PongFrameMatchesDocumentedBytes)
{
    EXPECT_EQ(pongFrame("42"), "{\"type\":\"pong\",\"id\":\"42\"}\n");
}

TEST(ProtocolFrameTest, ProgressFrameMatchesDocumentedBytes)
{
    // Heartbeats carry the server-minted request id so a client can
    // fetch /tracez?id=... for a request that is still in flight.
    EXPECT_EQ(progressFrame("1", "r-7", "00112233aabbccdd", 500),
              "{\"type\":\"progress\",\"id\":\"1\",\"request\":\"r-7\","
              "\"key\":\"00112233aabbccdd\",\"elapsed_ms\":500}\n");
}

TEST(ProtocolFrameTest, ErrorFrameMatchesDocumentedBytes)
{
    EXPECT_EQ(errorFrame("1", ErrorCategory::kUsage, "unknown key 'x'"),
              "{\"type\":\"error\",\"id\":\"1\",\"category\":\"usage\","
              "\"message\":\"unknown key 'x'\"}\n");
}

TEST(ProtocolFrameTest, ResultFrameSplicesReportVerbatimAsLastMember)
{
    const std::string report = "{\"schema\":\"stackscope-report\"}";
    const std::string frame = resultFrame("7", "r-9", "deadbeefdeadbeef",
                                          CacheOutcome::kHit, report);
    EXPECT_EQ(frame,
              "{\"type\":\"result\",\"id\":\"7\",\"request\":\"r-9\","
              "\"key\":\"deadbeefdeadbeef\",\"cache\":\"hit\","
              "\"report\":" + report + "}\n");
    // The documented client recipe: report bytes = everything between
    // `"report":` and the final `}` of the frame. It must reproduce the
    // spliced report exactly.
    const std::size_t start = frame.find("\"report\":") + 9;
    const std::size_t end = frame.rfind('}');
    EXPECT_EQ(frame.substr(start, end - start), report);
}

TEST(ProtocolFrameTest, StatusFrameCarriesCacheSloAndHostMetrics)
{
    const ResultCache::Stats stats{};
    const SloTracker::Summary slo{};
    const obs::MetricsSnapshot snap{};
    const std::string frame = statusFrame("s", stats, slo, snap);
    const obs::JsonValue doc = obs::parseJson(
        std::string_view(frame.data(), frame.size() - 1));
    ASSERT_NE(doc.find("cache"), nullptr);
    EXPECT_NE(doc.find("cache")->find("waiting"), nullptr)
        << "coalesced-waiter count is part of the cache block";
    const obs::JsonValue *s = doc.find("slo");
    ASSERT_NE(s, nullptr);
    for (const char *key :
         {"window_s", "objective_ms", "target", "requests", "errors",
          "error_rate", "within_objective", "attainment", "p50_ms",
          "p99_ms", "ok"}) {
        EXPECT_NE(s->find(key), nullptr) << "slo." << key;
    }
    EXPECT_NE(doc.find("host_metrics"), nullptr);
}

TEST(ProtocolFrameTest, EveryFrameIsOneParseableLine)
{
    const ResultCache::Stats stats{};
    const SloTracker::Summary slo{};
    const obs::MetricsSnapshot snap{};
    for (const std::string &frame :
         {helloFrame(), pongFrame("i"), progressFrame("i", "r", "k", 1),
          errorFrame("i", ErrorCategory::kInternal, "m"),
          resultFrame("i", "r", "k", CacheOutcome::kMiss, "{}"),
          statusFrame("i", stats, slo, snap)}) {
        ASSERT_FALSE(frame.empty());
        EXPECT_EQ(frame.back(), '\n');
        EXPECT_EQ(frame.find('\n'), frame.size() - 1)
            << "frames must not contain embedded newlines";
        EXPECT_NO_THROW(obs::parseJson(
            std::string_view(frame.data(), frame.size() - 1)));
    }
}

// ---------------------------------------------------------------------
// Request parsing.

TEST(ProtocolRequestTest, ParsesPingStatuszAnalyze)
{
    EXPECT_EQ(parseRequest("{\"type\":\"ping\",\"id\":\"a\"}").kind,
              Request::Kind::kPing);
    EXPECT_EQ(parseRequest("{\"type\":\"statusz\"}").kind,
              Request::Kind::kStatusz);
    const Request analyze = parseRequest(
        "{\"type\":\"analyze\",\"id\":\"9\","
        "\"spec\":{\"workload\":\"mcf\",\"machine\":\"bdw\"}}");
    EXPECT_EQ(analyze.kind, Request::Kind::kAnalyze);
    EXPECT_EQ(analyze.id, "9");
    EXPECT_TRUE(analyze.spec.isObject());
}

TEST(ProtocolRequestTest, RejectsMalformedRequests)
{
    EXPECT_THROW(parseRequest("not json"), StackscopeError);
    EXPECT_THROW(parseRequest("[1,2]"), StackscopeError);
    EXPECT_THROW(parseRequest("{\"type\":\"nope\"}"), StackscopeError);
    EXPECT_THROW(parseRequest("{\"id\":\"1\"}"), StackscopeError);
    EXPECT_THROW(parseRequest("{\"type\":\"ping\",\"id\":7}"),
                 StackscopeError);
    EXPECT_THROW(parseRequest("{\"type\":\"analyze\",\"id\":\"1\"}"),
                 StackscopeError)
        << "analyze without spec";
    EXPECT_THROW(
        parseRequest("{\"type\":\"ping\",\"unexpected\":true}"),
        StackscopeError)
        << "unknown frame keys are usage errors";
}

// ---------------------------------------------------------------------
// Spec parsing: defaults mirror the CLI so wire specs hash identically
// to equivalent CLI invocations (the cache-key contract).

TEST(ProtocolSpecTest, DefaultsMatchCliRunConventions)
{
    const runner::JobSpec job = parseSpec(parseSpecJson(
        "{\"workload\":\"mcf\",\"machine\":\"bdw\",\"instrs\":20000}"));
    EXPECT_EQ(job.workload, "mcf");
    EXPECT_EQ(job.machine, "bdw");
    EXPECT_EQ(job.cores, 1u);
    // JobSpec::instrs is measured + warmup, warmup defaulting to half
    // the measured count — the sweep/CLI convention.
    EXPECT_EQ(job.instrs, 30'000u);
    ASSERT_TRUE(job.options.warmup_instrs.has_value());
    EXPECT_EQ(*job.options.warmup_instrs, 10'000u);
    EXPECT_FALSE(job.options.reference_engine);
    EXPECT_EQ(job.options.validation, validate::ValidationPolicy::kOff);
}

TEST(ProtocolSpecTest, HashMatchesEquivalentCliJobSpec)
{
    const runner::JobSpec wire = parseSpec(parseSpecJson(
        "{\"workload\":\"gcc\",\"machine\":\"knl\",\"cores\":2,"
        "\"instrs\":10000}"));

    // The JobSpec the CLI's sweep/run path would build for
    // `--workload gcc --machine knl --cores 2 --instrs 10000`.
    runner::JobSpec cli;
    cli.workload = "gcc";
    cli.machine = "knl";
    cli.cores = 2;
    cli.instrs = 15'000;  // totalInstrs(): measured + warmup
    cli.options.warmup_instrs = 5'000;
    EXPECT_EQ(runner::specHash(wire), runner::specHash(cli))
        << "wire spec and CLI spec must share one cache identity";
}

TEST(ProtocolSpecTest, DocumentedExamplesHashToPinnedKeys)
{
    // The keys docs/serving.md prints for its example specs; the
    // canonical bytes behind them are pinned in tests/runner.
    EXPECT_EQ(runner::specHash(parseSpec(parseSpecJson(
                  "{\"workload\":\"mcf\",\"machine\":\"bdw\","
                  "\"instrs\":20000}"))),
              "5afabf17cffc7e3f");
    EXPECT_EQ(runner::specHash(parseSpec(parseSpecJson(
                  "{\"workload\":\"bwaves\",\"machine\":\"skx\","
                  "\"cores\":8,\"instrs\":5000000}"))),
              "f658455b17bc4d00");
}

TEST(ProtocolSpecTest, OptionsRoundTrip)
{
    const runner::JobSpec job = parseSpec(parseSpecJson(
        "{\"workload\":\"mcf\",\"machine\":\"bdw\",\"instrs\":1000,"
        "\"warmup\":0,\"options\":{\"spec_mode\":\"simple\","
        "\"engine\":\"reference\",\"validate\":\"strict\","
        "\"max_cycles\":5000,\"watchdog_cycles\":100000,"
        "\"deadline_cycles\":200000,\"job_timeout_seconds\":1.5,"
        "\"interval_cycles\":250}}"));
    EXPECT_EQ(job.instrs, 1000u);
    EXPECT_EQ(*job.options.warmup_instrs, 0u);
    EXPECT_EQ(job.options.spec_mode, stacks::SpeculationMode::kSimple);
    EXPECT_TRUE(job.options.reference_engine);
    EXPECT_EQ(job.options.validation, validate::ValidationPolicy::kStrict);
    EXPECT_EQ(job.options.max_cycles, 5000u);
    EXPECT_EQ(job.options.watchdog_cycles, 100'000u);
    EXPECT_EQ(job.options.deadline_cycles, 200'000u);
    EXPECT_DOUBLE_EQ(job.options.job_timeout_seconds, 1.5);
    EXPECT_EQ(job.options.obs.interval_cycles, 250u);
}

TEST(ProtocolSpecTest, RejectsUnknownKeysEverywhere)
{
    // Unknown keys would silently alias distinct intents onto one cache
    // key, so they are hard usage errors (docs/serving.md "Strictness").
    EXPECT_THROW(parseSpec(parseSpecJson(
                     "{\"workload\":\"mcf\",\"machine\":\"bdw\","
                     "\"typo_instrs\":5}")),
                 StackscopeError);
    EXPECT_THROW(parseSpec(parseSpecJson(
                     "{\"workload\":\"mcf\",\"machine\":\"bdw\","
                     "\"options\":{\"engine\":\"batched\","
                     "\"fault\":\"wrong-latency\"}}")),
                 StackscopeError)
        << "fault injection is not servable (not in serve schema v1)";
}

TEST(ProtocolSpecTest, RejectsBadValues)
{
    EXPECT_THROW(parseSpec(parseSpecJson("{\"machine\":\"bdw\"}")),
                 StackscopeError)
        << "workload is required";
    EXPECT_THROW(parseSpec(parseSpecJson(
                     "{\"workload\":\"nope\",\"machine\":\"bdw\"}")),
                 StackscopeError);
    EXPECT_THROW(parseSpec(parseSpecJson(
                     "{\"workload\":\"mcf\",\"machine\":\"nope\"}")),
                 StackscopeError);
    EXPECT_THROW(parseSpec(parseSpecJson(
                     "{\"workload\":\"mcf\",\"machine\":\"bdw\","
                     "\"instrs\":0}")),
                 StackscopeError);
    EXPECT_THROW(parseSpec(parseSpecJson(
                     "{\"workload\":\"mcf\",\"machine\":\"bdw\","
                     "\"instrs\":2.5}")),
                 StackscopeError)
        << "non-integral counts are rejected";
    EXPECT_THROW(parseSpec(parseSpecJson(
                     "{\"workload\":\"mcf\",\"machine\":\"bdw\","
                     "\"cores\":0}")),
                 StackscopeError);
    EXPECT_THROW(parseSpec(parseSpecJson(
                     "{\"workload\":\"mcf\",\"machine\":\"bdw\","
                     "\"options\":{\"engine\":\"turbo\"}}")),
                 StackscopeError);
}

TEST(ProtocolSpecTest, RejectsNonFiniteNumbers)
{
    // JSON has no infinity, but strtod reads an overflowing literal as
    // one; a deadline must still be a finite number.
    try {
        parseSpec(parseSpecJson(
            "{\"workload\":\"mcf\",\"machine\":\"bdw\","
            "\"options\":{\"job_timeout_seconds\":1e999}}"));
        FAIL() << "an infinite job_timeout_seconds was accepted";
    } catch (const StackscopeError &err) {
        EXPECT_EQ(err.category(), ErrorCategory::kUsage);
    }
}

// ---------------------------------------------------------------------
// simulateSpec: the serve-side run must be byte-identical to what the
// CLI's report path produces for the same spec.

TEST(ProtocolSimulateTest, ReportMatchesDirectRunByteForByte)
{
    const runner::JobSpec spec = parseSpec(parseSpecJson(
        "{\"workload\":\"mcf\",\"machine\":\"bdw\",\"instrs\":2000}"));
    const std::string served = simulateSpec(spec);

    // The equivalent of `stackscope run --workload mcf --machine bdw
    // --instrs 2000 --no-host-metrics --report-out` built by hand.
    const sim::MachineConfig machine = sim::machineByName("bdw");
    trace::SyntheticParams params = trace::findWorkload("mcf").params;
    params.num_instrs = spec.instrs;
    const trace::SyntheticGenerator gen(params);
    const sim::SimResult r = sim::simulate(machine, gen, spec.options);
    obs::ReportBuilder report("run");
    report.add("mcf/" + machine.name, spec.options, r);

    EXPECT_EQ(served, report.json());
}

TEST(ProtocolSimulateTest, RepeatRunsAreByteIdentical)
{
    const runner::JobSpec spec = parseSpec(parseSpecJson(
        "{\"workload\":\"gcc\",\"machine\":\"bdw\",\"cores\":2,"
        "\"instrs\":2000}"));
    EXPECT_EQ(simulateSpec(spec), simulateSpec(spec))
        << "reports must be deterministic or the cache guarantee dies";
}

}  // namespace
}  // namespace stackscope::serve
