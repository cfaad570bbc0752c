/**
 * @file
 * Wire protocol of the `stackscope serve` daemon.
 *
 * The normative contract is docs/serving.md; this header implements it
 * and the protocol tests in tests/serve/protocol_test.cpp assert the
 * exact frame bytes documented there. The protocol is newline-delimited
 * JSON (one frame per line, no embedded newlines) over a Unix-domain
 * stream socket, with a minimal HTTP/1.1 mapping for loopback TCP.
 *
 * Request parsing is *strict*: unknown keys anywhere in a job spec are
 * usage errors. The spec schema feeds the canonical job-spec hash
 * (runner::specHash) that addresses the result cache, so a silently
 * ignored key would alias two different intents onto one cache entry
 * and serve the wrong report.
 */

#ifndef STACKSCOPE_SERVE_PROTOCOL_HPP
#define STACKSCOPE_SERVE_PROTOCOL_HPP

#include <cstdint>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "obs/json_parse.hpp"
#include "obs/metrics.hpp"
#include "runner/job_spec.hpp"
#include "serve/request_trace.hpp"
#include "serve/result_cache.hpp"
#include "serve/slo.hpp"

namespace stackscope::serve {

/** Protocol identity carried in the hello frame (docs/serving.md). */
inline constexpr std::string_view kProtocolName = "stackscope-serve";
inline constexpr int kProtocolVersion = 1;

/** One parsed client request frame. */
struct Request
{
    enum class Kind
    {
        kPing,
        kStatusz,
        kAnalyze,
    };

    Kind kind = Kind::kPing;
    /** Client-chosen correlation id, echoed on every response frame. */
    std::string id;
    /** The raw "spec" object (analyze only); parsed by parseSpec(). */
    obs::JsonValue spec;
};

/**
 * Parse one request line. Throws StackscopeError(kUsage) on malformed
 * JSON, an unknown "type", a non-string "id", or a missing "spec" on
 * analyze. The spec object itself is validated later by parseSpec() so
 * the caller already knows the request id when that fails.
 */
Request parseRequest(std::string_view line);

/**
 * Validate a wire job spec against the documented schema and resolve it
 * to the canonical runner::JobSpec. Strict: unknown keys, unknown
 * workload/machine names, non-integral or out-of-range numbers all
 * throw StackscopeError(kUsage). Defaults mirror the CLI `run`
 * command: instrs 250000, warmup instrs/2, oracle speculation, batched
 * engine, validation off.
 *
 * Note JobSpec::instrs is the *total* instruction count
 * (measured + warmup), matching the CLI/sweep convention, so wire specs
 * hash identically to the equivalent CLI invocation.
 */
runner::JobSpec parseSpec(const obs::JsonValue &spec);

/**
 * Run @p spec synchronously and serialize the v2 report with command
 * "run", label "workload/MACHINE" (cores == 1) or "workload/MACHINE/xN",
 * and host_metrics null — byte-identical to
 * `stackscope run ... --no-host-metrics --report-out`.
 *
 * When @p trace is non-null the simulate and serialize job spans are
 * recorded into it (the caller — the pool task — records queue_wait).
 * Tracing never changes the produced bytes.
 */
std::string simulateSpec(const runner::JobSpec &spec,
                         RequestTrace *trace = nullptr);

// Frame builders. Every frame is a single line of compact JSON
// terminated by '\n' (included in the returned string).
//
// The "request" member on progress/result frames is the server-minted
// request id (distinct from the client's correlation "id"); it keys
// `GET /tracez` and attributes interleaved heartbeats. Conforming
// clients ignore unknown members, so adding it stays protocol
// version 1 (docs/formats.md "Version-bump rule").

std::string helloFrame();
std::string pongFrame(const std::string &id);
std::string progressFrame(const std::string &id, const std::string &request,
                          const std::string &key, std::uint64_t elapsed_ms);
std::string errorFrame(const std::string &id, ErrorCategory category,
                       const std::string &message);
/** "report" is the LAST member so clients can slice the report bytes
 *  verbatim out of the frame (docs/serving.md "Extracting the report"). */
std::string resultFrame(const std::string &id, const std::string &request,
                        const std::string &key, CacheOutcome outcome,
                        const std::string &report);
std::string statusFrame(const std::string &id,
                        const ResultCache::Stats &cache,
                        const SloTracker::Summary &slo,
                        const obs::MetricsSnapshot &snap);

}  // namespace stackscope::serve

#endif  // STACKSCOPE_SERVE_PROTOCOL_HPP
