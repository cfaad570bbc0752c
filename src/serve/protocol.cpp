#include "serve/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/report.hpp"
#include "sim/multicore.hpp"
#include "sim/presets.hpp"
#include "sim/simulation.hpp"
#include "stacks/speculation.hpp"
#include "trace/synthetic_generator.hpp"
#include "trace/workload_library.hpp"
#include "validate/invariants.hpp"

namespace stackscope::serve {

namespace {

[[noreturn]] void
usageError(std::string message, const std::string &where)
{
    throw StackscopeError(ErrorCategory::kUsage, std::move(message))
        .withContext("field", where);
}

/** Reject unknown members: the spec feeds the cache key, so a silently
 *  dropped key would alias two different requests onto one entry. */
void
checkKeys(const obs::JsonValue &object,
          std::initializer_list<std::string_view> allowed,
          const std::string &where)
{
    for (const auto &[key, value] : object.object) {
        bool known = false;
        for (std::string_view a : allowed)
            known = known || key == a;
        if (!known)
            usageError("unknown key '" + key + "'", where);
    }
}

std::string
requireString(const obs::JsonValue &object, const std::string &key)
{
    const obs::JsonValue *v = object.find(key);
    if (v == nullptr || !v->isString())
        usageError("'" + key + "' must be a string", key);
    return v->string;
}

/** Integral, non-negative, exactly representable in a double. */
std::uint64_t
uintField(const obs::JsonValue &object, const std::string &key,
          std::uint64_t fallback)
{
    const obs::JsonValue *v = object.find(key);
    if (v == nullptr)
        return fallback;
    if (!v->isNumber() || v->number < 0 ||
        v->number != std::floor(v->number) || v->number > 9.007199254740992e15)
        usageError("'" + key + "' must be a non-negative integer", key);
    return static_cast<std::uint64_t>(v->number);
}

double
numberField(const obs::JsonValue &object, const std::string &key,
            double fallback)
{
    const obs::JsonValue *v = object.find(key);
    if (v == nullptr)
        return fallback;
    if (!v->isNumber() || !std::isfinite(v->number) || v->number < 0)
        usageError("'" + key + "' must be a finite non-negative number",
                   key);
    return v->number;
}

/** @p w's document plus the frame's terminating newline, moved out of
 *  the writer rather than copied. */
std::string
finishFrame(obs::JsonWriter &w)
{
    std::string frame = w.take();
    frame += '\n';
    return frame;
}

/**
 * Throw kUsage unless @p workload and @p machine name presets. Matches
 * names only, so a cache hit copies no preset it will never simulate;
 * an unknown name gets the lookup functions' own message.
 */
void
checkPresetNames(const std::string &workload, const std::string &machine)
{
    const std::vector<trace::Workload> &workloads =
        trace::allSpecWorkloads();
    static const std::vector<std::string> machines = sim::allMachineNames();
    try {
        if (std::none_of(workloads.begin(), workloads.end(),
                         [&](const trace::Workload &w) {
                             return w.name == workload;
                         }))
            trace::findWorkload(workload);
        if (std::find(machines.begin(), machines.end(), machine) ==
            machines.end())
            sim::machineByName(machine);
    } catch (const std::out_of_range &e) {
        throw StackscopeError(ErrorCategory::kUsage, e.what());
    }
}

}  // namespace

Request
parseRequest(std::string_view line)
{
    obs::JsonValue frame = obs::parseJson(line);
    if (!frame.isObject())
        usageError("request frame must be a JSON object", "frame");
    checkKeys(frame, {"type", "id", "spec"}, "frame");

    Request req;
    if (obs::JsonValue *id = frame.find("id")) {
        if (!id->isString())
            usageError("'id' must be a string", "id");
        req.id = std::move(id->string);
    }
    const std::string type = requireString(frame, "type");
    if (type == "ping") {
        req.kind = Request::Kind::kPing;
    } else if (type == "statusz") {
        req.kind = Request::Kind::kStatusz;
    } else if (type == "analyze") {
        req.kind = Request::Kind::kAnalyze;
        obs::JsonValue *spec = frame.find("spec");
        if (spec == nullptr || !spec->isObject())
            usageError("analyze requires a 'spec' object", "spec");
        req.spec = std::move(*spec);
    } else {
        usageError("unknown request type '" + type +
                       "' (ping|statusz|analyze)",
                   "type");
    }
    return req;
}

runner::JobSpec
parseSpec(const obs::JsonValue &spec)
{
    checkKeys(spec, {"workload", "machine", "cores", "instrs", "warmup",
                     "options"},
              "spec");

    runner::JobSpec job;
    job.workload = requireString(spec, "workload");
    job.machine = requireString(spec, "machine");
    checkPresetNames(job.workload, job.machine);

    const std::uint64_t cores = uintField(spec, "cores", 1);
    if (cores < 1 || cores > runner::kMaxCores) {
        usageError("'cores' must be in [1, " +
                       std::to_string(runner::kMaxCores) + "]",
                   "cores");
    }
    job.cores = static_cast<unsigned>(cores);

    const std::uint64_t instrs =
        uintField(spec, "instrs", runner::kDefaultInstrs);
    if (instrs < 1)
        usageError("'instrs' must be at least 1", "instrs");
    // JobSpec::instrs is the total the generator runs (measured+warmup),
    // as the CLI builds it, so wire specs hash identically to equivalent
    // CLI invocations.
    const std::uint64_t warmup =
        uintField(spec, "warmup", runner::defaultWarmup(instrs));
    job.instrs = instrs + warmup;

    sim::SimOptions &so = job.options;
    so.warmup_instrs = warmup;
    const obs::JsonValue *options = spec.find("options");
    if (options != nullptr) {
        if (!options->isObject())
            usageError("'options' must be an object", "options");
        checkKeys(*options,
                  {"spec_mode", "engine", "validate", "max_cycles",
                   "watchdog_cycles", "deadline_cycles",
                   "job_timeout_seconds", "interval_cycles"},
                  "options");
        if (const obs::JsonValue *v = options->find("spec_mode")) {
            if (!v->isString())
                usageError("'spec_mode' must be a string", "spec_mode");
            const auto mode = stacks::parseSpeculationMode(v->string);
            if (!mode) {
                usageError("unknown spec_mode '" + v->string +
                               "' (oracle|simple|spec-counters)",
                           "spec_mode");
            }
            so.spec_mode = *mode;
        }
        if (const obs::JsonValue *v = options->find("engine")) {
            if (!v->isString() ||
                (v->string != "batched" && v->string != "reference"))
                usageError("'engine' must be \"batched\" or \"reference\"",
                           "engine");
            so.reference_engine = v->string == "reference";
        }
        if (const obs::JsonValue *v = options->find("validate")) {
            const auto policy =
                v->isString() ? validate::parsePolicy(v->string)
                              : std::nullopt;
            if (!policy)
                usageError("'validate' must be off|warn|strict", "validate");
            so.validation = *policy;
        }
        so.max_cycles = uintField(*options, "max_cycles", 0);
        so.watchdog_cycles = uintField(*options, "watchdog_cycles", 0);
        so.deadline_cycles = uintField(*options, "deadline_cycles", 0);
        so.job_timeout_seconds =
            numberField(*options, "job_timeout_seconds", 0.0);
        so.obs.interval_cycles = uintField(*options, "interval_cycles", 0);
    }
    sim::checkObsOptions(so);
    return job;
}

std::string
simulateSpec(const runner::JobSpec &spec, RequestTrace *trace)
{
    const auto sim_start = RequestTrace::Clock::now();
    const sim::MachineConfig machine = sim::machineByName(spec.machine);
    trace::SyntheticParams params =
        trace::findWorkload(spec.workload).params;
    params.num_instrs = spec.instrs;
    const trace::SyntheticGenerator gen(params);

    obs::ReportBuilder report("run");
    if (spec.cores > 1) {
        const sim::MulticoreResult r =
            sim::simulateMulticore(machine, gen, spec.cores, spec.options);
        report.add(spec.workload + "/" + machine.name + "/x" +
                       std::to_string(spec.cores),
                   spec.options, r);
    } else {
        const sim::SimResult r = sim::simulate(machine, gen, spec.options);
        report.add(spec.workload + "/" + machine.name, spec.options, r);
    }
    const auto sim_end = RequestTrace::Clock::now();
    std::string bytes = report.json();
    if (trace != nullptr) {
        trace->addJobSpan(Span::kSimulate, sim_start, sim_end);
        trace->addJobSpan(Span::kSerialize, sim_end,
                          RequestTrace::Clock::now());
    }
    return bytes;
}

std::string
helloFrame()
{
    obs::JsonWriter w;
    w.beginObject()
        .key("type").value("hello")
        .key("schema").value(kProtocolName)
        .key("version").value(kProtocolVersion)
        .endObject();
    return finishFrame(w);
}

std::string
pongFrame(const std::string &id)
{
    obs::JsonWriter w;
    w.beginObject()
        .key("type").value("pong")
        .key("id").value(id)
        .endObject();
    return finishFrame(w);
}

std::string
progressFrame(const std::string &id, const std::string &request,
              const std::string &key, std::uint64_t elapsed_ms)
{
    obs::JsonWriter w;
    w.beginObject()
        .key("type").value("progress")
        .key("id").value(id)
        .key("request").value(request)
        .key("key").value(key)
        .key("elapsed_ms").value(elapsed_ms)
        .endObject();
    return finishFrame(w);
}

std::string
errorFrame(const std::string &id, ErrorCategory category,
           const std::string &message)
{
    obs::JsonWriter w;
    w.beginObject()
        .key("type").value("error")
        .key("id").value(id)
        .key("category").value(toString(category))
        .key("message").value(message)
        .endObject();
    return finishFrame(w);
}

std::string
resultFrame(const std::string &id, const std::string &request,
            const std::string &key, CacheOutcome outcome,
            const std::string &report)
{
    obs::JsonWriter w;
    // The report is by far the largest member: size the buffer for the
    // whole frame so the report is copied exactly once.
    w.reserve(report.size() + id.size() + request.size() + key.size() +
              96);
    w.beginObject()
        .key("type").value("result")
        .key("id").value(id)
        .key("request").value(request)
        .key("key").value(key)
        .key("cache").value(toString(outcome))
        .key("report").raw(report)
        .endObject();
    return finishFrame(w);
}

std::string
statusFrame(const std::string &id, const ResultCache::Stats &cache,
            const SloTracker::Summary &slo,
            const obs::MetricsSnapshot &snap)
{
    obs::JsonWriter w;
    w.beginObject()
        .key("type").value("status")
        .key("id").value(id)
        .key("cache").beginObject()
        .key("hits").value(cache.hits)
        .key("misses").value(cache.misses)
        .key("coalesced").value(cache.coalesced)
        .key("evictions").value(cache.evictions)
        .key("failures").value(cache.failures)
        .key("entries").value(static_cast<std::uint64_t>(cache.entries))
        .key("pending").value(static_cast<std::uint64_t>(cache.pending))
        .key("waiting").value(static_cast<std::uint64_t>(cache.waiting))
        .key("bytes").value(static_cast<std::uint64_t>(cache.bytes))
        .key("capacity_bytes")
        .value(static_cast<std::uint64_t>(cache.capacity_bytes))
        .endObject()
        .key("slo").beginObject()
        .key("window_s").value(slo.window_s)
        .key("objective_ms").value(slo.objective_ms)
        .key("target").value(slo.target)
        .key("requests").value(slo.requests)
        .key("errors").value(slo.errors)
        .key("error_rate").value(slo.error_rate)
        .key("within_objective").value(slo.within_objective)
        .key("attainment").value(slo.attainment)
        .key("p50_ms").value(slo.p50_ms)
        .key("p99_ms").value(slo.p99_ms)
        .key("ok").value(slo.ok)
        .endObject()
        .key("host_metrics");
    obs::writeMetricsSnapshot(w, snap);
    w.endObject();
    return finishFrame(w);
}

}  // namespace stackscope::serve
