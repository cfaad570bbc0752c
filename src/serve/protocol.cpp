#include "serve/protocol.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/report.hpp"
#include "sim/multicore.hpp"
#include "sim/presets.hpp"
#include "sim/simulation.hpp"
#include "trace/synthetic_generator.hpp"
#include "trace/workload_library.hpp"

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

/** Point @p given at @p value, the member @p key of the spec (or of its
 *  "options" when @p in_options); the first of repeated keys wins. */
void
takeMember(std::array<const obs::JsonValue *, runner::kJobFieldCount> &given,
           const std::string &key, const obs::JsonValue &value,
           bool in_options)
{
    for (std::size_t i = 0; i < runner::kJobFieldCount; ++i) {
        const runner::JobField &f = runner::kJobFields[i];
        if (f.key == key && f.in_options == in_options) {
            if (given[i] == nullptr)
                given[i] = &value;
            return;
        }
    }
    usageError("unknown key '" + key + "'", in_options ? "options" : "spec");
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
    std::array<const obs::JsonValue *, runner::kJobFieldCount> given{};
    const obs::JsonValue *options = nullptr;
    for (const auto &[key, value] : spec.object) {
        if (key != "options")
            takeMember(given, key, value, false);
        else if (options == nullptr)
            options = &value;
    }
    if (options != nullptr) {
        if (!options->isObject())
            usageError("'options' must be an object", "options");
        for (const auto &[key, value] : options->object)
            takeMember(given, key, value, true);
    }

    static const obs::JsonValue kAbsent;
    runner::JobSpec job = runner::defaultJobSpec();
    for (std::size_t i = 0; i < runner::kJobFieldCount; ++i) {
        const runner::JobField &f = runner::kJobFields[i];
        if (given[i] != nullptr || f.required) {
            f.set(job, runner::decodeJson(f.type, f.key,
                                          given[i] ? *given[i] : kAbsent));
        }
    }
    checkPresetNames(job.workload, job.machine);
    runner::addWarmup(job);
    sim::checkObsOptions(job.options);
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
