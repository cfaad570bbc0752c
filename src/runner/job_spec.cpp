#include "runner/job_spec.hpp"

#include "obs/json.hpp"
#include "stacks/speculation.hpp"
#include "validate/invariants.hpp"

namespace stackscope::runner {

std::uint64_t
fnv1a64(std::string_view data)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : data) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
canonicalJson(const JobSpec &spec)
{
    const sim::SimOptions &o = spec.options;
    obs::JsonWriter w;
    // Fits the document with default options (~350 bytes) in one go.
    w.reserve(512);
    w.beginObject()
        .key("workload").value(spec.workload)
        .key("machine").value(spec.machine)
        .key("cores").value(spec.cores)
        .key("instrs").value(spec.instrs)
        .key("options").beginObject()
        .key("spec_mode").value(stacks::toString(o.spec_mode))
        .key("accounting").value(o.accounting)
        .key("engine").value(o.reference_engine ? "reference" : "batched")
        .key("max_cycles").value(static_cast<std::uint64_t>(o.max_cycles))
        .key("warmup_instrs");
    if (o.warmup_instrs)
        w.value(*o.warmup_instrs);
    else
        w.null();
    w.key("validation").value(validate::toString(o.validation))
        .key("validation_interval")
        .value(static_cast<std::uint64_t>(o.validation_interval))
        .key("watchdog_cycles")
        .value(static_cast<std::uint64_t>(o.watchdog_cycles))
        .key("deadline_cycles")
        .value(static_cast<std::uint64_t>(o.deadline_cycles))
        .key("job_timeout_seconds").value(o.job_timeout_seconds)
        .key("fault");
    if (o.fault) {
        w.value(std::string(validate::toString(o.fault->kind)) + ":" +
                std::to_string(o.fault->seed));
    } else {
        w.null();
    }
    w.key("interval_cycles")
        .value(static_cast<std::uint64_t>(o.obs.interval_cycles))
        .key("trace_events").value(o.obs.trace_events)
        .key("trace_capacity")
        .value(static_cast<std::uint64_t>(o.obs.trace_capacity))
        .endObject()
        .endObject();
    return w.take();
}

std::string
specHash(const JobSpec &spec)
{
    static constexpr char kHex[] = "0123456789abcdef";
    std::uint64_t h = fnv1a64(canonicalJson(spec));
    std::string key(16, '0');
    for (auto digit = key.rbegin(); digit != key.rend(); ++digit, h >>= 4)
        *digit = kHex[h & 0xf];
    return key;
}

}  // namespace stackscope::runner
