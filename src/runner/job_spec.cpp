#include "runner/job_spec.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"
#include "obs/json.hpp"
#include "stacks/speculation.hpp"
#include "validate/invariants.hpp"

namespace stackscope::runner {

namespace {

constexpr FieldType
choice(std::string_view choices)
{
    return {FieldKind::kChoice, 0.0, 0.0, false, choices};
}

/** Larger integers are not exact in a JSON (double) number. */
constexpr double kMaxJsonInteger = 9.007199254740992e15;

bool
isChoice(std::string_view choices, std::string_view text)
{
    for (std::size_t start = 0;;) {
        const std::size_t bar = choices.find('|', start);
        if (choices.substr(start, bar - start) == text)
            return true;
        if (bar == std::string_view::npos)
            return false;
        start = bar + 1;
    }
}

std::string
number(double x)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.15g", x);
    return buf;
}

/** Why @p x is outside @p type's range; empty when it is inside. */
std::string
rangeProblem(const FieldType &type, double x)
{
    if ((type.above_min ? x > type.min : x >= type.min) && x <= type.max)
        return {};
    if (type.above_min)
        return "must be above " + number(type.min);
    if (std::isinf(type.max))
        return "must be at least " + number(type.min);
    return "must be in [" + number(type.min) + ", " + number(type.max) +
           "]";
}

}  // namespace

constexpr const char *kSims = "run bounds hpc compare-spec sweep phases";

const std::array<JobField, 13> kJobFields = {{
    {"workload", false, true, "workload", "run bounds compare-spec phases",
     kText, "NAME", "mcf",
     "workload preset (`stackscope list`); phases also takes an HPC "
     "kernel or its name prefix",
     [](auto &s, auto &v) { s.workload = v.text; }},
    {"machine", false, true, "machine", "run bounds hpc compare-spec phases",
     kText, "NAME", "bdw", "machine preset: bdw, knl or skx",
     [](auto &s, auto &v) { s.machine = v.text; }},
    {"cores", false, false, "cores", "run hpc sweep", count(1, kMaxCores),
     "N", "1", "identical cores sharing an uncore",
     [](auto &s, auto &v) { s.cores = static_cast<unsigned>(v.count); }},
    {"instrs", false, false, "instrs", kSims, count(1), "N", "250000",
     "measured instructions per core",
     [](auto &s, auto &v) { s.instrs = v.count; }},
    {"warmup", false, false, "warmup", kSims, count(0), "N", "",
     "warmup instructions, excluded from the stacks (default instrs/2)",
     [](auto &s, auto &v) { s.options.warmup_instrs = v.count; }},
    {"spec_mode", true, false, "", "", choice("oracle|simple|spec-counters"),
     "MODE", "oracle", "wrong-path handling (§III-B)",
     [](auto &s, auto &v) {
         s.options.spec_mode = stacks::parseSpeculationMode(v.text).value();
     }},
    {"engine", true, false, "engine", kSims, choice("batched|reference"),
     "E", "batched", "accounting engine (docs/performance.md)",
     [](auto &s, auto &v) { s.options.reference_engine = v.text[0] == 'r'; }},
    {"validate", true, false, "validate", kSims, choice("off|warn|strict"),
     "MODE", "off", "runtime stack-invariant checking",
     [](auto &s, auto &v) {
         s.options.validation = validate::parsePolicy(v.text).value();
     }},
    {"max_cycles", true, false, "", "", count(0), "N", "0",
     "hard cycle cap that truncates the run; 0 = unlimited",
     [](auto &s, auto &v) { s.options.max_cycles = v.count; }},
    {"watchdog_cycles", true, false, "watchdog-cycles", kSims, count(0), "N",
     "0", "abort after N cycles without a commit; 0 = off",
     [](auto &s, auto &v) { s.options.watchdog_cycles = v.count; }},
    {"deadline_cycles", true, false, "job-cycles", kSims, count(0), "N", "0",
     "per-job simulated-cycle budget, a watchdog error past it; 0 = off",
     [](auto &s, auto &v) { s.options.deadline_cycles = v.count; }},
    {"job_timeout_seconds", true, false, "job-timeout", kSims, kReal, "SECS",
     "0", "per-job wall-clock deadline; 0 = off",
     [](auto &s, auto &v) { s.options.job_timeout_seconds = v.real; }},
    {"interval_cycles", true, false, "intervals",
     "run bounds hpc sweep phases", count(0), "N", "0",
     "snapshot the stacks every N measured cycles; 0 = off (phases: 1000)",
     [](auto &s, auto &v) { s.options.obs.interval_cycles = v.count; }},
}};

FieldValue
decodeText(const FieldType &type, std::string_view flag,
           std::string_view text)
{
    const auto refuse = [&](const std::string &problem) {
        throw StackscopeError(ErrorCategory::kUsage,
                              "value for --" + std::string(flag) + " " +
                                  problem + ", got '" + std::string(text) +
                                  "'");
    };
    FieldValue v{text};
    switch (type.kind) {
      case FieldKind::kSwitch:
      case FieldKind::kText:
        return v;
      case FieldKind::kChoice:
        if (!isChoice(type.choices, text))
            refuse("must be " + std::string(type.choices));
        return v;
      case FieldKind::kCount: {
        const auto [end, ec] =
            std::from_chars(text.data(), text.data() + text.size(), v.count);
        if (ec != std::errc{} || end != text.data() + text.size())
            refuse("must be a non-negative integer");
        v.real = static_cast<double>(v.count);
        break;
      }
      case FieldKind::kReal:
        try {
            std::size_t end = 0;
            v.real = std::stod(std::string(text), &end);
            if (end != text.size())
                v.real = -1.0;
        } catch (const std::exception &) {
            v.real = -1.0;
        }
        if (!(v.real >= 0.0) || !std::isfinite(v.real))
            refuse("must be a finite non-negative number");
        break;
    }
    if (const std::string problem = rangeProblem(type, v.real);
        !problem.empty())
        refuse(problem);
    return v;
}

FieldValue
decodeJson(const FieldType &type, std::string_view key,
           const obs::JsonValue &value)
{
    const auto refuse = [&](const std::string &problem) {
        throw StackscopeError(ErrorCategory::kUsage,
                              "'" + std::string(key) + "' " + problem)
            .withContext("field", std::string(key));
    };
    FieldValue v;
    switch (type.kind) {
      case FieldKind::kSwitch:
      case FieldKind::kText:
        if (!value.isString())
            refuse("must be a string");
        v.text = value.string;
        return v;
      case FieldKind::kChoice:
        if (!value.isString() || !isChoice(type.choices, value.string))
            refuse("must be " + std::string(type.choices));
        v.text = value.string;
        return v;
      case FieldKind::kCount:
        if (!value.isNumber() || value.number < 0 ||
            value.number != std::floor(value.number) ||
            value.number > kMaxJsonInteger)
            refuse("must be a non-negative integer");
        v.count = static_cast<std::uint64_t>(value.number);
        v.real = value.number;
        break;
      case FieldKind::kReal:
        if (!value.isNumber() || !std::isfinite(value.number) ||
            value.number < 0)
            refuse("must be a finite non-negative number");
        v.real = value.number;
        break;
    }
    if (const std::string problem = rangeProblem(type, v.real);
        !problem.empty())
        refuse(problem);
    return v;
}

JobSpec
defaultJobSpec()
{
    static const JobSpec defaults = [] {
        JobSpec spec;
        for (const JobField &f : kJobFields) {
            if (!f.fallback.empty())
                f.set(spec, decodeText(f.type, f.key, f.fallback));
        }
        return spec;
    }();
    return defaults;
}

void
addWarmup(JobSpec &spec)
{
    const std::uint64_t warmup =
        spec.options.warmup_instrs.value_or(defaultWarmup(spec.instrs));
    spec.options.warmup_instrs = warmup;
    spec.instrs += warmup;
}

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
