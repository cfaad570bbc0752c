/**
 * @file
 * Canonical job-spec serialization and hashing.
 *
 * A sweep point is fully determined by (workload, machine, cores,
 * instruction count, simulation options): simulations are deterministic,
 * so that tuple is a content address for the result. The canonical JSON
 * form — fixed key order, every result-affecting option spelled out, the
 * runtime-only retry attempt excluded — is hashed (FNV-1a 64) into a
 * 16-hex-digit key. The sweep journal uses it to match completed points
 * on `--resume`, and the future serve-cache will use the same key, so
 * the canonical form is a contract: changing it orphans every existing
 * journal and cache entry.
 */

#ifndef STACKSCOPE_RUNNER_JOB_SPEC_HPP
#define STACKSCOPE_RUNNER_JOB_SPEC_HPP

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <tuple>

#include "obs/json_parse.hpp"
#include "sim/simulation.hpp"

namespace stackscope::runner {

/** Most cores one job may simulate, on the CLI and on the wire. */
inline constexpr unsigned kMaxCores = 1024;

/**
 * Warmup of a job whose spec names none: half the measured count, the
 * paper's fast-forward (§IV). The CLI and the serve wire protocol both
 * apply it, so equivalent requests share one spec hash.
 */
constexpr std::uint64_t
defaultWarmup(std::uint64_t instrs)
{
    return instrs / 2;
}

/** Identity of one simulation point. */
struct JobSpec
{
    /** Workload name (synthetic generator / kernel identity). */
    std::string workload;
    /** Machine configuration name. */
    std::string machine;
    unsigned cores = 1;
    /** Measured instruction count of the workload. */
    std::uint64_t instrs = 0;
    sim::SimOptions options{};
};

/** How a field's value is spelled: CLI text or a wire JSON value. */
enum class FieldKind : std::uint8_t
{
    kSwitch,  ///< a CLI switch, which takes no value
    kText,    ///< any text: a name, a path, a list
    kChoice,  ///< one of FieldType::choices
    kCount,   ///< a non-negative integer in [min, max]
    kReal,    ///< a finite non-negative number in [min, max]
};

/** A field's kind and the values it accepts. */
struct FieldType
{
    FieldKind kind = FieldKind::kText;
    double min = 0.0;
    double max = std::numeric_limits<double>::infinity();
    /** The value must exceed min rather than reach it. */
    bool above_min = false;
    /** Accepted values of a kChoice field, separated by '|'. */
    std::string_view choices{};
};

inline constexpr FieldType kText{};
inline constexpr FieldType kSwitch{FieldKind::kSwitch};
inline constexpr FieldType kReal{FieldKind::kReal};

constexpr FieldType
count(double min, double max = std::numeric_limits<double>::infinity())
{
    return {FieldKind::kCount, min, max};
}

/** A decoded value: the text, and the number of a count or real. */
struct FieldValue
{
    std::string_view text;
    std::uint64_t count = 0;
    double real = 0.0;
};

/**
 * Decode the CLI text of option --@p flag; throws StackscopeError(kUsage)
 * when @p type does not accept it.
 */
FieldValue decodeText(const FieldType &type, std::string_view flag,
                      std::string_view text);

/**
 * Decode the wire value of member @p key; throws StackscopeError(kUsage),
 * with @p key as its "field" context, when @p type does not accept it.
 */
FieldValue decodeJson(const FieldType &type, std::string_view key,
                      const obs::JsonValue &value);

/**
 * One job-spec field, declared once for the CLI and the serve wire
 * (docs/serving.md "The job spec" prints the wire half of this table).
 */
struct JobField
{
    /** Wire key, in the spec or, when in_options, in its "options". */
    std::string_view key;
    bool in_options;
    /** A wire spec must name it (the CLI falls back to the default). */
    bool required;
    /** CLI flag without "--"; empty for a wire-only field. */
    std::string_view flag;
    /** The CLI commands that read the flag, separated by spaces. */
    std::string_view commands;
    FieldType type;
    /** Placeholder of the value in help text. */
    std::string_view arg;
    /** Value text used when the field is absent; empty when computed. */
    std::string_view fallback;
    std::string_view help;
    void (*set)(JobSpec &, const FieldValue &);
};

/**
 * Every job field, in docs/serving.md order. A spec is filled by
 * starting from defaultJobSpec(), calling set() per given field, then
 * addWarmup().
 */
extern const std::array<JobField, 13> kJobFields;

inline constexpr std::size_t kJobFieldCount =
    std::tuple_size_v<decltype(kJobFields)>;

/**
 * Every field at its fallback. Until addWarmup(), instrs holds the
 * measured count and an unset warmup means defaultWarmup(instrs).
 */
JobSpec defaultJobSpec();

/**
 * Finish a filled spec: warmup defaults to defaultWarmup(instrs) and
 * instrs becomes the total the generator runs (measured + warmup), the
 * CLI and wire convention, so both hash an equivalent job alike.
 */
void addWarmup(JobSpec &spec);

/** FNV-1a 64-bit hash. */
std::uint64_t fnv1a64(std::string_view data);

/**
 * Deterministic JSON serialization of @p spec: fixed key order, no
 * whitespace, SimOptions::attempt excluded (retries must not change the
 * identity of a point).
 */
std::string canonicalJson(const JobSpec &spec);

/** fnv1a64(canonicalJson(spec)) as 16 lowercase hex digits. */
std::string specHash(const JobSpec &spec);

}  // namespace stackscope::runner

#endif  // STACKSCOPE_RUNNER_JOB_SPEC_HPP
