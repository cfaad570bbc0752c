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

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/simulation.hpp"

namespace stackscope::runner {

/** Measured instructions of a job whose spec names no count. */
inline constexpr std::uint64_t kDefaultInstrs = 250'000;

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
