/**
 * @file
 * Single-core layer probes shared by every workload's traced run: the
 * trace layer (draining a clone of a job's TraceSource), the core layer
 * (OooCore driven directly with a StageProfile attached), the stacks
 * layer (accounting on versus off) and the sim layer (the `sim.*`
 * counters of the public metrics snapshot).
 */

#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/ooo_core.hpp"
#include "obs/metrics.hpp"
#include "sim/core_config.hpp"
#include "trace/trace_source.hpp"

namespace perfbench {

/** One single-core simulation point. */
struct CoreJob
{
    std::string label;
    stackscope::sim::MachineConfig machine;
    std::unique_ptr<stackscope::trace::TraceSource> trace;
    stackscope::sim::SimOptions options;
};

/** What the profiled core loop measured for one job. */
struct ProfiledRun
{
    std::uint64_t cycles = 0;
    std::uint64_t instrs = 0;
    std::uint64_t absolute_cycles = 0;
    stackscope::core::StageProfile profile;
    double wall_ns = 0.0;
};

/**
 * Run @p job on an OooCore built exactly as sim::simulate builds it,
 * with a StageProfile attached: warmup, resetMeasurement(), measure,
 * finalizeAccounting(). Callers compare its cycles and instructions
 * with sim::simulate's to show both ran the same program.
 */
ProfiledRun runProfiled(const CoreJob &job);

/** Drain a clone of @p trace; returns host ns and sets @p instrs. */
double drainTrace(const stackscope::trace::TraceSource &trace,
                  std::uint64_t &instrs);

/** The `sim.*_micros_total` counters of a metrics snapshot. */
struct SimCounters
{
    std::uint64_t warmup_us = 0;
    std::uint64_t measure_us = 0;
    std::uint64_t report_us = 0;

    static SimCounters of(const stackscope::obs::MetricsSnapshot &snap);
    SimCounters operator-(const SimCounters &o) const;
};

/** Accumulates the single-core layer metrics over many jobs. */
class CoreLayers
{
  public:
    void addProfiled(const ProfiledRun &r);
    void addDrain(std::uint64_t instrs, double ns);
    void addAccountingPair(double on_seconds, double off_seconds);
    void addSimCounters(const SimCounters &delta);

    /** Append trace.*, core.*, stacks.* and sim.* metrics. */
    void emit(std::vector<Metric> &out) const;

  private:
    std::size_t profiled_ = 0;
    stackscope::core::StageProfile profile_{};
    std::uint64_t absolute_cycles_ = 0;
    double profiled_ns_ = 0.0;
    std::size_t drains_ = 0;
    std::uint64_t drained_instrs_ = 0;
    double drain_ns_ = 0.0;
    std::size_t pairs_ = 0;
    double acct_on_s_ = 0.0;
    double acct_off_s_ = 0.0;
    SimCounters sim_{};
    std::size_t sim_samples_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_HPP
