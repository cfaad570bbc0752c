/**
 * @file
 * The three benchmark workloads (perfbench/README.md). Each builds its
 * inputs from the seed, measures for the requested seconds, checks
 * every output and returns its metrics.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include "common.hpp"

namespace perfbench {

Outcome runSingleCoreLong(const Args &args);
Outcome runPaperBatch(const Args &args);
Outcome runServeMixed(const Args &args);

/** What --setup-only does: build the workload's inputs. */
void setUpSingleCoreLong(const Args &args);
void setUpPaperBatch(const Args &args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP
