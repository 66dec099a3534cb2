#ifndef DPDP_DECISION_BENCH_WORKLOADS_H_
#define DPDP_DECISION_BENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "harness.h"

namespace dpdp::bench {

/// Sets up, measures for options.seconds, runs the untimed output checks
/// and fills `report` (with options.setup_only: sets up and reports
/// setup_s alone). Returns false for an unknown workload name.
bool RunWorkload(const Options& options, Report* report);

}  // namespace dpdp::bench

#endif  // DPDP_DECISION_BENCH_WORKLOADS_H_
