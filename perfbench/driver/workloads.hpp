// The benchmark's workloads. Each runs set-up, then whole rounds of the
// same operations until the measuring time is used up, then the checks.
#pragma once

#include "checks.hpp"
#include "harness.hpp"

namespace perfbench {

/// Single tenant, mutation-heavy: admits, removes, what-ifs and queries of
/// short bursty candidate chains through RequestScheduler.
void run_admit_churn(const RunOptions& opts, RunResult& result,
                     Evidence& evidence);

/// Hundreds of small tenants, read-heavy, through ShardedScheduler.
void run_poll_tenants(const RunOptions& opts, RunResult& result,
                      Evidence& evidence);

/// The paper's §5 evaluation as a batch through rta::Analyzer.
void run_paper_sweep(const RunOptions& opts, RunResult& result,
                     Evidence& evidence);

}  // namespace perfbench
