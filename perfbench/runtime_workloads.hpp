// The three runtime workloads (fanin_pool, chain_threads, app_paced), the
// single-threaded baseline, the standalone mailbox/routing probes of the
// traced run, and the coordinated-omission self-test of the open-loop
// generator.
#pragma once

#include "bench_util.hpp"
#include "plan.hpp"

namespace ssb {

void run_fanin_pool(const RunOptions& options, Report& report);
void run_chain_threads(const RunOptions& options, Report& report);
void run_app_paced(const RunOptions& options, Report& report);

/// Injects one known stall into a short app_paced-style run and checks
/// that the items due during it are charged the stall in latency_p99_ms
/// and that source.lag_p99_ms reports it.
void run_coordinated_omission_selftest(const RunOptions& options, Report& report);

}  // namespace ssb
