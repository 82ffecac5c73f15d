// The planning pipeline SpinStreams runs before deployment — XML import,
// auto_optimize (Alg. 1-3 plus the latency model) and a DES check of the
// optimized deployment — timed per topology, and the plan_testbed workload
// built from it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/optimizer.hpp"
#include "core/topology.hpp"

namespace ssb {

/// Fastest timings of one topology over the run's repetitions.  On a
/// shared host the speed of this memory-bound code swings by up to 2x for
/// tens of seconds at a time: the median of the testbed's XML-load time
/// over 20 s windows of one process spread by 0.45 (interquartile range
/// over median), its minimum by 0.09.  Repetitions are spread over the
/// run, so the fastest one is taken outside the slow phases, and a change
/// to the planner moves it as much as it moves the typical time.
struct BestTimes {
  double load_ms = 0.0, optimize_ms = 0.0, sim_ms = 0.0, plan_ms = 0.0;
  std::uint64_t sim_events = 0;  ///< of one DES run (the same every repetition)
  bool timed = false;

  void add(double load, double optimize, double sim, std::uint64_t events);
};

/// Timings accumulated over every planned topology.  The end-to-end
/// planner metrics come from `best`; the per-layer ones from every sample.
struct PlanTimes {
  /// Indexed by the caller's topology slot.
  std::vector<BestTimes> best;
  Samples load_ms, optimize_ms, sim_ms, plan_ms;
  double xml_bytes = 0.0;
  double load_s = 0.0;
  std::uint64_t sim_events = 0;
  double sim_s = 0.0;
  // Separately timed layer calls (traced runs only).
  Samples alg1_us, alg2_ms, alg3_ms, latency_ms;
};

struct PlanOutcome {
  ss::Topology topology;
  ss::AutoOptimizeResult optimized;
  double predicted = 0.0;   ///< Alg. 1 throughput of the optimized deployment
  double simulated = 0.0;   ///< DES throughput of the optimized deployment
  double err_pct = 0.0;     ///< |predicted - simulated| / simulated, percent
};

/// The pre-deployment check a user runs on an application: load ->
/// auto_optimize -> DES on its XML, repeated in time slices so a run can
/// spread it over its whole duration.
class PlanCheck {
 public:
  /// Serializes `t` (untimed) and runs the unreported warm-up passes.
  explicit PlanCheck(const ss::Topology& t);
  void run(double seconds, bool layer_detail);
  /// Tops up to the minimum sample count, then reports the planner metrics
  /// and model_err_pct.
  void report(bool layer_detail, Report& report);

 private:
  std::string xml_;
  int batch_ = 1;
  PlanTimes times_;
  PlanOutcome last_;
};

struct RunOptions {
  std::uint64_t seed = 2018;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
};

/// The plan_testbed workload: the 50-topology Alg. 5 testbed of `seed`,
/// planned single-threaded in passes until the time budget is spent.
void run_plan_testbed(const RunOptions& options, Report& report);

}  // namespace ssb
