// ssbench: runs one benchmark workload and prints its metrics, the
// correctness checks it made, and one JSON result line.
//
//   ssbench --workload <fanin_pool|chain_threads|app_paced|plan_testbed>
//           --seed N --seconds S --trace 0|1 [--workdir DIR]
//   ssbench --selftest coordinated_omission [--workdir DIR]
//
// --trace 0 measures the end-to-end metrics.  --trace 1 runs the workload
// twice at half the budget each — untraced, then with the span log armed
// and every operator timed — and reports the per-layer metrics, the self
// time of every layer per unit of its work and the tracing overhead
// (traced minus untraced).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "plan.hpp"
#include "runtime_workloads.hpp"

namespace {

using ssb::Report;
using ssb::RunOptions;

struct Workload {
  const char* name;
  std::function<void(const RunOptions&, Report&)> run;
  /// End-to-end metric the tracing overhead is computed on.
  const char* overhead_metric;
  bool higher_is_better;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"fanin_pool", ssb::run_fanin_pool, "throughput_items_s", true},
      {"chain_threads", ssb::run_chain_threads, "throughput_items_s", true},
      {"app_paced", ssb::run_app_paced, "latency_p50_ms", false},
      {"plan_testbed", ssb::run_plan_testbed, "latency_p50_ms", false},
  };
  return all;
}

/// Per-layer metrics every traced run reports; a workload that bypasses a
/// layer reports 0 for it (listed in info "layers_not_exercised").
const std::vector<std::pair<const char*, const char*>>& per_layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> all = {
      {"xmlio.parse_mb_s", "MB/s"},
      {"xmlio.parse_ms_p50", "ms"},
      {"core.alg1_us_p50", "us"},
      {"core.alg2_ms_p50", "ms"},
      {"core.alg3_ms_p50", "ms"},
      {"core.latency_ms_p50", "ms"},
      {"core.predicted_items_s", "1/s"},
      {"core.predicted_p99_ms", "ms"},
      {"sim.events", "count"},
      {"sim.wall_s", "s"},
      {"sim.err_max_pct", "%"},
      {"mailbox.try_send_recv_ns", "ns"},
      {"mailbox.batch16_ns", "ns"},
      {"mailbox.pingpong_us", "us"},
      {"mailbox.ring_enqueues_per_item", "count"},
      {"mailbox.ring_spills", "count"},
      {"mailbox.queue_peak_max", "count"},
      {"routing.choose_ns", "ns"},
      {"routing.by_key_ns", "ns"},
      {"sched.parks_per_kitem", "count"},
      {"sched.wakeups_per_kitem", "count"},
      {"sched.steals_per_kitem", "count"},
      {"sched.mean_batch", "count"},
      {"sched.ledger_ok", "count"},
      {"engine.construct_ms", "ms"},
      {"engine.drain_ms", "ms"},
      {"engine.dropped", "count"},
      {"engine.max_busy_frac", "ratio"},
      {"engine.max_blocked_frac", "ratio"},
      {"engine.e2e_p50_ms", "ms"},
      {"engine.e2e_p99_ms", "ms"},
      {"ckpt.pause_ms_p50", "ms"},
      {"ckpt.pause_ms_p90", "ms"},
      {"ckpt.bytes", "B"},
      {"ckpt.actors", "count"},
      {"baseline.items_s", "1/s"},
      {"source.lag_p99_ms", "ms"},
      {"self_us.gen", "us/call"},
      {"self_us.xmlio", "us/call"},
      {"self_us.core", "us/call"},
      {"self_us.sim", "us/event"},
      {"self_us.runtime", "us/item"},
      {"self_us.ops", "us/call"},
      {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
  };
  return all;
}

void print_fingerprint() {
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("host: nproc=%u compiler=%s build_type=%s flags=\"%s\"\n", cores, SSB_COMPILER,
              SSB_BUILD_TYPE, SSB_CXX_FLAGS);
  const std::string flags = SSB_CXX_FLAGS;
  const std::string type = SSB_BUILD_TYPE;
  if (type != "Release" || flags.find("-fsanitize") != std::string::npos) {
    std::printf(
        "WARNING: ssbench is not an optimized build (build type %s, flags \"%s\"); its "
        "numbers are not comparable to a Release build\n",
        type.c_str(), flags.c_str());
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: ssbench --workload NAME --seed N --seconds S --trace 0|1 [--workdir DIR]\n"
               "       ssbench --selftest coordinated_omission [--workdir DIR]\n");
  return 2;
}

/// Runs `w` traced: an untraced run and a traced run at half the budget
/// each, per-layer metrics from the traced one.
void run_traced(const Workload& w, RunOptions options, Report& report) {
  options.seconds /= 2.0;
  Report untraced;
  options.trace = false;
  w.run(options, untraced);

  options.trace = true;
  ssb::SpanLog::instance().arm();
  {
    ssb::ScopedSpan root("bench", w.name);
    w.run(options, report);
  }
  ssb::SpanLog::instance().disarm();

  // Self time per unit of each layer's own work, so a layer that gets
  // faster shows even though the run's length is fixed by its budget:
  // gen per call, xmlio per load_topology, core per auto_optimize (its
  // share of the separately timed Alg. 1-3 calls included), sim per DES
  // event.  The workload itself reports self_us.runtime (engine-run CPU
  // time per source item, operators and source excluded) and self_us.ops
  // (per operator call).
  const ssb::SpanLog& log = ssb::SpanLog::instance();
  const std::map<std::string, double> self = log.self_seconds();
  const auto per_unit = [&self, &report](const char* layer, double units, const char* unit) {
    const auto it = self.find(layer);
    if (it == self.end() || units <= 0.0) return;  // reported below as not exercised
    report.metric(std::string("self_us.") + layer, it->second * 1e6 / units, unit);
  };
  per_unit("gen", static_cast<double>(log.count("gen")), "us/call");
  per_unit("xmlio", static_cast<double>(log.count("xmlio")), "us/call");
  per_unit("core", static_cast<double>(log.count("core", "auto_optimize")), "us/call");
  per_unit("sim", report.value("sim.events"), "us/event");
  const double base = untraced.value(w.overhead_metric);
  const double traced = report.value(w.overhead_metric);
  const double overhead =
      base > 0.0 ? (w.higher_is_better ? (base - traced) / base : (traced - base) / base) * 100.0
                 : 0.0;
  report.metric("trace.overhead_pct", overhead, "%");
  report.metric("trace.spans", static_cast<double>(ssb::SpanLog::instance().spans().size()),
                "count");
  report.info("trace_overhead_on", w.overhead_metric);
  const std::string path = options.workdir + "/spans-" + w.name + ".json";
  ssb::SpanLog::instance().write_json(path);
  report.info("spans_file", path);

  std::string missing;
  for (const auto& [name, unit] : per_layer_metrics()) {
    if (report.has(name)) continue;
    report.metric(name, 0.0, unit);
    if (!missing.empty()) missing += ',';
    missing += name;
  }
  if (!missing.empty()) report.info("layers_not_exercised", missing);
  if (!untraced.correct()) {
    report.check("untraced half of the traced run", false, "a correctness check failed");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string selftest;
  RunOptions options;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") workload = value();
      else if (arg == "--seed") options.seed = std::stoull(value());
      else if (arg == "--seconds") options.seconds = std::stod(value());
      else if (arg == "--trace") trace = std::stoi(value());
      else if (arg == "--workdir") options.workdir = value();
      else if (arg == "--selftest") selftest = value();
      else return usage();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ssbench: %s\n", e.what());
      return usage();
    }
  }
  print_fingerprint();

  Report report;
  try {
    if (!selftest.empty()) {
      if (selftest != "coordinated_omission") return usage();
      ssb::run_coordinated_omission_selftest(options, report);
    } else {
      const Workload* w = nullptr;
      for (const Workload& candidate : workloads()) {
        if (workload == candidate.name) w = &candidate;
      }
      if (w == nullptr || options.seconds <= 0.0 || (trace != 0 && trace != 1)) return usage();
      if (trace == 1) {
        run_traced(*w, options, report);
      } else {
        w->run(options, report);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ssbench: run failed: %s\n", e.what());
    return 1;
  }
  if (trace == 0 && selftest.empty()) {
    report.metric("peak_rss_mb", ssb::peak_rss_mb(), "MB");
  }
  std::cout << report.text() << report.json() << std::endl;
  return report.correct() ? 0 : 1;
}
