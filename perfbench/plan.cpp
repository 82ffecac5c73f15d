#include "plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <vector>

#include "core/bottleneck.hpp"
#include "core/fusion.hpp"
#include "core/latency.hpp"
#include "core/steady_state.hpp"
#include "gen/rng.hpp"
#include "gen/workload.hpp"
#include "sim/des.hpp"
#include "xmlio/topology_xml.hpp"

namespace ssb {

namespace {

/// DES virtual length, in inter-generation intervals of the source.
constexpr double kDesItems = 20000;
/// Fixed: the DES is part of the planner check, not of its input, and
/// model_err_pct must not move with the run seed.
constexpr std::uint64_t kDesSeed = 1;
/// Mailbox bound the planner and the DES assume (the runtime default).
constexpr std::size_t kBufferCapacity = 64;
/// Testbed size of the paper's evaluation (§5.1).
constexpr int kTestbedSize = 50;
/// Timed testbed set-ups per run; setup_s is their median.
constexpr std::size_t kTestbedSetups = 8;
/// Generator seed of the testbed (the default seed of the paper
/// reproduction's benches) and the digest of its deployments (see
/// deployment_signature): a planner change that alters any replica count,
/// key split, fusion group or predicted throughput changes it.
constexpr std::uint64_t kTestbedSeed = 2018;
constexpr const char* kTestbedDigest = "8fb133ff0a770a0b";
/// Accuracy band of the mean model error against the DES.  The paper
/// reports 3-3.5% on parallelized topologies; the optimized deployments of
/// this testbed measure 3.17% against the kDesItems-interval DES (see
/// README.md, "Correctness gates"), and the band leaves 1.8 points for the
/// DES's sampling noise.
constexpr double kModelErrBandPct = 5.0;
/// Planner check of one application: unreported warm-up passes, then at
/// least this many timed ones, spread over the run.
constexpr int kPlanWarmup = 10;
constexpr std::size_t kPlanCheckMinSamples = 100;
constexpr double kPlanBatchS = 30e-3;

double ms_since(Clock::time_point t0) { return seconds_between(t0, Clock::now()) * 1e3; }

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t fnv1a(const std::string& text, std::uint64_t hash = 0xcbf29ce484222325ULL) {
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Times topology `slot` through load -> auto_optimize -> DES, the first
/// two as the mean of `batch` back-to-back calls.  With `layer_detail`,
/// additionally times Alg. 1, Alg. 2, Alg. 3 and the latency model as
/// separate calls (outside the end-to-end timings).
PlanOutcome plan_topology(const std::string& xml, std::size_t slot, PlanTimes& times,
                          bool layer_detail, int batch) {
  // Import and optimization repeat `batch` times per sample and record the
  // mean: a single call on a small application takes tens of microseconds,
  // where one interrupt or cache refill shifts a percentile.
  PlanOutcome out;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < batch; ++i) {
    ScopedSpan span("xmlio", "load_topology");
    out.topology = ss::xml::load_topology(xml);
  }
  const Clock::time_point t1 = Clock::now();
  ss::AutoOptimizeOptions optimize;
  optimize.buffer_capacity = kBufferCapacity;
  for (int i = 0; i < batch; ++i) {
    ScopedSpan span("core", "auto_optimize");
    out.optimized = ss::auto_optimize(out.topology, optimize);
  }
  const Clock::time_point t2 = Clock::now();
  ss::sim::SimResult sim;
  {
    ScopedSpan span("sim", "simulate");
    ss::sim::SimOptions options;
    options.duration = kDesItems * out.topology.op(out.topology.source()).service_time;
    options.buffer_capacity = kBufferCapacity;
    options.seed = kDesSeed;
    options.replication = out.optimized.plan;
    options.partitions = out.optimized.partitions;
    sim = ss::sim::simulate(out.topology, options);
  }
  const Clock::time_point t3 = Clock::now();

  const double load_s = seconds_between(t0, t1) / batch;
  const double optimize_s = seconds_between(t1, t2) / batch;
  const double sim_s = seconds_between(t2, t3);
  if (times.best.size() <= slot) times.best.resize(slot + 1);
  times.best[slot].add(load_s * 1e3, optimize_s * 1e3, sim_s * 1e3, sim.events);
  times.load_ms.add(load_s * 1e3);
  times.optimize_ms.add(optimize_s * 1e3);
  times.sim_ms.add(sim_s * 1e3);
  times.plan_ms.add((load_s + optimize_s + sim_s) * 1e3);
  times.xml_bytes += static_cast<double>(xml.size());
  times.load_s += load_s;
  times.sim_events += sim.events;
  times.sim_s += sim_s;

  out.predicted = out.optimized.analysis.throughput();
  out.simulated = sim.throughput;
  out.err_pct = sim.throughput > 0.0
                    ? std::abs(out.predicted - sim.throughput) / sim.throughput * 100.0
                    : 100.0;

  if (layer_detail) {
    const ss::Topology& t = out.topology;
    Clock::time_point s = Clock::now();
    ss::SteadyStateResult rates;
    {
      ScopedSpan span("core", "alg1_steady_state");
      rates = ss::steady_state(t);
    }
    times.alg1_us.add(ms_since(s) * 1e3);
    s = Clock::now();
    ss::BottleneckResult fission;
    {
      ScopedSpan span("core", "alg2_eliminate_bottlenecks");
      fission = ss::eliminate_bottlenecks(t);
    }
    times.alg2_ms.add(ms_since(s));
    s = Clock::now();
    {
      ScopedSpan span("core", "alg3_fusion");
      const auto candidates = ss::suggest_fusion_candidates(t, fission.analysis);
      if (!candidates.empty()) (void)ss::apply_fusion(t, candidates.front().spec);
    }
    times.alg3_ms.add(ms_since(s));
    s = Clock::now();
    {
      ScopedSpan span("core", "estimate_latency");
      (void)ss::estimate_latency(t, fission.analysis, fission.plan, kBufferCapacity);
    }
    times.latency_ms.add(ms_since(s));
  }
  return out;
}

/// Deployment fingerprint of one planned topology (replicas, key-partition
/// shares, fusion groups, predicted throughput), folded into the digest.
std::string deployment_signature(const PlanOutcome& outcome) {
  std::ostringstream sig;
  const ss::AutoOptimizeResult& r = outcome.optimized;
  const std::size_t n = outcome.topology.num_operators();
  sig << "n=" << n << " r=";
  for (std::size_t i = 0; i < n; ++i) sig << r.plan.replicas_of(static_cast<ss::OpIndex>(i)) << ",";
  sig << " p=";
  for (const ss::KeyPartition& p : r.partitions) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%d/%.4f,", p.replicas, p.max_share);
    sig << buf;
  }
  sig << " f=";
  for (const ss::FusionSpec& f : r.fusions) {
    std::vector<ss::OpIndex> members = f.members;
    std::sort(members.begin(), members.end());
    for (ss::OpIndex m : members) sig << m << "+";
    sig << ";";
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, " x=%.6g", outcome.predicted);
  sig << buf;
  return sig.str();
}

/// Adds the planner's end-to-end metrics to `report`: load/optimize
/// percentiles over the topologies' fastest times, DES events/s at those
/// times.  With `layer_detail`, adds its per-layer metrics too.
void report_plan_times(const PlanTimes& times, bool layer_detail, Report& report) {
  Samples load_ms, optimize_ms;
  double events = 0.0;
  double sim_s = 0.0;
  for (const BestTimes& b : times.best) {
    load_ms.add(b.load_ms);
    optimize_ms.add(b.optimize_ms);
    events += static_cast<double>(b.sim_events);
    sim_s += b.sim_ms * 1e-3;
  }
  report.metric("load_ms_p50", load_ms.quantile(0.5), "ms");
  report.metric("load_ms_p90", load_ms.quantile(0.9), "ms");
  report.metric("optimize_ms_p50", optimize_ms.quantile(0.5), "ms");
  report.metric("optimize_ms_p90", optimize_ms.quantile(0.9), "ms");
  report.metric("sim_events_s", sim_s > 0.0 ? events / sim_s : 0.0, "1/s");
  report.info("plan_samples", std::to_string(times.plan_ms.count()));
  if (!layer_detail) return;
  report.metric("xmlio.parse_mb_s", times.load_s > 0.0 ? times.xml_bytes / 1e6 / times.load_s : 0.0,
                "MB/s");
  report.metric("xmlio.parse_ms_p50", times.load_ms.quantile(0.5), "ms");
  report.metric("core.alg1_us_p50", times.alg1_us.quantile(0.5), "us");
  report.metric("core.alg2_ms_p50", times.alg2_ms.quantile(0.5), "ms");
  report.metric("core.alg3_ms_p50", times.alg3_ms.quantile(0.5), "ms");
  report.metric("core.latency_ms_p50", times.latency_ms.quantile(0.5), "ms");
  report.metric("sim.events", static_cast<double>(times.sim_events), "count");
  report.metric("sim.wall_s", times.sim_s, "s");
}

}  // namespace

void BestTimes::add(double load, double optimize, double sim, std::uint64_t events) {
  if (!timed) {
    *this = BestTimes{load, optimize, sim, load + optimize + sim, events, true};
    return;
  }
  load_ms = std::min(load_ms, load);
  optimize_ms = std::min(optimize_ms, optimize);
  sim_ms = std::min(sim_ms, sim);
  plan_ms = std::min(plan_ms, load + optimize + sim);
}

PlanCheck::PlanCheck(const ss::Topology& t) : xml_(ss::xml::save_topology(t, "app")) {
  // Warm-up passes (caches, allocator) are not reported; they also size the
  // batch so one timed import + optimization takes at least kPlanBatchS.
  PlanTimes warmup;
  for (int i = 0; i < kPlanWarmup; ++i) last_ = plan_topology(xml_, 0, warmup, false, 1);
  const double fast_s = (warmup.load_ms.median() + warmup.optimize_ms.median()) * 1e-3;
  batch_ = std::max(1, static_cast<int>(std::ceil(kPlanBatchS / fast_s)));
}

void PlanCheck::run(double seconds, bool layer_detail) {
  const Clock::time_point start = Clock::now();
  do {
    last_ = plan_topology(xml_, 0, times_, layer_detail, batch_);
  } while (seconds_between(start, Clock::now()) < seconds);
}

void PlanCheck::report(bool layer_detail, Report& report) {
  while (times_.plan_ms.count() < kPlanCheckMinSamples) {
    last_ = plan_topology(xml_, 0, times_, layer_detail, batch_);
  }
  report_plan_times(times_, layer_detail, report);
  report.info("plan_batch", std::to_string(batch_));
  report.metric("model_err_pct", last_.err_pct, "%");
  if (layer_detail) {
    report.metric("sim.err_max_pct", last_.err_pct, "%");
    report.metric("core.predicted_items_s", last_.predicted, "1/s");
    report.metric("core.predicted_p99_ms", last_.optimized.predicted_p99 * 1e3, "ms");
  }
}

void run_plan_testbed(const RunOptions& options, Report& report) {
  // The testbed is the fixed default-seed draw and the DES seed is fixed;
  // the run seed picks the order topologies are planned in.  (Testbeds of
  // different seeds differ by 2x in XML size and model error, which would
  // swamp any change a planner optimization makes.)
  //
  // Set-up generates the testbed and serializes it to XML.  The timed
  // set-ups are spread over the run (one before it, the rest between
  // passes), like the rounds of the runtime workloads.
  Samples setup_s;
  const auto set_up = [&setup_s] {
    ScopedSpan span("gen", "testbed_setup");
    const Clock::time_point t0 = Clock::now();
    const std::vector<ss::Topology> testbed = ss::make_testbed(kTestbedSeed, kTestbedSize);
    std::vector<std::string> serialized;
    serialized.reserve(testbed.size());
    for (std::size_t i = 0; i < testbed.size(); ++i) {
      std::string name = "t";
      name += std::to_string(i);
      serialized.push_back(ss::xml::save_topology(testbed[i], name));
    }
    setup_s.add(seconds_between(t0, Clock::now()));
    return serialized;
  };
  const std::vector<std::string> xmls = set_up();
  std::vector<std::size_t> order(xmls.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  ss::Rng shuffle(options.seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[shuffle.next_u64() % i]);
  }

  PlanTimes times;
  std::vector<double> err_pct(xmls.size(), 0.0);
  Samples predicted_items_s;
  Samples predicted_p99_ms;
  std::vector<std::string> signatures(xmls.size());
  int regressions = 0;
  int passes = 0;
  const Clock::time_point start = Clock::now();
  while (passes < 2 || seconds_between(start, Clock::now()) < options.seconds) {
    if (setup_s.count() < kTestbedSetups &&
        seconds_between(start, Clock::now()) >=
            options.seconds * static_cast<double>(setup_s.count()) / kTestbedSetups) {
      (void)set_up();
    }
    for (const std::size_t i : order) {
      const PlanOutcome outcome = plan_topology(xmls[i], i, times, options.trace, 1);
      ++report.attempted;
      if (passes > 0) continue;
      err_pct[i] = outcome.err_pct;
      predicted_items_s.add(outcome.predicted);
      predicted_p99_ms.add(outcome.optimized.predicted_p99 * 1e3);
      signatures[i] = deployment_signature(outcome);
      const double original = ss::steady_state(outcome.topology).throughput();
      if (outcome.predicted < original * (1.0 - 1e-9)) ++regressions;
    }
    ++passes;
  }
  while (setup_s.count() < kTestbedSetups) (void)set_up();
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const std::string& sig : signatures) digest = fnv1a(sig + "\n", digest);
  Samples err;
  for (double e : err_pct) err.add(e);

  Samples plan_ms;
  for (const BestTimes& b : times.best) plan_ms.add(b.plan_ms);
  report.metric("throughput_items_s", static_cast<double>(plan_ms.count()) / (plan_ms.sum() / 1e3),
                "1/s");
  report.metric("latency_p50_ms", plan_ms.quantile(0.5), "ms");
  report.metric("latency_p99_ms", plan_ms.quantile(0.99), "ms");
  report.metric("setup_s", setup_s.median(), "s");
  report_plan_times(times, options.trace, report);
  report.metric("model_err_pct", err.mean(), "%");
  if (options.trace) {
    report.metric("sim.err_max_pct", err.max(), "%");
    report.metric("core.predicted_items_s", predicted_items_s.mean(), "1/s");
    report.metric("core.predicted_p99_ms", predicted_p99_ms.mean(), "ms");
  }
  report.info("passes", std::to_string(passes));
  report.info("testbed_digest", hex64(digest));

  report.check("optimized prediction >= original on every topology", regressions == 0,
               std::to_string(regressions) + " regressions");
  char band[96];
  std::snprintf(band, sizeof band, "mean %.3f%% <= %.1f%%", err.mean(), kModelErrBandPct);
  report.check("model error inside the accuracy band", err.mean() <= kModelErrBandPct, band);
  report.check("testbed deployments match the recorded digest", hex64(digest) == kTestbedDigest,
               "got " + hex64(digest) + ", recorded " + kTestbedDigest);
  report.failed = static_cast<std::uint64_t>(regressions);
}

}  // namespace ssb
