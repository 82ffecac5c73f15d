// Live stats endpoint: a deliberately tiny HTTP/1.0 server over raw POSIX
// sockets (no third-party dependencies) that exposes the running engine's
// measurements without waiting for exit stats.
//
//   GET /metrics     Prometheus-style text exposition (counters, rates,
//                    profiler estimates, bottleneck shares, percentiles)
//   GET /stats.json  one JSON snapshot (same data, nested per op)
//   GET /            alias of /stats.json
//
// The server binds 127.0.0.1:<port> in the constructor and throws
// ss::Error when the port is invalid or already taken — the engine
// constructs it before starting the scheduler, so a bad --stats-port
// fails the run up front instead of half-way through.  One accept loop
// thread serves requests serially (observability endpoint, not a web
// server); each response closes the connection.  Every connection gets a
// 1 s receive and send deadline, so an idle or stalled client delays the
// loop — and shutdown — by at most that much.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "runtime/telemetry.hpp"

namespace ss::runtime {

class StatsServer {
 public:
  /// `sampler` is called per request (cheap: counter snapshot + profiler
  /// copy); `op_names` labels the per-op series.  Throws ss::Error when
  /// binding 127.0.0.1:`port` fails.
  StatsServer(int port, std::function<MetricsSample()> sampler,
              std::vector<std::string> op_names);
  ~StatsServer();

  StatsServer(const StatsServer&) = delete;
  StatsServer& operator=(const StatsServer&) = delete;

  void start();
  /// Closes the listening socket and joins the accept loop.  Idempotent.
  void stop();

  /// The bound port (== the requested one; kept for symmetry with tests
  /// that pass explicit ports).
  [[nodiscard]] int port() const { return port_; }

  /// Payload builders, exposed for unit tests.
  [[nodiscard]] std::string render_json(const MetricsSample& s) const;
  [[nodiscard]] std::string render_prometheus(const MetricsSample& s) const;

 private:
  void loop();
  void serve(int client_fd);

  const int port_;
  std::function<MetricsSample()> sampler_;
  std::vector<std::string> op_names_;
  int listen_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
};

}  // namespace ss::runtime
