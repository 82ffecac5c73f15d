#include "runtime/stats_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "core/error.hpp"
#include "runtime/json.hpp"

namespace ss::runtime {

namespace {

/// Receive and send deadline of one client connection: bounds how long a
/// stalled client can keep the serial accept loop (and stop()) waiting.
constexpr timeval kClientDeadline{1, 0};

/// Prometheus label values escape backslash, quote and newline.
std::string prom_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

StatsServer::StatsServer(int port, std::function<MetricsSample()> sampler,
                         std::vector<std::string> op_names)
    : port_(port), sampler_(std::move(sampler)), op_names_(std::move(op_names)) {
  require(port > 0 && port <= 65535,
          "--stats-port out of range (1-65535): " + std::to_string(port));
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  require(listen_fd_ >= 0, "stats server: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    require(false, "stats server: cannot bind 127.0.0.1:" + std::to_string(port) +
                       " (" + std::strerror(err) + ")");
  }
  if (::listen(listen_fd_, 8) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    require(false, "stats server: listen() failed on port " + std::to_string(port));
  }
}

StatsServer::~StatsServer() { stop(); }

void StatsServer::start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) return;
  thread_ = std::thread([this] { loop(); });
}

void StatsServer::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void StatsServer::loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 100);  // 100 ms: bounded stop latency
    if (ready <= 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    // Requests are served inline on this thread, so a client that connects
    // and then stalls (sends nothing, or never reads) would otherwise hold
    // the loop — and stop() — for as long as it likes.
    const timeval deadline = kClientDeadline;
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &deadline, sizeof(deadline));
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &deadline, sizeof(deadline));
    serve(client);
    ::close(client);
  }
}

void StatsServer::serve(int client_fd) {
  // Read one request head (we only need the request line; this endpoint
  // serves GETs from curl/Prometheus, not pipelined clients).
  char buf[2048];
  const auto n = ::recv(client_fd, buf, sizeof(buf) - 1, 0);
  if (n <= 0) return;
  buf[n] = '\0';
  std::string head(buf);
  const auto line_end = head.find("\r\n");
  const std::string request_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  std::istringstream parse(request_line);
  std::string method;
  std::string path;
  parse >> method >> path;

  std::string body;
  std::string content_type = "application/json";
  int status = 200;
  const char* reason = "OK";
  if (method != "GET") {
    status = 405;
    reason = "Method Not Allowed";
    body = "{\"error\":\"method not allowed\"}\n";
  } else if (path == "/metrics") {
    content_type = "text/plain; version=0.0.4";
    body = render_prometheus(sampler_());
  } else if (path == "/" || path == "/stats.json") {
    body = render_json(sampler_());
  } else {
    status = 404;
    reason = "Not Found";
    body = "{\"error\":\"unknown path; try /metrics or /stats.json\"}\n";
  }

  std::ostringstream resp;
  resp << "HTTP/1.0 " << status << " " << reason << "\r\n"
       << "Content-Type: " << content_type << "\r\n"
       << "Content-Length: " << body.size() << "\r\n"
       << "Connection: close\r\n\r\n"
       << body;
  const std::string out = resp.str();
  std::size_t sent = 0;
  while (sent < out.size()) {
    // MSG_NOSIGNAL: a client that disconnects early must not SIGPIPE the
    // engine's process.
    const auto w = ::send(client_fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (w <= 0) break;
    sent += static_cast<std::size_t>(w);
  }
}

std::string StatsServer::render_json(const MetricsSample& s) const {
  const CounterSnapshot& c = s.counters;
  std::ostringstream out;
  out.precision(6);
  out << "{\"t\":" << c.at_seconds << ",\"epoch\":" << s.epoch
      << ",\"dropped\":" << s.dropped << ",\"ops\":[";
  const std::size_t n = c.processed.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) out << ",";
    const double busy_s =
        i < c.busy_ns.size() ? static_cast<double>(c.busy_ns[i]) * 1e-9 : 0.0;
    const double blocked_s =
        i < c.blocked_ns.size() ? static_cast<double>(c.blocked_ns[i]) * 1e-9 : 0.0;
    out << "{\"name\":\""
        << json_escape(i < op_names_.size() ? op_names_[i] : std::to_string(i))
        << "\",\"processed\":" << c.processed[i]
        << ",\"emitted\":" << (i < c.emitted.size() ? c.emitted[i] : 0)
        << ",\"busy_s\":" << busy_s << ",\"blocked_s\":" << blocked_s
        << ",\"queue\":" << (i < c.queue_depth.size() ? c.queue_depth[i] : 0)
        << ",\"queue_peak\":" << (i < c.queue_peak.size() ? c.queue_peak[i] : 0);
    if (busy_s > 0.0) {
      out << ",\"busy_rate\":" << static_cast<double>(c.processed[i]) / busy_s;
    }
    if (i < s.profile.size()) {
      const ProfileEstimate& p = s.profile[i];
      out << ",\"est_rate\":" << p.estimated_rate
          << ",\"confidence\":" << p.confidence << ",\"est_samples\":" << p.samples;
      if (p.cv2 >= 0.0) out << ",\"cv2\":" << p.cv2;
      out << ",\"queue_full\":" << p.queue_full_fraction;
    }
    if (i < s.latency.per_op.size() && s.latency.per_op[i].count > 0) {
      const LatencySummary& l = s.latency.per_op[i];
      out << ",\"p50_ms\":" << l.p50 * 1e3 << ",\"p95_ms\":" << l.p95 * 1e3
          << ",\"p99_ms\":" << l.p99 * 1e3;
    }
    out << "}";
  }
  out << "],\"bottlenecks\":[";
  for (std::size_t i = 0; i < s.bottlenecks.size(); ++i) {
    if (i > 0) out << ",";
    const BottleneckEntry& b = s.bottlenecks[i];
    out << "{\"op\":\""
        << json_escape(b.op < op_names_.size() ? op_names_[b.op]
                                               : std::to_string(b.op))
        << "\",\"blame_s\":" << b.blame_seconds << ",\"share\":" << b.share << "}";
  }
  out << "],\"e2e\":{\"count\":" << s.latency.end_to_end.count;
  if (s.latency.end_to_end.count > 0) {
    out << ",\"p50_ms\":" << s.latency.end_to_end.p50 * 1e3
        << ",\"p95_ms\":" << s.latency.end_to_end.p95 * 1e3
        << ",\"p99_ms\":" << s.latency.end_to_end.p99 * 1e3;
  }
  out << "},\"sched\":{\"steals\":" << s.scheduler.steals
      << ",\"batches\":" << s.scheduler.batches
      << ",\"ring_enqueues\":" << s.scheduler.ring_enqueues
      << ",\"ring_spills\":" << s.scheduler.ring_spills << "}}\n";
  return out.str();
}

std::string StatsServer::render_prometheus(const MetricsSample& s) const {
  const CounterSnapshot& c = s.counters;
  std::ostringstream out;
  out.precision(6);
  const auto label = [&](std::size_t i) {
    return "{op=\"" +
           prom_escape(i < op_names_.size() ? op_names_[i] : std::to_string(i)) +
           "\"}";
  };
  const std::size_t n = c.processed.size();
  out << "# TYPE ss_op_processed_total counter\n";
  for (std::size_t i = 0; i < n; ++i) {
    out << "ss_op_processed_total" << label(i) << " " << c.processed[i] << "\n";
  }
  out << "# TYPE ss_op_emitted_total counter\n";
  for (std::size_t i = 0; i < n && i < c.emitted.size(); ++i) {
    out << "ss_op_emitted_total" << label(i) << " " << c.emitted[i] << "\n";
  }
  out << "# TYPE ss_op_busy_seconds_total counter\n";
  for (std::size_t i = 0; i < c.busy_ns.size(); ++i) {
    out << "ss_op_busy_seconds_total" << label(i) << " "
        << static_cast<double>(c.busy_ns[i]) * 1e-9 << "\n";
  }
  out << "# TYPE ss_op_blocked_seconds_total counter\n";
  for (std::size_t i = 0; i < c.blocked_ns.size(); ++i) {
    out << "ss_op_blocked_seconds_total" << label(i) << " "
        << static_cast<double>(c.blocked_ns[i]) * 1e-9 << "\n";
  }
  out << "# TYPE ss_op_queue_depth gauge\n";
  for (std::size_t i = 0; i < c.queue_depth.size(); ++i) {
    out << "ss_op_queue_depth" << label(i) << " " << c.queue_depth[i] << "\n";
  }
  if (!s.profile.empty()) {
    out << "# TYPE ss_op_estimated_service_rate gauge\n";
    for (std::size_t i = 0; i < s.profile.size(); ++i) {
      if (s.profile[i].estimated_rate <= 0.0) continue;
      out << "ss_op_estimated_service_rate" << label(i) << " "
          << s.profile[i].estimated_rate << "\n";
    }
    out << "# TYPE ss_op_busy_service_rate gauge\n";
    for (std::size_t i = 0; i < s.profile.size(); ++i) {
      if (s.profile[i].busy_rate <= 0.0) continue;
      out << "ss_op_busy_service_rate" << label(i) << " " << s.profile[i].busy_rate
          << "\n";
    }
    out << "# TYPE ss_op_profile_confidence gauge\n";
    for (std::size_t i = 0; i < s.profile.size(); ++i) {
      out << "ss_op_profile_confidence" << label(i) << " "
          << s.profile[i].confidence << "\n";
    }
    out << "# TYPE ss_op_queue_full_fraction gauge\n";
    for (std::size_t i = 0; i < s.profile.size(); ++i) {
      out << "ss_op_queue_full_fraction" << label(i) << " "
          << s.profile[i].queue_full_fraction << "\n";
    }
  }
  if (!s.bottlenecks.empty()) {
    out << "# TYPE ss_op_bottleneck_share gauge\n";
    for (const BottleneckEntry& b : s.bottlenecks) {
      out << "ss_op_bottleneck_share" << label(b.op) << " " << b.share << "\n";
    }
  }
  bool latency_typed = false;
  for (std::size_t i = 0; i < s.latency.per_op.size(); ++i) {
    if (s.latency.per_op[i].count == 0) continue;
    if (!latency_typed) {
      out << "# TYPE ss_op_latency_seconds summary\n";
      latency_typed = true;
    }
    const LatencySummary& l = s.latency.per_op[i];
    out << "ss_op_latency_seconds{op=\""
        << prom_escape(i < op_names_.size() ? op_names_[i] : std::to_string(i))
        << "\",quantile=\"0.5\"} " << l.p50 << "\n";
    out << "ss_op_latency_seconds{op=\""
        << prom_escape(i < op_names_.size() ? op_names_[i] : std::to_string(i))
        << "\",quantile=\"0.99\"} " << l.p99 << "\n";
  }
  if (s.latency.end_to_end.count > 0) {
    out << "# TYPE ss_e2e_latency_seconds summary\n";
    out << "ss_e2e_latency_seconds{quantile=\"0.5\"} " << s.latency.end_to_end.p50
        << "\n";
    out << "ss_e2e_latency_seconds{quantile=\"0.95\"} " << s.latency.end_to_end.p95
        << "\n";
    out << "ss_e2e_latency_seconds{quantile=\"0.99\"} " << s.latency.end_to_end.p99
        << "\n";
  }
  out << "# TYPE ss_epoch gauge\nss_epoch " << s.epoch << "\n"
      << "# TYPE ss_dropped_total counter\nss_dropped_total " << s.dropped << "\n"
      << "# TYPE ss_sched_steals_total counter\nss_sched_steals_total "
      << s.scheduler.steals << "\n"
      << "# TYPE ss_sched_ring_enqueues_total counter\n"
      << "ss_sched_ring_enqueues_total " << s.scheduler.ring_enqueues << "\n"
      << "# TYPE ss_sched_ring_spills_total counter\nss_sched_ring_spills_total "
      << s.scheduler.ring_spills << "\n";
  return out.str();
}

}  // namespace ss::runtime
