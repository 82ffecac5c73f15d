#include "runtime/trace.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "runtime/json.hpp"

namespace ss::runtime::trace {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

/// Single-writer ring: the owning thread writes a slot, then publishes it
/// by bumping `head` (release).  The flusher reads `head` (acquire) after
/// disarming and takes the newest `kCapacity` slots; older ones were
/// overwritten and count as dropped.  Rings outlive their threads (the
/// registry holds shared ownership) so flush can run after workers joined.
struct Tracer::Ring {
  static constexpr std::size_t kCapacity = 1 << 15;  ///< 32K events/thread

  std::vector<Event> slots{std::vector<Event>(kCapacity)};
  std::atomic<std::uint64_t> head{0};  ///< events ever written
  std::uint32_t tid = 0;
  std::string thread_name;

  void write(const Event& e) {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    slots[h % kCapacity] = e;
    head.store(h + 1, std::memory_order_release);
  }
};

namespace {

/// Registry of every ring ever created, so flush sees rings of threads
/// that already exited.  The mutex is taken at thread registration,
/// renaming and flush — never on the record path.
struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<Tracer::Ring>> rings;
  std::uint32_t next_tid = 1;
};

Registry& registry() {
  static Registry r;
  return r;
}

thread_local std::shared_ptr<Tracer::Ring> tls_ring;

thread_local const char* tls_tenant = nullptr;

/// Interned tenant labels.  Deque: stable addresses across growth; the
/// storage lives for the process (labels are few — one per tenant).
struct LabelPool {
  std::mutex mu;
  std::deque<std::string> labels;
};

LabelPool& label_pool() {
  static LabelPool p;
  return p;
}

}  // namespace

const char* intern_label(const std::string& label) {
  LabelPool& pool = label_pool();
  std::lock_guard<std::mutex> lock(pool.mu);
  for (const std::string& existing : pool.labels) {
    if (existing == label) return existing.c_str();
  }
  pool.labels.push_back(label);
  return pool.labels.back().c_str();
}

void set_thread_tenant(const char* tenant) { tls_tenant = tenant; }

const char* thread_tenant() { return tls_tenant; }

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

Tracer::Ring& Tracer::local_ring() {
  if (!tls_ring) {
    auto ring = std::make_shared<Ring>();
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    ring->tid = reg.next_tid++;
    ring->thread_name = "thread-" + std::to_string(ring->tid);
    reg.rings.push_back(ring);
    tls_ring = std::move(ring);
  }
  return *tls_ring;
}

bool Tracer::start() {
  bool expected = false;
  if (!enabled_.compare_exchange_strong(expected, true)) return false;
  dropped_.store(0, std::memory_order_relaxed);
  start_ns_.store(steady_ns(), std::memory_order_relaxed);
  return true;
}

std::uint64_t Tracer::now_ns() const {
  const std::uint64_t origin = start_ns_.load(std::memory_order_relaxed);
  if (origin == 0) return 0;
  return steady_ns() - origin;
}

void Tracer::record(const Event& e) {
  if (!enabled()) return;
  if (e.tenant == nullptr && tls_tenant != nullptr) {
    Event tagged = e;
    tagged.tenant = tls_tenant;
    local_ring().write(tagged);
    return;
  }
  local_ring().write(e);
}

void Tracer::set_thread_name(const std::string& name) {
  if (!enabled()) return;
  Ring& ring = local_ring();
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  ring.thread_name = name;
}

std::size_t Tracer::stop_and_flush(const std::string& path) {
  enabled_.store(false, std::memory_order_seq_cst);

  struct Timed {
    Event e;
    std::uint32_t tid;
  };
  struct Lane {
    std::uint32_t tid;
    std::string name;
  };
  std::vector<Timed> events;
  std::vector<Lane> lanes;
  std::uint64_t dropped = 0;
  {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    for (const auto& ring : reg.rings) {
      const std::uint64_t head = ring->head.load(std::memory_order_acquire);
      const std::uint64_t kept = std::min<std::uint64_t>(head, Ring::kCapacity);
      dropped += head - kept;
      for (std::uint64_t i = head - kept; i < head; ++i) {
        events.push_back({ring->slots[i % Ring::kCapacity], ring->tid});
      }
      if (kept > 0) lanes.push_back({ring->tid, ring->thread_name});
      ring->head.store(0, std::memory_order_relaxed);  // fresh next start()
    }
  }
  dropped_.store(dropped, std::memory_order_relaxed);

  std::sort(events.begin(), events.end(), [](const Timed& a, const Timed& b) {
    return a.e.ts_ns < b.e.ts_ns;
  });

  std::ofstream out(path, std::ios::trunc);
  require(out.good(), "cannot write trace file: " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };
  for (const Lane& lane : lanes) {
    sep();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << lane.tid
        << ",\"args\":{\"name\":\"" << json_escape(lane.name) << "\"}}";
  }
  out.precision(3);
  out << std::fixed;
  for (const Timed& t : events) {
    const Event& e = t.e;
    sep();
    out << "{\"name\":\"" << json_escape(e.name ? e.name : "?")
        << "\",\"cat\":\"" << json_escape(e.cat ? e.cat : "runtime")
        << "\",\"ph\":\"" << e.phase << "\",\"pid\":1,\"tid\":" << t.tid
        << ",\"ts\":" << static_cast<double>(e.ts_ns) / 1e3;
    if (e.phase == 'X') out << ",\"dur\":" << static_cast<double>(e.dur_ns) / 1e3;
    if (e.phase == 'i') out << ",\"s\":\"t\"";
    if (e.arg_name != nullptr || e.tenant != nullptr) {
      out << ",\"args\":{";
      if (e.tenant != nullptr) {
        out << "\"tenant\":\"" << json_escape(e.tenant) << "\"";
        if (e.arg_name != nullptr) out << ",";
      }
      if (e.arg_name != nullptr) {
        out << "\"" << json_escape(e.arg_name) << "\":" << e.arg;
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n]}\n";
  out.flush();
  require(out.good(), "failed writing trace file: " + path);
  return events.size();
}

void instant_armed(const char* name, const char* cat, const char* arg_name,
                   std::int64_t arg) {
  Tracer& t = Tracer::instance();
  if (!t.enabled()) return;
  Event e;
  e.name = name;
  e.cat = cat;
  e.arg_name = arg_name;
  e.arg = arg;
  e.ts_ns = t.now_ns();
  e.phase = 'i';
  t.record(e);
}

void Span::arm() noexcept {
  Tracer& t = Tracer::instance();
  if (t.enabled()) {
    active_ = true;
    start_ns_ = t.now_ns();
  }
}

void Span::finish() {
  Tracer& t = Tracer::instance();
  if (!t.enabled()) return;  // disarmed mid-span: drop it
  Event e;
  e.name = name_;
  e.cat = cat_;
  e.arg_name = arg_name_;
  e.arg = arg_;
  e.ts_ns = start_ns_;
  e.dur_ns = t.now_ns() - start_ns_;
  e.phase = 'X';
  t.record(e);
}

}  // namespace ss::runtime::trace
