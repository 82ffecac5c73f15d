#include "runtime_workloads.hpp"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/optimizer.hpp"
#include "gen/rng.hpp"
#include "gen/workload.hpp"
#include "ops/registry.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/engine.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/metrics.hpp"
#include "runtime/routing.hpp"
#include "runtime/scheduler.hpp"

namespace ssb {

namespace {

using ss::OpIndex;
using ss::OperatorSpec;
using ss::Topology;
using ss::runtime::AppFactory;
using ss::runtime::Collector;
using ss::runtime::Engine;
using ss::runtime::EngineConfig;
using ss::runtime::OperatorLogic;
using ss::runtime::RunStats;
using ss::runtime::SchedulerKind;
using ss::runtime::SourceLogic;
using ss::runtime::Tuple;

/// A runtime run is cut into rounds; each runs a slice of the planner
/// check, a few set-ups and one engine run, so every metric samples the
/// host at several points of the run (on a shared host, speed shifts by up
/// to 1.5x for seconds at a time).
constexpr int kRounds = 4;
/// Set-ups per round (the last one's engine runs); setup_s is the median.
constexpr int kSetupsPerRound = 5;
/// Pool workers are pinned one per core: unpinned, the pooled runs on a
/// shared 4-core host spread by ~25% run to run; pinned, by a few percent.
/// (Ignored under thread-per-actor.)
constexpr ss::runtime::PinMode kPin = ss::runtime::PinMode::kCores;
/// Share of the time budget spent on the pre-deployment planner check; the
/// engine runs for the rest.
constexpr double kPlanCheckShare = 0.2;

// app_paced: the Alg. 5 draw (V = 10, beta = 1.2, real catalog operators)
// of this generator seed is the application; the benchmark seed draws its
// input stream (arrival times, keys, attribute values).
constexpr std::uint64_t kAppTopologySeed = 2032;
constexpr int kAppVertices = 10;
constexpr double kAppBeta = 1.2;
/// Offered load, items/s: about half of what the pooled runtime sustains
/// on this application with an unpaced source (see README.md).
constexpr double kAppOfferedRate = 60000.0;
/// Key domain of the generated stream.
constexpr std::int64_t kAppKeys = 16;
/// Checkpoint schedule: one Engine::checkpoint_now() every period.  Every
/// pause of length P charges the items due during it, so latency_p99_ms
/// sits near P minus (1% of the period): at 0.5 s a 20% change of P moved
/// p99 by about 35%, at 0.2 s by about 25%, and each run averages 2.5x as
/// many pauses.
constexpr double kCheckpointPeriod = 0.2;
/// A round drains if its engine run completes within this long of the
/// source's end; run_until_complete is capped at twice that past the
/// source's last item, so a run that stalls hits the cap and fails the
/// check instead of being drained by stop.
constexpr double kDrainSlackS = 5.0;

int host_cores() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

/// Threads of a saturated closed loop: one core fewer than the host has.
/// With a busy thread on every core, any other thread that wakes (the
/// benchmark's own, the kernel's) preempts a pinned worker or an actor and
/// stalls the whole loop: at nproc, chain_threads ran at 0.54-1.1M items/s
/// and fanin_pool at 53-110k items/s over runs of the same code; at
/// nproc - 1, 1.10-1.25M and 99-104k, at the same median throughput.
int closed_loop_threads() { return std::max(1, host_cores() - 1); }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// True when the engine run that ended at `end_ns` finished on its own
/// within kDrainSlackS of the source's end (0 = the source never ended).
bool drained_in_time(std::int64_t source_end_ns, std::int64_t end_ns) {
  return source_end_ns > 0 && static_cast<double>(end_ns - source_end_ns) * 1e-9 <= kDrainSlackS;
}

// ------------------------------------------------------ traced run: ops
//
// In a traced run every operator is wrapped in a TimedLogic, so the
// operators' own time can be told apart from the runtime's: the runtime is
// charged the process CPU time of its engine runs minus the operators' and
// the source's time.

struct OpsClock {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> calls{0};
};

/// Times every call into the wrapped logic, minus the time its emits spend
/// in the runtime (routing, hand-off, backpressure), and adds the total to
/// `clock` when the operator finishes.
class TimedLogic final : public OperatorLogic {
 public:
  TimedLogic(std::unique_ptr<OperatorLogic> inner, OpsClock& clock)
      : inner_(std::move(inner)), clock_(clock) {}

  void on_start() override { inner_->on_start(); }
  void process(const Tuple& item, OpIndex from, Collector& out) override {
    Timed timed(out);
    const std::int64_t t0 = now_ns();
    inner_->process(item, from, timed);
    ns_ += now_ns() - t0 - timed.emit_ns;
    ++calls_;
  }
  void on_finish(Collector& out) override {
    inner_->on_finish(out);
    clock_.ns.fetch_add(static_cast<std::uint64_t>(std::max<std::int64_t>(ns_, 0)));
    clock_.calls.fetch_add(calls_);
    ns_ = 0;
    calls_ = 0;
  }
  [[nodiscard]] std::unique_ptr<OperatorLogic> clone() const override {
    return std::make_unique<TimedLogic>(inner_->clone(), clock_);
  }
  [[nodiscard]] std::vector<std::int64_t> owned_keys() const override {
    return inner_->owned_keys();
  }
  [[nodiscard]] bool save_state(std::string& out) const override {
    return inner_->save_state(out);
  }
  bool restore_state(const std::string& bytes) override { return inner_->restore_state(bytes); }

 private:
  class Timed final : public Collector {
   public:
    explicit Timed(Collector& out) : out_(out) {}
    void emit(const Tuple& t) override {
      const std::int64_t t0 = now_ns();
      out_.emit(t);
      emit_ns += now_ns() - t0;
    }
    void emit_to(OpIndex target, const Tuple& t) override {
      const std::int64_t t0 = now_ns();
      out_.emit_to(target, t);
      emit_ns += now_ns() - t0;
    }
    std::int64_t emit_ns = 0;

   private:
    Collector& out_;
  };

  std::unique_ptr<OperatorLogic> inner_;
  OpsClock& clock_;
  std::int64_t ns_ = 0;
  std::uint64_t calls_ = 0;
};

/// Wraps `logic` in a TimedLogic when `clock` is given.
std::unique_ptr<OperatorLogic> timed(std::unique_ptr<OperatorLogic> logic, OpsClock* clock) {
  if (clock == nullptr) return logic;
  return std::make_unique<TimedLogic>(std::move(logic), *clock);
}

/// Process CPU time of the engine runs and what of it the operators and
/// the source used; reports self_us.runtime (per source item) and
/// self_us.ops (per operator call).
struct LayerTimes {
  OpsClock ops;
  std::atomic<std::uint64_t> source_cpu_ns{0};
  double engine_cpu_s = 0.0;

  void report(double items, Report& report) const {
    const double ops_s = static_cast<double>(ops.ns.load()) * 1e-9;
    const double source_s = static_cast<double>(source_cpu_ns.load()) * 1e-9;
    const double runtime_s = std::max(engine_cpu_s - ops_s - source_s, 0.0);
    report.metric("self_us.runtime", items > 0.0 ? runtime_s * 1e6 / items : 0.0, "us/item");
    const double calls = static_cast<double>(ops.calls.load());
    report.metric("self_us.ops", calls > 0.0 ? ops_s * 1e6 / calls : 0.0, "us/call");
  }
};

// ------------------------------------------------------------ topologies
//
// Declared service times only feed the planner check; the runtime
// workloads realize every operator zero-cost (synthetic_factory(0.0)).

std::string op_name(const char* prefix, int i, const char* suffix) {
  std::string name = prefix;
  name += std::to_string(i);
  name += suffix;
  return name;
}

Topology fanin_topology() {
  ss::Topology::Builder b;
  const OpIndex source = b.add_operator("source", 2e-6);
  std::vector<OpIndex> tails;
  for (int i = 0; i < 8; ++i) {
    const OpIndex first = b.add_operator(op_name("b", i, "_1"), 1e-6);
    const OpIndex second = b.add_operator(op_name("b", i, "_2"), 1e-6);
    b.add_edge(source, first, 1.0 / 8.0);
    b.add_edge(first, second);
    tails.push_back(second);
  }
  const OpIndex join = b.add_operator("join", 1e-6);
  for (OpIndex t : tails) b.add_edge(t, join);
  return b.build();
}

Topology chain_topology(int actors) {
  ss::Topology::Builder b;
  OpIndex prev = b.add_operator("source", 2e-6);
  for (int i = 1; i < actors; ++i) {
    const OpIndex next = b.add_operator(op_name("s", i, ""), 1e-6);
    b.add_edge(prev, next);
    prev = next;
  }
  return b.build();
}

Topology app_topology() {
  ss::Rng rng(kAppTopologySeed);
  ss::ShapeOptions shape;
  shape.min_vertices = shape.max_vertices = kAppVertices;
  shape.beta_min = shape.beta_max = kAppBeta;
  return ss::random_topology(rng, shape);
}

// ------------------------------------------------- closed-loop wrappers

struct LoopCounters {
  std::atomic<std::uint64_t> source_items{0};
  std::atomic<std::uint64_t> sink_items{0};
  std::atomic<std::int64_t> source_end_ns{0};
  std::atomic<std::int64_t> deadline_ns{0};
  /// Source-to-sink latency of every item of every round.
  ss::runtime::LatencyHistogram latency;
};

/// Unpaced source that stops at the run deadline: a finite input whose
/// length is set by the time budget.  Each item carries its hand-over time
/// in `id` (the zero-cost operators pass items through unchanged), from
/// which the sink times it.
class DeadlineSource final : public SourceLogic {
 public:
  DeadlineSource(std::unique_ptr<SourceLogic> inner, LoopCounters& counters)
      : inner_(std::move(inner)), counters_(counters) {}

  bool next(Tuple& out) override {
    if (done_) return false;
    const std::int64_t now = now_ns();
    if (now >= counters_.deadline_ns.load(std::memory_order_relaxed)) return finish();
    if (!inner_->next(out)) return finish();
    out.id = now;
    ++count_;
    return true;
  }

 private:
  bool finish() {
    done_ = true;
    counters_.source_items.fetch_add(count_);
    counters_.source_end_ns.store(now_ns());
    return false;
  }

  std::unique_ptr<SourceLogic> inner_;
  LoopCounters& counters_;
  std::uint64_t count_ = 0;
  bool done_ = false;
};

/// Counts and times the items a sink operator consumes (the count is
/// published at end of stream).
class CountingLogic final : public OperatorLogic {
 public:
  CountingLogic(std::unique_ptr<OperatorLogic> inner, LoopCounters& counters)
      : inner_(std::move(inner)), counters_(counters) {}

  void on_start() override { inner_->on_start(); }
  void process(const Tuple& item, OpIndex from, Collector& out) override {
    ++count_;
    counters_.latency.record(static_cast<double>(now_ns() - item.id) * 1e-9);
    inner_->process(item, from, out);
  }
  void on_finish(Collector& out) override {
    inner_->on_finish(out);
    counters_.sink_items.fetch_add(count_);
    count_ = 0;
  }
  [[nodiscard]] std::unique_ptr<OperatorLogic> clone() const override {
    return std::make_unique<CountingLogic>(inner_->clone(), counters_);
  }

 private:
  std::unique_ptr<OperatorLogic> inner_;
  LoopCounters& counters_;
  std::uint64_t count_ = 0;
};

/// `ops` (traced runs) times every operator.
AppFactory closed_loop_factory(const Topology& t, LoopCounters& counters, OpsClock* ops) {
  const AppFactory base = ss::runtime::synthetic_factory(0.0);
  std::vector<bool> sink(t.num_operators(), false);
  for (OpIndex s : t.sinks()) sink[s] = true;
  AppFactory factory;
  factory.source = [base, &counters](OpIndex op, const OperatorSpec& spec) {
    return std::make_unique<DeadlineSource>(base.source(op, spec), counters);
  };
  factory.logic = [base, sink, &counters, ops](OpIndex op, const OperatorSpec& spec) {
    auto logic = base.logic(op, spec);
    if (sink[op]) logic = std::make_unique<CountingLogic>(std::move(logic), counters);
    return timed(std::move(logic), ops);
  };
  return factory;
}

// ------------------------------------------------------ open-loop inputs

/// The open-loop input stream, drawn from the benchmark seed: Poisson
/// arrival offsets at the offered rate, keys and attribute values.  The
/// source hands item i over at t0 + due[i]; terminal operators time each
/// result from the due time of its last contributing item.
struct OpenLoop {
  std::vector<double> due;  ///< seconds after t0
  std::vector<std::int64_t> keys;
  std::uint64_t value_seed = 0;
  /// Seconds after t0 past which the source gives up (run end); items not
  /// handed over by then count as failed.
  double give_up_s = 0.0;
  std::atomic<std::int64_t> t0_ns{0};

  /// Traced runs: the source's CPU time (its pacing wait spins) goes here.
  std::atomic<std::uint64_t>* source_cpu_ns = nullptr;

  // Written by the source actor only, read after the run.
  std::vector<double> lag_s;
  std::uint64_t handed_over = 0;
  std::atomic<std::int64_t> source_end_ns{0};

  /// Optional injected stall (self-test): the operator named `stall_op`
  /// sleeps `stall_s` when it processes item `stall_item`.
  OpIndex stall_op = ss::kInvalidOp;
  std::int64_t stall_item = -1;
  double stall_s = 0.0;

  std::mutex buffers_mutex;
  std::vector<std::unique_ptr<std::vector<double>>> latency_buffers;

  OpenLoop(std::uint64_t seed, double rate, double seconds) {
    ss::Rng rng(seed ^ 0x0123456789abcdefULL);
    const auto n = static_cast<std::size_t>(rate * seconds);
    due.reserve(n);
    keys.reserve(n);
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      t += -std::log(1.0 - rng.next_double()) / rate;
      due.push_back(t);
      keys.push_back(static_cast<std::int64_t>(rng.next_u64() % kAppKeys));
    }
    value_seed = rng.next_u64();
    lag_s.reserve(n);
  }

  std::vector<double>* new_latency_buffer() {
    std::lock_guard lock(buffers_mutex);
    latency_buffers.push_back(std::make_unique<std::vector<double>>());
    return latency_buffers.back().get();
  }

  double latency_of(std::int64_t id) const {
    const std::int64_t since_t0 = now_ns() - t0_ns.load(std::memory_order_relaxed);
    return static_cast<double>(since_t0) * 1e-9 - due[static_cast<std::size_t>(id)];
  }
};

/// Paces items by their due time.  Never sleeps ahead of schedule and
/// never skips: an item handed over late carries its lag into the
/// latency of everything behind it.
class PacedSource final : public SourceLogic {
 public:
  explicit PacedSource(OpenLoop& loop) : loop_(loop), rng_(loop.value_seed) {}

  bool next(Tuple& out) override {
    if (loop_.source_cpu_ns == nullptr) return paced_next(out);
    const std::int64_t c0 = thread_cpu_ns();
    const bool more = paced_next(out);
    loop_.source_cpu_ns->fetch_add(static_cast<std::uint64_t>(thread_cpu_ns() - c0),
                                   std::memory_order_relaxed);
    return more;
  }

 private:
  bool paced_next(Tuple& out) {
    if (done_) return false;
    if (index_ >= loop_.due.size()) return finish();
    if (index_ == 0) loop_.t0_ns.store(now_ns() + 1'000'000);  // first item due in 1 ms
    const std::int64_t t0 = loop_.t0_ns.load(std::memory_order_relaxed);
    const double due = loop_.due[index_];
    double now_s = static_cast<double>(now_ns() - t0) * 1e-9;
    if (now_s > loop_.give_up_s) return finish();
    if (now_s < due) {
      ss::runtime::precise_wait(due - now_s);
      now_s = static_cast<double>(now_ns() - t0) * 1e-9;
    }
    loop_.lag_s.push_back(std::max(0.0, now_s - due));
    out.id = static_cast<std::int64_t>(index_);
    out.key = loop_.keys[index_];
    for (double& f : out.f) f = rng_.next_double();
    ++index_;
    ++loop_.handed_over;
    return true;
  }

  bool finish() {
    done_ = true;
    loop_.source_end_ns.store(now_ns());
    return false;
  }

  OpenLoop& loop_;
  ss::Rng rng_;
  std::size_t index_ = 0;
  bool done_ = false;
};

/// Wraps every operator of the open-loop application: results leave
/// stamped with the id (and source stamp) of the input that triggered
/// them — their last contributing item — so windowed and top-k operators
/// that re-emit older tuples are still timed from the right due time.
/// On terminal operators every result is timed from that due time.
class AppLogic final : public OperatorLogic {
 public:
  AppLogic(std::unique_ptr<OperatorLogic> inner, OpenLoop& loop, OpIndex op, bool terminal)
      : inner_(std::move(inner)),
        loop_(loop),
        op_(op),
        terminal_(terminal) {}

  void on_start() override { inner_->on_start(); }

  void process(const Tuple& item, OpIndex from, Collector& out) override {
    last_id_ = item.id;
    last_ts_ = item.ts;
    if (op_ == loop_.stall_op && item.id == loop_.stall_item) {
      std::this_thread::sleep_for(std::chrono::duration<double>(loop_.stall_s));
    }
    Stamp stamp(*this, out);
    inner_->process(item, from, stamp);
  }
  void on_finish(Collector& out) override {
    Stamp stamp(*this, out);
    inner_->on_finish(stamp);
  }
  [[nodiscard]] std::unique_ptr<OperatorLogic> clone() const override {
    return std::make_unique<AppLogic>(inner_->clone(), loop_, op_, terminal_);
  }
  [[nodiscard]] std::vector<std::int64_t> owned_keys() const override {
    return inner_->owned_keys();
  }
  [[nodiscard]] bool save_state(std::string& out) const override {
    return inner_->save_state(out);
  }
  bool restore_state(const std::string& bytes) override { return inner_->restore_state(bytes); }

 private:
  class Stamp final : public Collector {
   public:
    Stamp(AppLogic& self, Collector& out) : self_(self), out_(out) {}
    void emit(const Tuple& t) override { out_.emit(stamped(t)); }
    void emit_to(OpIndex target, const Tuple& t) override { out_.emit_to(target, stamped(t)); }

   private:
    Tuple stamped(const Tuple& t) {
      Tuple r = t;
      r.id = self_.last_id_;
      r.ts = self_.last_ts_;
      if (self_.terminal_) {
        if (self_.samples_ == nullptr) self_.samples_ = self_.loop_.new_latency_buffer();
        self_.samples_->push_back(self_.loop_.latency_of(r.id));
      }
      return r;
    }
    AppLogic& self_;
    Collector& out_;
  };

  std::unique_ptr<OperatorLogic> inner_;
  OpenLoop& loop_;
  OpIndex op_;
  bool terminal_;
  std::vector<double>* samples_ = nullptr;  ///< terminal only, on first result
  std::int64_t last_id_ = 0;
  double last_ts_ = 0.0;
};

/// `ops` (traced runs) times every operator.
AppFactory open_loop_factory(const Topology& t, OpenLoop& loop, bool catalog_logic,
                             OpsClock* ops) {
  std::vector<bool> sink(t.num_operators(), false);
  for (OpIndex s : t.sinks()) sink[s] = true;
  const AppFactory synthetic = ss::runtime::synthetic_factory(0.0);
  AppFactory factory;
  factory.source = [&loop](OpIndex, const OperatorSpec&) {
    return std::make_unique<PacedSource>(loop);
  };
  factory.logic = [sink, synthetic, catalog_logic, &loop, ops](OpIndex op,
                                                              const OperatorSpec& spec) {
    auto inner = catalog_logic ? ss::ops::make_logic(op, spec) : synthetic.logic(op, spec);
    return timed(std::make_unique<AppLogic>(std::move(inner), loop, op, sink[op]), ops);
  };
  return factory;
}

// ------------------------------------------------ single-threaded baseline

/// Unpaced generator of the same kind of items as the open-loop source.
class GeneratorSource final : public SourceLogic {
 public:
  explicit GeneratorSource(std::uint64_t seed) : rng_(seed) {}
  bool next(Tuple& out) override {
    out.id = id_++;
    out.key = static_cast<std::int64_t>(rng_.next_u64() % kAppKeys);
    for (double& f : out.f) f = rng_.next_double();
    return true;
  }

 private:
  ss::Rng rng_;
  std::int64_t id_ = 0;
};

/// Drives the operator logic objects of a topology in one thread: every
/// emit is routed (EdgeRouter) and processed by the destination at once,
/// with no mailboxes and no actors.
class DirectRunner {
 public:
  DirectRunner(const Topology& t, const AppFactory& factory, std::unique_ptr<SourceLogic> source,
               std::uint64_t seed)
      : t_(t), source_(std::move(source)), rng_(seed) {
    logic_.resize(t.num_operators());
    routers_.reserve(t.num_operators());
    for (OpIndex i = 0; i < t.num_operators(); ++i) {
      routers_.emplace_back(t, i);
      if (i != t.source()) {
        logic_[i] = factory.logic(i, t.op(i));
        logic_[i]->on_start();
      }
    }
  }

  /// Source items per second over `seconds`.
  double run(double seconds) {
    std::uint64_t items = 0;
    const Clock::time_point start = Clock::now();
    double elapsed = 0.0;
    Tuple item;
    while (true) {
      if ((items & 255) == 0) {
        elapsed = seconds_between(start, Clock::now());
        if (elapsed >= seconds) break;
      }
      if (!source_->next(item)) break;
      ++items;
      Out out(*this, t_.source());
      out.emit(item);
    }
    return static_cast<double>(items) / elapsed;
  }

 private:
  class Out final : public Collector {
   public:
    Out(DirectRunner& runner, OpIndex op) : runner_(runner), op_(op) {}
    void emit(const Tuple& t) override {
      const OpIndex to = runner_.routers_[op_].choose(runner_.rng_);
      if (to != ss::kInvalidOp) runner_.deliver(to, op_, t);
    }
    void emit_to(OpIndex target, const Tuple& t) override { runner_.deliver(target, op_, t); }

   private:
    DirectRunner& runner_;
    OpIndex op_;
  };

  void deliver(OpIndex to, OpIndex from, const Tuple& t) {
    Out out(*this, to);
    logic_[to]->process(t, from, out);
  }

  const Topology& t_;
  std::unique_ptr<SourceLogic> source_;
  ss::Rng rng_;
  std::vector<std::unique_ptr<OperatorLogic>> logic_;
  std::vector<ss::runtime::EdgeRouter> routers_;
};

// -------------------------------------------------- standalone probes

/// Results of probe loops land here so the loops cannot be optimized away.
volatile std::int64_t g_probe_sink = 0;

template <typename F>
double median_of(int reps, F&& measure) {
  Samples s;
  for (int i = 0; i < reps; ++i) s.add(measure());
  return s.median();
}

void probe_mailbox(Report& report) {
  ScopedSpan span("runtime", "mailbox_probe");
  using ss::runtime::Mailbox;
  using ss::runtime::Message;
  const Message m = Message::data(Tuple{}, 0, 1);
  report.metric("mailbox.try_send_recv_ns", median_of(5, [&] {
                  Mailbox box(64);
                  Message out;
                  constexpr int kOps = 1 << 19;
                  const Clock::time_point t0 = Clock::now();
                  for (int i = 0; i < kOps; ++i) {
                    (void)box.try_send(m);
                    (void)box.try_receive(out);
                  }
                  return seconds_between(t0, Clock::now()) * 1e9 / kOps;
                }),
                "ns");
  report.metric("mailbox.batch16_ns", median_of(5, [&] {
                  Mailbox box(64);
                  std::array<Message, 16> batch;
                  batch.fill(m);
                  std::vector<Message> out;
                  out.reserve(64);
                  constexpr int kOps = 1 << 16;
                  const Clock::time_point t0 = Clock::now();
                  for (int i = 0; i < kOps; ++i) {
                    (void)box.try_send_batch(batch.data(), batch.size());
                    out.clear();
                    (void)box.drain(out, batch.size());
                  }
                  return seconds_between(t0, Clock::now()) * 1e9 / kOps;
                }),
                "ns");
  report.metric("mailbox.pingpong_us", median_of(3, [&] {
                  Mailbox request(64);
                  Mailbox response(64);
                  std::thread echo([&] {
                    Message in;
                    while (request.receive(in)) {
                      if (in.kind == Message::Kind::kShutdown) break;
                      response.send_unbounded(in);
                    }
                  });
                  constexpr int kRounds = 5000;
                  Message out;
                  const Clock::time_point t0 = Clock::now();
                  for (int i = 0; i < kRounds; ++i) {
                    (void)request.send(m, std::chrono::seconds(5));
                    (void)response.receive(out);
                  }
                  const double us = seconds_between(t0, Clock::now()) * 1e6 / kRounds;
                  request.send_unbounded(Message::shutdown());
                  echo.join();
                  return us;
                }),
                "us");
}

void probe_routing(const ss::KeyPartition& partition, Report& report) {
  ScopedSpan span("runtime", "routing_probe");
  const Topology fanin = fanin_topology();
  const ss::runtime::EdgeRouter router(fanin, fanin.source());
  constexpr int kOps = 1 << 21;
  report.metric("routing.choose_ns", median_of(5, [&] {
                  ss::Rng rng(7);
                  std::uint64_t acc = 0;
                  const Clock::time_point t0 = Clock::now();
                  for (int i = 0; i < kOps; ++i) acc += router.choose(rng);
                  g_probe_sink = static_cast<std::int64_t>(acc);
                  return seconds_between(t0, Clock::now()) * 1e9 / kOps;
                }),
                "ns");
  std::vector<std::int64_t> keys(4096);
  ss::Rng key_rng(11);
  for (auto& k : keys) k = static_cast<std::int64_t>(key_rng.next_u64() % kAppKeys);
  report.metric("routing.by_key_ns", median_of(5, [&] {
                  auto selector = ss::runtime::ReplicaSelector::by_key(partition);
                  ss::Rng rng(7);
                  std::int64_t acc = 0;
                  const Clock::time_point t0 = Clock::now();
                  for (int i = 0; i < kOps; ++i) acc += selector.select(keys[i & 4095], rng);
                  g_probe_sink = acc;
                  return seconds_between(t0, Clock::now()) * 1e9 / kOps;
                }),
                "ns");
}

ss::KeyPartition uniform_partition() {
  return ss::partition_keys(ss::KeyDistribution::uniform(4096), 4);
}

/// Engine-side counters summed (or maxed) over the rounds of a run.
struct EngineTotals {
  ss::runtime::SchedulerCounters scheduler;
  std::uint64_t dropped = 0;
  std::size_t queue_peak = 0;
  double busy = 0.0;
  double blocked = 0.0;
  Samples e2e_p50_ms, e2e_p99_ms, drain_ms;
  bool ledger_ok = true;

  void add(const RunStats& stats, double drain) {
    scheduler += stats.scheduler;
    dropped += stats.dropped;
    for (const auto& op : stats.ops) {
      queue_peak = std::max(queue_peak, op.queue_peak);
      busy = std::max(busy, op.busy_fraction);
      blocked = std::max(blocked, op.blocked_fraction);
    }
    e2e_p50_ms.add(stats.end_to_end.p50 * 1e3);
    e2e_p99_ms.add(stats.end_to_end.p99 * 1e3);
    drain_ms.add(drain);
    const auto& c = stats.scheduler;
    ledger_ok = ledger_ok && c.pushes == c.local_pops + c.steals + c.discarded;
  }
};

void report_engine_layers(const EngineTotals& t, double items, const Samples& construct_ms,
                          Report& report) {
  const ss::runtime::SchedulerCounters& s = t.scheduler;
  const double per_item = items > 0.0 ? 1.0 / items : 0.0;
  const double per_kitem = per_item * 1000.0;
  report.metric("mailbox.ring_enqueues_per_item", s.ring_enqueues * per_item, "count");
  report.metric("mailbox.ring_spills", static_cast<double>(s.ring_spills), "count");
  report.metric("mailbox.queue_peak_max", static_cast<double>(t.queue_peak), "count");
  report.metric("sched.parks_per_kitem", s.parks * per_kitem, "count");
  report.metric("sched.wakeups_per_kitem", s.wakeups * per_kitem, "count");
  report.metric("sched.steals_per_kitem", s.steals * per_kitem, "count");
  report.metric("sched.mean_batch",
                s.batches > 0 ? static_cast<double>(s.batch_messages) / s.batches : 0.0, "count");
  report.metric("sched.ledger_ok", t.ledger_ok ? 1.0 : 0.0, "count");
  report.metric("engine.construct_ms", construct_ms.median(), "ms");
  report.metric("engine.drain_ms", t.drain_ms.median(), "ms");
  report.metric("engine.dropped", static_cast<double>(t.dropped), "count");
  report.metric("engine.max_busy_frac", t.busy, "ratio");
  report.metric("engine.max_blocked_frac", t.blocked, "ratio");
  report.metric("engine.e2e_p50_ms", t.e2e_p50_ms.median(), "ms");
  report.metric("engine.e2e_p99_ms", t.e2e_p99_ms.median(), "ms");
}

/// Times `kSetupsPerRound` set-ups made by `make` (which times its Engine
/// construction into `construct_ms`) and returns the last engine.
template <typename Make>
std::unique_ptr<Engine> set_up(Make&& make, Samples& setup_s, Samples& construct_ms) {
  std::unique_ptr<Engine> engine;
  for (int rep = 0; rep < kSetupsPerRound; ++rep) {
    engine.reset();
    const Clock::time_point t0 = Clock::now();
    engine = make(construct_ms);
    setup_s.add(seconds_between(t0, Clock::now()));
  }
  return engine;
}

std::unique_ptr<Engine> timed_construct(const Topology& t, const ss::Deployment& deployment,
                                        const AppFactory& factory, const EngineConfig& config,
                                        Samples& construct_ms) {
  ScopedSpan span("runtime", "engine_construct");
  const Clock::time_point t0 = Clock::now();
  auto engine = std::make_unique<Engine>(t, deployment, factory, config);
  construct_ms.add(seconds_between(t0, Clock::now()) * 1e3);
  return engine;
}

// ------------------------------------------------------------ closed loop

void run_closed_loop(const char* name, const std::function<Topology()>& build,
                     SchedulerKind scheduler, const RunOptions& options, Report& report) {
  const Topology topology = build();
  PlanCheck plan(topology);
  LoopCounters counters;
  LayerTimes layers;
  const AppFactory factory =
      closed_loop_factory(topology, counters, options.trace ? &layers.ops : nullptr);
  EngineConfig config;
  config.scheduler = scheduler;
  config.workers = closed_loop_threads();
  config.seed = options.seed;
  config.pin = kPin;
  const auto make = [&](Samples& construct_ms) {
    Topology t;
    {
      ScopedSpan span("bench", "build_topology");
      t = build();
    }
    return timed_construct(t, ss::Deployment{}, factory, config, construct_ms);
  };

  const double run_s = options.seconds * (1.0 - kPlanCheckShare) / kRounds;
  Samples setup_s, construct_ms;
  EngineTotals totals;
  double wall = 0.0;
  int drained = 0;
  std::size_t actors = 0;
  for (int round = 0; round < kRounds; ++round) {
    plan.run(options.seconds * kPlanCheckShare / kRounds, options.trace);
    const std::unique_ptr<Engine> engine = set_up(make, setup_s, construct_ms);
    actors = engine->graph().actors.size();
    counters.source_end_ns.store(0);
    const Clock::time_point start = Clock::now();
    const double cpu0 = process_cpu_seconds();
    counters.deadline_ns.store(now_ns() + static_cast<std::int64_t>(run_s * 1e9));
    RunStats stats;
    {
      ScopedSpan span("runtime", "run_until_complete");
      stats = engine->run_until_complete(
          std::chrono::duration<double>(run_s + 2.0 * kDrainSlackS));
    }
    const std::int64_t end_ns = now_ns();
    layers.engine_cpu_s += process_cpu_seconds() - cpu0;
    wall += seconds_between(start, Clock::now());
    const std::int64_t source_end = counters.source_end_ns.load();
    if (drained_in_time(source_end, end_ns)) ++drained;
    totals.add(stats, source_end > 0 ? static_cast<double>(end_ns - source_end) * 1e-6 : 0.0);
  }
  plan.report(options.trace, report);
  const std::uint64_t items = counters.source_items.load();
  const std::uint64_t delivered = counters.sink_items.load();

  report.metric("throughput_items_s", static_cast<double>(items) / wall, "1/s");
  report.metric("latency_p50_ms", counters.latency.quantile(0.5) * 1e3, "ms");
  report.metric("latency_p99_ms", counters.latency.quantile(0.99) * 1e3, "ms");
  report.metric("setup_s", setup_s.median(), "s");
  report.attempted = std::max<std::uint64_t>(items, 1);
  report.failed = totals.dropped + (items > delivered ? items - delivered : 0);
  report.info("workload", name);
  report.info("actors", std::to_string(actors));
  report.info("latency_samples", std::to_string(counters.latency.count()));

  report.check("every source item reached the sink", items > 0 && delivered == items,
               std::to_string(delivered) + " of " + std::to_string(items));
  report.check("no engine drops", totals.dropped == 0,
               std::to_string(totals.dropped) + " dropped");
  report.check("every round drained on its own", drained == kRounds,
               std::to_string(drained) + " of " + std::to_string(kRounds) +
                   " within the drain slack of the source's end");

  if (options.trace) {
    report_engine_layers(totals, static_cast<double>(items), construct_ms, report);
    layers.report(static_cast<double>(items), report);
    {
      ScopedSpan span("ops", "baseline_direct");
      LoopCounters unused;
      const AppFactory direct = closed_loop_factory(topology, unused, nullptr);
      const OpIndex source = topology.source();
      DirectRunner runner(topology, direct,
                          ss::runtime::synthetic_factory(0.0).source(source, topology.op(source)),
                          options.seed);
      const double baseline = runner.run(std::min(1.0, options.seconds / 4));
      report.metric("baseline.items_s", baseline, "1/s");
      report.info("runtime_overhead_ns_per_item",
                  std::to_string((wall / static_cast<double>(items) - 1.0 / baseline) * 1e9));
    }
    probe_mailbox(report);
    probe_routing(uniform_partition(), report);
  }
}

// ------------------------------------------------------------- open loop

struct OpenLoopResult {
  Samples latency_s;  ///< per result, failures as +inf
  Samples lag_s;
  Samples ckpt_pause_ms;
  RunStats stats;
  std::uint64_t due = 0;
  std::uint64_t failed = 0;
  int ckpt_failures = 0;
  double wall_s = 0.0;
  double drain_ms = 0.0;
  bool drained = false;
};

/// Runs `engine` against the open-loop source, calling checkpoint_now()
/// every `ckpt_period` seconds while items are still due (0 = never).
/// Adds the process CPU time of the run to `engine_cpu_s`.
OpenLoopResult drive_open_loop(Engine& engine, OpenLoop& loop, double ckpt_period,
                               double& engine_cpu_s) {
  OpenLoopResult r;
  r.due = loop.due.size();
  const double last_due = loop.due.empty() ? 0.0 : loop.due.back();
  std::atomic<bool> finished{false};
  const Clock::time_point start = Clock::now();
  const double cpu0 = process_cpu_seconds();
  {
    ScopedSpan span("runtime", "run_until_complete");
    const int run_span = span.index();
    const auto checkpoints = [&] {
      while (loop.t0_ns.load() == 0 && !finished.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      const std::int64_t t0 = loop.t0_ns.load();
      // From 0.5 s in to 0.3 s before the last item is due (closer on short
      // runs), so the source is still live at every checkpoint.
      const double first = std::min(0.5, last_due / 4);
      const double end = last_due - std::min(0.3, last_due / 4);
      for (double at = first; at < end; at += ckpt_period) {
        // Sleeps in steps of at most 10 ms: a thread waking more often
        // preempts a pinned worker each time.
        const std::int64_t wake = t0 + static_cast<std::int64_t>(at * 1e9);
        for (std::int64_t now = now_ns(); now < wake && !finished.load(); now = now_ns()) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(std::min<std::int64_t>(wake - now, 10'000'000)));
        }
        if (finished.load()) return;
        ScopedSpan pause("runtime", "checkpoint_now", run_span);
        const Clock::time_point c0 = Clock::now();
        const bool ok = engine.checkpoint_now();
        r.ckpt_pause_ms.add(seconds_between(c0, Clock::now()) * 1e3);
        if (!ok) ++r.ckpt_failures;
      }
    };
    // Joins the checkpoint thread on every exit path, the throwing one too.
    struct Joiner {
      std::atomic<bool>& finished;
      std::thread thread;
      ~Joiner() {
        finished.store(true);
        if (thread.joinable()) thread.join();
      }
    } joiner{finished, ckpt_period > 0.0 ? std::thread(checkpoints) : std::thread()};
    r.stats = engine.run_until_complete(
        std::chrono::duration<double>(loop.give_up_s + 2.0 * kDrainSlackS));
  }
  const std::int64_t end_ns = now_ns();
  engine_cpu_s += process_cpu_seconds() - cpu0;
  r.wall_s = seconds_between(start, Clock::now());
  const std::int64_t source_end = loop.source_end_ns.load();
  r.drained = drained_in_time(source_end, end_ns);
  r.drain_ms = source_end > 0 ? static_cast<double>(end_ns - source_end) * 1e-6 : 0.0;
  r.failed = r.stats.dropped + (r.due - loop.handed_over);
  std::size_t results = 0;
  for (const auto& buffer : loop.latency_buffers) results += buffer->size();
  r.latency_s.reserve(results + r.failed);
  for (const auto& buffer : loop.latency_buffers) {
    for (double v : *buffer) r.latency_s.add(v);
  }
  for (std::uint64_t i = 0; i < r.failed; ++i) {
    r.latency_s.add(std::numeric_limits<double>::infinity());
  }
  r.lag_s.reserve(loop.lag_s.size());
  for (double v : loop.lag_s) r.lag_s.add(v);
  return r;
}

std::string checkpoint_dir(const RunOptions& options, const char* tag) {
  return options.workdir + "/ckpt-" + tag + "-" + std::to_string(::getpid());
}

}  // namespace

void run_fanin_pool(const RunOptions& options, Report& report) {
  run_closed_loop("fanin_pool", fanin_topology, SchedulerKind::kPooled, options, report);
}

void run_chain_threads(const RunOptions& options, Report& report) {
  const int actors = std::max(2, closed_loop_threads());
  run_closed_loop("chain_threads", [actors] { return chain_topology(actors); },
                  SchedulerKind::kThreadPerActor, options, report);
}

void run_app_paced(const RunOptions& options, Report& report) {
  const Topology topology = app_topology();
  PlanCheck plan(topology);
  const std::string dir = checkpoint_dir(options, "app");
  EngineConfig config;
  config.scheduler = SchedulerKind::kPooled;
  config.workers = host_cores();
  config.seed = options.seed;
  config.pin = kPin;
  config.assign_keys_at_emitter = false;  // real keys through the key partition
  config.checkpoint_period = 1e9;  // snapshots only on the benchmark's schedule
  config.checkpoint_retain = 2;

  const double run_s = options.seconds * (1.0 - kPlanCheckShare) / kRounds;
  Samples setup_s, construct_ms, latency_s, lag_s, pause_ms;
  EngineTotals totals;
  ss::AutoOptimizeResult optimized;
  std::uint64_t due = 0, handed_over = 0, failed = 0;
  double wall = 0.0;
  int drained = 0;
  int ckpt_failures = 0;
  std::size_t actors = 0;
  Samples ckpt_bytes;
  std::size_t ckpt_actors = 0;
  LayerTimes layers;
  for (int round = 0; round < kRounds; ++round) {
    plan.run(options.seconds * kPlanCheckShare / kRounds, options.trace);
    // Inputs of this round (untimed): its own slice of the seeded stream.
    OpenLoop loop(options.seed * kRounds + static_cast<std::uint64_t>(round), kAppOfferedRate,
                  run_s);
    loop.give_up_s = run_s + 2.0;
    if (options.trace) loop.source_cpu_ns = &layers.source_cpu_ns;
    const AppFactory factory = open_loop_factory(topology, loop, /*catalog_logic=*/true,
                                                 options.trace ? &layers.ops : nullptr);
    config.checkpoint_dir = dir + "/round" + std::to_string(round);
    const std::unique_ptr<Engine> engine = set_up(
        [&](Samples& construct) {
          Topology t;
          {
            ScopedSpan span("gen", "app_topology");
            t = app_topology();
          }
          {
            ScopedSpan span("core", "auto_optimize");
            optimized = ss::auto_optimize(t);
          }
          return timed_construct(t, ss::deployment_of(optimized), factory, config, construct);
        },
        setup_s, construct_ms);
    const OpenLoopResult r = drive_open_loop(*engine, loop, kCheckpointPeriod, layers.engine_cpu_s);
    actors = engine->graph().actors.size();
    if (round + 1 == kRounds) {
      for (const std::string& path : engine->checkpoint_manager()->list()) {
        ckpt_bytes.add(static_cast<double>(std::filesystem::file_size(path)));
        ss::runtime::Checkpoint cp;
        if (ckpt_actors == 0 && ss::runtime::CheckpointManager::read_file(path, cp)) {
          ckpt_actors = cp.actors.size();
        }
      }
    }
    totals.add(r.stats, r.drain_ms);
    latency_s.append(r.latency_s);
    lag_s.append(r.lag_s);
    pause_ms.append(r.ckpt_pause_ms);
    ckpt_failures += r.ckpt_failures;
    due += r.due;
    handed_over += loop.handed_over;
    failed += r.failed;
    wall += r.wall_s;
    if (r.drained) ++drained;
  }
  plan.report(options.trace, report);

  report.metric("throughput_items_s", static_cast<double>(handed_over) / wall, "1/s");
  report.metric("latency_p50_ms", latency_s.quantile(0.5) * 1e3, "ms");
  report.metric("latency_p99_ms", latency_s.quantile(0.99) * 1e3, "ms");
  report.metric("setup_s", setup_s.median(), "s");
  report.attempted = due;
  report.failed = failed;
  report.info("workload", "app_paced");
  report.info("offered_rate", std::to_string(kAppOfferedRate));
  report.info("actors", std::to_string(actors));
  report.info("fusion_groups", std::to_string(optimized.fusions.size()));
  report.info("latency_samples", std::to_string(latency_s.count()));
  report.info("checkpoints", std::to_string(pause_ms.count()));

  report.check("no engine drops", totals.dropped == 0,
               std::to_string(totals.dropped) + " dropped");
  report.check("every due item handed over", handed_over == due,
               std::to_string(handed_over) + " of " + std::to_string(due));
  report.check("every round drained on its own", drained == kRounds,
               std::to_string(drained) + " of " + std::to_string(kRounds) +
                   " within the drain slack of the source's end");
  report.check("every checkpoint succeeded", ckpt_failures == 0 && pause_ms.count() > 0,
               std::to_string(pause_ms.count()) + " taken, " + std::to_string(ckpt_failures) +
                   " failed");
  report.check("scheduler ledger balances", totals.ledger_ok,
               "pushes == local_pops + steals + discarded");

  if (options.trace) {
    report_engine_layers(totals, static_cast<double>(handed_over), construct_ms, report);
    layers.report(static_cast<double>(handed_over), report);
    report.metric("source.lag_p99_ms", lag_s.quantile(0.99) * 1e3, "ms");
    report.metric("ckpt.pause_ms_p50", pause_ms.quantile(0.5), "ms");
    report.metric("ckpt.pause_ms_p90", pause_ms.quantile(0.9), "ms");
    report.metric("ckpt.bytes", ckpt_bytes.median(), "B");
    report.metric("ckpt.actors", static_cast<double>(ckpt_actors), "count");
    {
      ScopedSpan span("ops", "baseline_direct");
      DirectRunner runner(topology, ss::ops::make_logic_factory(topology),
                          std::make_unique<GeneratorSource>(options.seed), options.seed);
      report.metric("baseline.items_s", runner.run(std::min(1.0, options.seconds / 4)), "1/s");
    }
    probe_mailbox(report);
    ss::KeyPartition partition = uniform_partition();
    for (const ss::KeyPartition& p : optimized.partitions) {
      if (p.replicas > 1) {
        partition = p;
        break;
      }
    }
    probe_routing(partition, report);
  }
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
}

void run_coordinated_omission_selftest(const RunOptions& options, Report& report) {
  // source -> a -> stall -> tail, zero-cost operators on the pool, paced
  // at 5000 items/s for 2 s; the stall operator sleeps 200 ms on one item.
  constexpr double kRate = 5000.0;
  constexpr double kSeconds = 2.0;
  constexpr double kStall = 0.2;
  const Topology t = chain_topology(4);
  const auto run = [&](bool stall) {
    OpenLoop loop(options.seed, kRate, kSeconds);
    loop.give_up_s = kSeconds + 2.0;
    if (stall) {
      loop.stall_op = 2;
      loop.stall_item = static_cast<std::int64_t>(kRate * kSeconds * 0.4);
      loop.stall_s = kStall;
    }
    EngineConfig config;
    config.scheduler = SchedulerKind::kPooled;
    config.workers = host_cores();
    config.pin = kPin;
    config.seed = options.seed;
    Engine engine(t, ss::Deployment{},
                  open_loop_factory(t, loop, /*catalog_logic=*/false, nullptr), config);
    double engine_cpu_s = 0.0;
    return drive_open_loop(engine, loop, 0.0, engine_cpu_s);
  };
  const OpenLoopResult control = run(false);
  const OpenLoopResult stalled = run(true);
  const double p99 = stalled.latency_s.quantile(0.99);
  const double lag = stalled.lag_s.quantile(0.99);
  report.metric("control.latency_p99_ms", control.latency_s.quantile(0.99) * 1e3, "ms");
  report.metric("stalled.latency_p99_ms", p99 * 1e3, "ms");
  report.metric("stalled.source.lag_p99_ms", lag * 1e3, "ms");
  report.metric("stalled.engine.e2e_p99_ms", stalled.stats.end_to_end.p99 * 1e3, "ms");
  report.metric("stall_ms", kStall * 1e3, "ms");
  report.attempted = control.due + stalled.due;
  report.failed = control.failed + stalled.failed;
  report.check("control run stays well below the stall",
               control.latency_s.quantile(0.99) < 0.25 * kStall, "p99 < stall/4");
  report.check("items due during the stall are charged it in latency_p99_ms", p99 >= 0.5 * kStall,
               "p99 >= stall/2");
  report.check("source.lag_p99_ms reports the stall", lag >= 0.5 * kStall, "lag p99 >= stall/2");
  report.check("no failures", report.failed == 0, std::to_string(report.failed) + " failed");
  report.check("both runs drained on their own", control.drained && stalled.drained,
               "within the drain slack of the source's end");
}

}  // namespace ssb
