// Execution scheduling behind the actor engine.
//
// The engine (engine.hpp) is the *actor core*: it owns the actor graph,
// message dispatch, routing, metering and the drain protocol.  All of an
// actor's work happens in one engine-owned step (EngineCore::step): a
// source quantum, or a bounded non-blocking drain of the actor's mailbox
// with output staging, batch metering, shutdown/fence token counting, the
// finish epilogue and failure reporting.  A Scheduler only decides *when*
// and on which thread each actor steps:
//
//   * ThreadPerActorScheduler — one dedicated thread per actor that steps
//     its actor and blocks on the mailbox whenever the step asks for mail.
//     This is the configuration the paper evaluates (§5.1, one Akka actor
//     per operator) and the default.
//   * PooledScheduler — multiplexes N actors onto K worker threads with
//     work stealing: one step per actor claim.  Workers never park on a
//     per-mailbox condition variable: each mailbox routes its
//     empty→non-empty readiness hint (Mailbox::set_on_ready) to the
//     per-worker deque of the worker that last ran the actor (warm cache);
//     owners pop LIFO, idle workers steal FIFO, and sends take the
//     non-blocking try_send() path first.
//     Operator logic that parks its thread (timed-wait services, blocking
//     sends under backpressure) wraps the park in a BlockingSection so the
//     pool can lend the core to another worker meanwhile — K bounds the
//     number of *runnable* workers, not the number of sleepers, which is
//     what keeps wait-realized service times (clock.hpp) rate-faithful.
//
// Both drivers run the same step, so they share every semantic the step
// owns: FIFO per channel, BAS capacity of exactly B (a drained message
// frees its slot only as it enters service), token counting and the
// fence/finish epilogues.
#pragma once

#include <chrono>
#include <cstddef>
#include <memory>
#include <string>

#include "runtime/mailbox.hpp"
#include "runtime/metrics.hpp"

namespace ss::runtime {

/// Which execution backend runs the actors of an Engine.
enum class SchedulerKind : std::uint8_t {
  kThreadPerActor,  ///< paper-faithful default: one thread per actor
  kPooled,          ///< N actors multiplexed onto K worker threads
};

/// Parses "threads"/"pool"; throws ss::Error otherwise.
SchedulerKind scheduler_kind_from_string(const std::string& name);
const char* to_string(SchedulerKind kind);

/// Worker-to-CPU pinning (--pin): extends the pool's last_worker_ affinity
/// hints (warm caches via hint routing) down to the hardware.  kCores pins
/// each worker to one CPU round-robin; kSockets confines each worker to
/// the CPUs of one physical package (cache locality without giving up
/// intra-socket migration).  When sched_setaffinity is unavailable (non-
/// Linux, or restricted CI containers) the runtime warns once and
/// continues unpinned.
enum class PinMode : std::uint8_t {
  kNone,
  kCores,
  kSockets,
};

/// Parses "none"/"cores"/"sockets"; throws ss::Error otherwise.
PinMode pin_mode_from_string(const std::string& name);
const char* to_string(PinMode mode);

/// What one EngineCore::step asks of its driver next.
enum class StepStatus : std::uint8_t {
  kRunAgain,     ///< more work is ready now (source quantum, queued mail)
  kWaitForMail,  ///< the mailbox is empty: step again once mail arrives
  kFinished,     ///< ran the finish epilogue, or failed: the actor is done
  kRetired,      ///< passed an epoch fence, state carries over: done
};

struct StepResult {
  StepStatus status = StepStatus::kWaitForMail;
  /// Messages this step took from the mailbox (0 for a source quantum).
  std::size_t drained = 0;

  [[nodiscard]] bool done() const {
    return status == StepStatus::kFinished || status == StepStatus::kRetired;
  }
};

/// What a Scheduler needs from the engine: the actor-graph shape, the
/// mailboxes and the one actor step.  Implemented by Engine.
class EngineCore {
 public:
  virtual ~EngineCore() = default;

  virtual std::size_t num_actors() const = 0;
  virtual bool is_source(std::size_t id) const = 0;
  virtual Mailbox& mailbox(std::size_t id) = 0;

  /// Runs actor `id` once: a source emits one quantum; any other actor
  /// drains at most `max_messages` messages without blocking and
  /// dispatches them.  Failures are reported inside (the run stops and the
  /// engine rethrows after it).  The caller guarantees that one thread at
  /// a time steps a given actor.
  virtual StepResult step(std::size_t id, std::size_t max_messages) = 0;

  /// Actor `id` finished or retired (a step returned done()); the engine's
  /// active-actor accounting and completion signalling live here.
  virtual void actor_done(std::size_t id) = 0;
};

/// Execution policy: owns the threads that run the actors.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Spawns execution resources.  Called exactly once; `core` outlives the
  /// scheduler.
  virtual void start(EngineCore& core) = 0;

  /// Delivers a data message to `target`'s mailbox with the backpressure
  /// behaviour appropriate to the scheduling model (blocking send for
  /// dedicated threads; try_send fast path + cooperative blocking for the
  /// pool).  Returns false when the item was dropped or the box closed.
  virtual bool deliver(std::size_t target, const Message& m,
                       std::chrono::nanoseconds timeout) = 0;

  /// Waits until every actor finished (the drain completed), then stops
  /// and joins all execution threads.  Idempotent.
  virtual void join() = 0;

  /// Telemetry counters of this scheduler's machinery (steals, parks,
  /// batch sizes).  All-zero for schedulers without such machinery (the
  /// thread-per-actor default).  Exact once the scheduler is quiescent.
  [[nodiscard]] virtual SchedulerCounters counters() const { return {}; }
};

/// `workers <= 0` means one worker per hardware thread; `batch` is the
/// number of messages a pooled worker drains per actor claim (both pooled
/// only, `batch <= 0` means the default of 64); `pin` maps pooled workers
/// to CPUs (kNone for the thread-per-actor backend).
std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind, int workers, int batch = 0,
                                          PinMode pin = PinMode::kNone);

/// RAII marker around a thread-parking section (timed wait, blocking send,
/// I/O) inside operator or engine code.  Under the pooled scheduler this
/// releases the caller's worker slot so another worker can keep draining —
/// the mechanism that makes K-worker pools throughput-equivalent to
/// thread-per-actor on wait-bound workloads and that guarantees
/// backpressure blocking can never deadlock the pool.  A no-op on
/// non-pooled threads.
class BlockingSection {
 public:
  BlockingSection() noexcept;
  ~BlockingSection();

  BlockingSection(const BlockingSection&) = delete;
  BlockingSection& operator=(const BlockingSection&) = delete;

 private:
  void* pool_;  ///< the worker's PooledScheduler, or nullptr
};

}  // namespace ss::runtime
