// ThreadPerActorScheduler: one dedicated thread per actor, the §5.1
// configuration the paper evaluates and the engine's default.  Each thread
// steps its actor and blocks on the mailbox while the step asks for mail;
// a full destination mailbox blocks the sending thread
// (Blocking-After-Service), which *is* the backpressure the cost models
// capture.
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "runtime/scheduler.hpp"

namespace ss::runtime {

namespace {

/// Messages per step: a step is timed as ONE busy slice when metering is
/// on (two clock reads per burst), and its outputs stage into batched
/// hand-offs.  The blocking wait stays outside the step, so idle time
/// never counts as busy.
constexpr std::size_t kLoopBurst = 64;

class ThreadPerActorScheduler final : public Scheduler {
 public:
  void start(EngineCore& core) override {
    core_ = &core;
    threads_.reserve(core.num_actors());
    for (std::size_t id = 0; id < core.num_actors(); ++id) {
      threads_.emplace_back([this, id] { drive(id); });
    }
  }

  bool deliver(std::size_t target, const Message& m,
               std::chrono::nanoseconds timeout) override {
    return core_->mailbox(target).send(m, timeout);
  }

  void join() override {
    for (std::thread& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
    threads_.clear();
  }

 private:
  void drive(std::size_t id) {
    for (;;) {
      const StepResult r = core_->step(id, kLoopBurst);
      if (r.done()) break;
      // A closed mailbox also ends the wait; the next step then finishes.
      if (r.status == StepStatus::kWaitForMail) core_->mailbox(id).wait_ready();
    }
    core_->actor_done(id);
  }

  EngineCore* core_ = nullptr;
  std::vector<std::thread> threads_;
};

}  // namespace

SchedulerKind scheduler_kind_from_string(const std::string& name) {
  if (name == "threads") return SchedulerKind::kThreadPerActor;
  if (name == "pool") return SchedulerKind::kPooled;
  throw Error("unknown scheduler '" + name + "' (expected 'threads' or 'pool')");
}

const char* to_string(SchedulerKind kind) {
  return kind == SchedulerKind::kThreadPerActor ? "threads" : "pool";
}

PinMode pin_mode_from_string(const std::string& name) {
  if (name == "none") return PinMode::kNone;
  if (name == "cores") return PinMode::kCores;
  if (name == "sockets") return PinMode::kSockets;
  throw Error("unknown pin mode '" + name +
              "' (expected 'none', 'cores' or 'sockets')");
}

const char* to_string(PinMode mode) {
  switch (mode) {
    case PinMode::kCores:
      return "cores";
    case PinMode::kSockets:
      return "sockets";
    default:
      return "none";
  }
}

std::unique_ptr<Scheduler> make_thread_per_actor_scheduler();
std::unique_ptr<Scheduler> make_pooled_scheduler(int workers, int batch, PinMode pin);

std::unique_ptr<Scheduler> make_thread_per_actor_scheduler() {
  return std::make_unique<ThreadPerActorScheduler>();
}

std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind, int workers, int batch,
                                          PinMode pin) {
  if (kind == SchedulerKind::kPooled) return make_pooled_scheduler(workers, batch, pin);
  return make_thread_per_actor_scheduler();
}

}  // namespace ss::runtime
