#include "runtime/engine.hpp"

#include <algorithm>
#include <deque>
#include <exception>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "core/error.hpp"
#include "runtime/clock.hpp"
#include "runtime/profiler.hpp"
#include "runtime/scheduler_host.hpp"
#include "runtime/stats_server.hpp"
#include "runtime/synthetic.hpp"
#include "runtime/trace.hpp"

namespace ss::runtime {

namespace {

/// Model predictions for one deployment: Alg. 1 rates + estimate_latency
/// on the replication plan, flattened into the report-friendly struct.
/// Fusion does not change the predicted rates (only safe fusions deploy),
/// so the unfused topology with the plan is the right model input.
PredictedLatency make_predictions(const Topology& t, const Deployment& deployment,
                                  std::size_t buffer_capacity) {
  PredictedLatency pred;
  const SteadyStateResult rates = steady_state(t, deployment.replication);
  const LatencyEstimate est =
      estimate_latency(t, rates, deployment.replication, buffer_capacity);
  pred.valid = true;
  pred.op_response = est.response;
  pred.op_p99.reserve(t.num_operators());
  for (OpIndex i = 0; i < t.num_operators(); ++i) {
    pred.op_p99.push_back(est.response_percentiles(i).p99);
  }
  pred.mean = est.sojourn_mean;
  pred.p50 = est.sojourn.p50;
  pred.p95 = est.sojourn.p95;
  pred.p99 = est.sojourn.p99;
  pred.throughput = rates.throughput();
  return pred;
}

/// Times one slice of operator logic as busy-ns, with blocked-on-send time
/// charged inside the slice subtracted out (busy is pure service; blocked
/// is accounted separately by the mailbox through the pinned context).
/// With the gate closed this is a single relaxed load.
template <typename F>
inline void run_timed(TelemetryBoard& telemetry, OpIndex op, F&& body) {
  if (!telemetry.enabled()) {
    body();
    return;
  }
  ScopedActorContext ctx(telemetry, op);
  const Clock::time_point from = metering_now();
  body();
  const auto elapsed = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(metering_now() - from).count());
  const std::uint64_t blocked = ctx.blocked_ns();
  telemetry.add_busy(op, elapsed > blocked ? elapsed - blocked : 0);
}

/// Open batch-granularity metering slice (begin/end_batch_meter): while a
/// slice is open on this thread, process_message() skips its per-message
/// busy metering and the whole drained batch is timed once — two clock
/// reads per batch instead of two per message.  Thread-local because a
/// thread steps exactly one actor at a time.
struct BatchMeterSlice {
  std::optional<ScopedActorContext> ctx;  ///< pins blocked-charging to the op
  OpIndex op = kInvalidOp;
  Clock::time_point from;
  bool active = false;
  /// Data messages fully processed inside this slice — the profiler's
  /// inter-departure denominator (items >= 2 means the slice drained
  /// backlog, i.e. ns/items samples the non-blocking service time).
  std::uint64_t items = 0;
};
thread_local BatchMeterSlice tls_batch_slice;

}  // namespace

/// Per-thread output stage: while an actor step runs (a drain or a source
/// quantum, under either scheduler), consecutive data results
/// bound for the same destination coalesce into one cache-line-aligned
/// MessageBatch and reach the target mailbox as a unit
/// (Mailbox::try_send_batch) instead of one try_send per message.
/// `owner` scopes the stage to the engine that armed it — a hosted worker
/// interleaves slices of several tenant engines on one thread, and a stage
/// armed by one engine must never absorb another engine's sends.
namespace {
struct OutputStage {
  Engine* owner = nullptr;
  int target = -1;  ///< destination actor of the staged batch
  bool armed = false;
  MessageBatch batch;
};
thread_local OutputStage tls_output_stage;
}  // namespace

AppFactory synthetic_factory(double time_scale, std::int64_t max_items) {
  AppFactory factory;
  factory.source = [time_scale, max_items](OpIndex op, const OperatorSpec& spec) {
    return std::make_unique<SyntheticSource>(spec, 0x9e3779b9u + op, time_scale, max_items);
  };
  factory.logic = [time_scale](OpIndex op, const OperatorSpec& spec) {
    return std::make_unique<SyntheticOperator>(spec, 0xa076'1d64'78bd'642fULL + op, time_scale);
  };
  return factory;
}

// ---------------------------------------------------------------- ActorState

struct Engine::ActorState {
  ActorState(ActorSpec s, std::size_t mailbox_capacity, OverflowPolicy policy,
             MailboxKind kind, Rng r)
      : spec(std::move(s)), mailbox(mailbox_capacity, policy, kind), rng(r) {}

  struct PendingItem {
    OpIndex member;
    Tuple tuple;
    OpIndex from;
  };

  ActorSpec spec;
  Mailbox mailbox;
  Rng rng;
  std::unique_ptr<OperatorLogic> logic;    // worker / replica
  std::unique_ptr<SourceLogic> source;     // source
  std::vector<std::unique_ptr<OperatorLogic>> member_logic;  // meta
  std::unordered_map<OpIndex, std::size_t> member_pos;       // meta
  std::deque<PendingItem> pending;                           // meta work list
  ReplicaSelector selector;                // emitter
  std::vector<int> replica_targets;        // emitter
  int collector_actor = -1;                // replica
  std::vector<double> key_cdf;             // emitter of partitioned op
  // --- order-preserving collection (EngineConfig::preserve_replica_order)
  std::int64_t next_seq = 0;               // emitter: stamp for the next input
  std::int64_t current_seq = -1;           // replica: seq of the input in flight
  std::int64_t expected_seq = 0;           // collector: next seq to release
  std::map<std::int64_t, std::vector<Message>> held;  // collector: buffered results
  std::set<std::int64_t> completed;        // collector: seq marks received
  // --- channel barriers (stepping thread only; reset for each new scheduler)
  int shutdowns_seen = 0;  ///< end-of-stream tokens received
  int fence_seen = 0;      ///< fence tokens received this barrier
  bool fence_counted = false;  ///< counted toward fence_passed_ (fence_mutex_)
  bool finished = false;       ///< ran the shutdown epilogue (fence_mutex_)
  /// Quiesced at a fence: the scheduler completes the actor WITHOUT the
  /// finish epilogue; logic and mailbox carry into the next epoch.
  std::atomic<bool> retired{false};
};

// ---------------------------------------------------------------- Collectors

/// Results of a plain operator (or the source, or a collector actor): the
/// engine routes them to the destination's entry actor.
class Engine::RouteCollector final : public Collector {
 public:
  RouteCollector(Engine& engine, OpIndex op, Rng& rng) : engine_(engine), op_(op), rng_(rng) {}

  void emit(const Tuple& t) override {
    if (engine_.route_result(op_, kInvalidOp, t, rng_)) engine_.board_.add_emitted(op_);
  }
  void emit_to(OpIndex target, const Tuple& t) override {
    if (engine_.route_result(op_, target, t, rng_)) engine_.board_.add_emitted(op_);
  }

 private:
  Engine& engine_;
  OpIndex op_;
  Rng& rng_;
};

/// Results of a replica: forwarded to the collector actor, which performs
/// the logical routing (and the emitted-counting) for the whole operator.
class Engine::ReplicaCollector final : public Collector {
 public:
  ReplicaCollector(Engine& engine, OpIndex op, int collector_actor, std::int64_t seq = -1)
      : engine_(engine), op_(op), collector_actor_(collector_actor), seq_(seq) {}

  void emit(const Tuple& t) override { forward(kInvalidOp, t); }
  void emit_to(OpIndex target, const Tuple& t) override { forward(target, t); }

 private:
  void forward(OpIndex target, const Tuple& t) {
    Message m = Message::data(t, op_, target);
    m.seq = seq_;  // results inherit the seq of the input that produced them
    // Un-sequenced results may stage; sequenced ones must not — the seq
    // mark the replica sends right after processing is capacity-exempt and
    // would overtake a staged result, wedging the collector's release
    // cursor past a seq whose data it never held.
    if (seq_ < 0 && engine_.stage_message(collector_actor_, m, /*count_emit=*/false)) {
      return;
    }
    engine_.send_to_actor(collector_actor_, m);
  }

  Engine& engine_;
  OpIndex op_;
  int collector_actor_;
  std::int64_t seq_;
};

/// Results of a fused member (Algorithm 4): stay inside the meta actor when
/// the destination is a member of the same group, leave otherwise.
class Engine::MetaCollector final : public Collector {
 public:
  MetaCollector(Engine& engine, ActorState& state, OpIndex member)
      : engine_(engine), state_(state), member_(member) {}

  void emit(const Tuple& t) override {
    deliver(engine_.routers_[member_].choose(state_.rng), t);
  }
  void emit_to(OpIndex target, const Tuple& t) override { deliver(target, t); }

 private:
  void deliver(OpIndex dest, const Tuple& t) {
    if (dest == kInvalidOp) {  // member is a sink: the result leaves the system
      engine_.meter_exit(t);
      engine_.board_.add_emitted(member_);
      return;
    }
    const ActorGraph& graph = engine_.epoch_->graph;
    if (graph.group_of[dest] == graph.group_of[member_]) {
      state_.pending.push_back(ActorState::PendingItem{dest, t, member_});
      engine_.board_.add_emitted(member_);
      return;
    }
    if (engine_.route_result(member_, dest, t, state_.rng)) {
      engine_.board_.add_emitted(member_);
    }
  }

  Engine& engine_;
  ActorState& state_;
  OpIndex member_;
};

// ---------------------------------------------------------------- Engine

Engine::Engine(const Topology& t, Deployment deployment, AppFactory factory,
               EngineConfig config)
    : topology_(t),
      factory_(std::move(factory)),
      config_(config),
      board_(t.num_operators()),
      telemetry_(t.num_operators()),
      master_rng_(config.seed) {
  require(factory_.source != nullptr && factory_.logic != nullptr,
          "Engine: AppFactory must provide both source and logic factories");
  // Interned here, before any thread exists: reconfigure() may read the tag
  // from a joint-controller thread concurrently with the run thread.
  if (!config_.tenant.empty()) tenant_tag_ = trace::intern_label(config_.tenant);
  board_.attach_telemetry(&telemetry_);
  queue_peak_prior_.assign(t.num_operators(), 0);
  routers_.reserve(t.num_operators());
  for (OpIndex i = 0; i < t.num_operators(); ++i) routers_.emplace_back(t, i);

  if (!config_.checkpoint_dir.empty()) {
    require(config_.checkpoint_period > 0.0,
            "Engine: checkpoint_period must be positive");
    // Creates the directory and probes writability: an unusable
    // --checkpoint-dir fails here, before any thread exists.
    checkpoint_mgr_ = std::make_unique<CheckpointManager>(config_.checkpoint_dir,
                                                          config_.checkpoint_retain);
  }
  source_base_offset_.assign(t.num_operators(), 0);
  if (config_.recover_from != nullptr) {
    // Resume the checkpointed deployment whatever the caller passed in:
    // the captured actor state only fits the graph shape it was cut from.
    deployment = config_.recover_from->deployment;
  }

  ActorGraph graph = ActorGraph::build(t, deployment);
  epoch_ = build_epoch(std::move(deployment), std::move(graph), nullptr, nullptr);
  predicted_ = make_predictions(topology_, epoch_->deployment, config_.mailbox_capacity);
  if (config_.recover_from != nullptr) apply_recovery(*config_.recover_from);
}

Engine::~Engine() {
  checkpoint_controller_.reset();  // joins; no checkpoint_now after this
  controller_.reset();  // joins the sampling thread; no reconfigure after this
  join_execution();
}

// --------------------------------------------------------------- epoch build

void Engine::init_actor_logic(ActorState& state, const ActorSpec& spec,
                              const Deployment& deployment) {
  const OperatorSpec& op = topology_.op(spec.op);
  switch (spec.kind) {
    case ActorKind::kSource:
      state.source = factory_.source(spec.op, op);
      break;
    case ActorKind::kWorker:
    case ActorKind::kReplica:
      state.logic = factory_.logic(spec.op, op);
      break;
    case ActorKind::kEmitter: {
      state.replica_targets = spec.downstream;  // exactly the replica ids
      const int n = static_cast<int>(state.replica_targets.size());
      if (op.state == StateKind::kPartitionedStateful) {
        KeyPartition partition;
        if (spec.op < deployment.partitions.size() &&
            !deployment.partitions[spec.op].replica_of_key.empty()) {
          partition = deployment.partitions[spec.op];
        } else {
          partition = partition_keys(op.keys, n);
        }
        require(partition.replicas == n,
                "Engine: partition map of '" + op.name + "' disagrees with replica count");
        state.selector = ReplicaSelector::by_key(std::move(partition));
        if (config_.assign_keys_at_emitter) {
          double running = 0.0;
          for (std::size_t k = 0; k < op.keys.num_keys(); ++k) {
            running += op.keys.probability(k);
            state.key_cdf.push_back(running);
          }
          if (!state.key_cdf.empty()) state.key_cdf.back() = 1.0;
        }
      } else {
        state.selector = ReplicaSelector::round_robin(n);
      }
      break;
    }
    case ActorKind::kCollector:
      break;
    case ActorKind::kMeta: {
      for (std::size_t p = 0; p < spec.members.size(); ++p) {
        const OpIndex m = spec.members[p];
        state.member_logic.push_back(factory_.logic(m, topology_.op(m)));
        state.member_pos.emplace(m, p);
      }
      break;
    }
  }
  // Replica actors forward to the collector: by construction the single
  // downstream entry of a replica is the collector actor.
  if (spec.kind == ActorKind::kReplica) state.collector_actor = spec.downstream.front();
}

std::unique_ptr<Engine::EpochState> Engine::build_epoch(Deployment deployment,
                                                        ActorGraph graph, EpochState* prev,
                                                        const DeploymentDiff* diff) {
  auto epoch = std::make_unique<EpochState>();
  epoch->deployment = std::move(deployment);
  epoch->graph = std::move(graph);

  // Actors of operators the diff leaves untouched carry over whole from the
  // quiesced previous epoch: mailbox contents, logic state, rng, counters.
  // Identity is (operator, role, replica) — actor *ids* shift between
  // epochs, so every id-bearing field is refreshed below.
  std::map<std::tuple<OpIndex, int, int>, std::size_t> reusable;
  if (prev != nullptr && diff != nullptr) {
    for (std::size_t i = 0; i < prev->actors.size(); ++i) {
      const ActorSpec& spec = prev->actors[i]->spec;
      if (!diff->changed(spec.op)) {
        reusable.emplace(std::make_tuple(spec.op, static_cast<int>(spec.kind), spec.replica),
                         i);
      }
    }
  }

  epoch->actors.reserve(epoch->graph.num_actors());
  for (const ActorSpec& spec : epoch->graph.actors) {
    const auto it =
        reusable.find(std::make_tuple(spec.op, static_cast<int>(spec.kind), spec.replica));
    if (it != reusable.end() && prev->actors[it->second] != nullptr) {
      std::unique_ptr<ActorState> state = std::move(prev->actors[it->second]);
      state->spec = spec;
      if (spec.kind == ActorKind::kEmitter) state->replica_targets = spec.downstream;
      if (spec.kind == ActorKind::kReplica) state->collector_actor = spec.downstream.front();
      state->mailbox.set_on_ready(nullptr);  // the new scheduler re-hooks
      state->mailbox.set_owner_op(spec.op);  // blocked-edge attribution
      state->shutdowns_seen = 0;
      state->fence_seen = 0;
      state->fence_counted = false;
      state->finished = false;
      state->retired.store(false, std::memory_order_relaxed);
      epoch->actors.push_back(std::move(state));
      continue;
    }
    auto state = std::make_unique<ActorState>(spec, config_.mailbox_capacity, config_.overflow,
                                              config_.mailbox, master_rng_.split());
    state->mailbox.set_owner_op(spec.op);  // blocked-edge attribution
    init_actor_logic(*state, spec, epoch->deployment);
    epoch->actors.push_back(std::move(state));
  }
  if (prev != nullptr && diff != nullptr) migrate_state(*epoch, *prev, *diff);
  return epoch;
}

void Engine::migrate_state(EpochState& next, EpochState& prev, const DeploymentDiff& diff) {
  for (OpIndex op = 0; op < topology_.num_operators(); ++op) {
    if (!diff.changed(op)) continue;
    const OperatorSpec& spec = topology_.op(op);
    if (spec.state != StateKind::kPartitionedStateful) continue;

    // The operator's previous state holders.  Actors moved into the new
    // epoch are nullptr here — but those belong to unchanged operators, so
    // every holder of a *changed* operator is still present.
    std::vector<OperatorLogic*> old_logics;
    for (const auto& actor : prev.actors) {
      if (actor == nullptr) continue;
      const ActorSpec& a = actor->spec;
      if (a.op == op &&
          (a.kind == ActorKind::kWorker || a.kind == ActorKind::kReplica) &&
          actor->logic != nullptr) {
        old_logics.push_back(actor->logic.get());
      } else if (a.kind == ActorKind::kMeta) {
        for (std::size_t p = 0; p < a.members.size(); ++p) {
          if (a.members[p] == op) old_logics.push_back(actor->member_logic[p].get());
        }
      }
    }
    if (old_logics.empty()) continue;

    // The new owners, indexed by replica id (a lone worker or fused member
    // is replica 0).
    std::vector<OperatorLogic*> owners;
    for (const auto& actor : next.actors) {
      const ActorSpec& a = actor->spec;
      if (a.op == op && a.kind == ActorKind::kWorker && actor->logic != nullptr) {
        owners.assign(1, actor->logic.get());
      } else if (a.op == op && a.kind == ActorKind::kReplica && actor->logic != nullptr) {
        const auto r = static_cast<std::size_t>(a.replica);
        if (owners.size() <= r) owners.resize(r + 1, nullptr);
        owners[r] = actor->logic.get();
      } else if (a.kind == ActorKind::kMeta) {
        for (std::size_t p = 0; p < a.members.size(); ++p) {
          if (a.members[p] == op) owners.assign(1, actor->member_logic[p].get());
        }
      }
    }
    if (owners.empty()) continue;

    // Key -> replica exactly as the new emitter's ReplicaSelector maps it
    // (routing.cpp), so migrated state lands where the data will go.
    KeyPartition partition;
    if (owners.size() > 1) {
      if (op < next.deployment.partitions.size() &&
          !next.deployment.partitions[op].replica_of_key.empty()) {
        partition = next.deployment.partitions[op];
      } else {
        partition = partition_keys(spec.keys, static_cast<int>(owners.size()));
      }
    }

    for (OperatorLogic* old_logic : old_logics) {
      for (const std::int64_t key : old_logic->owned_keys()) {
        std::size_t replica = 0;
        if (owners.size() > 1) {
          const auto n = static_cast<std::int64_t>(partition.replica_of_key.size());
          std::int64_t k = key % n;
          if (k < 0) k += n;
          replica = static_cast<std::size_t>(
              partition.replica_of_key[static_cast<std::size_t>(k)]);
        }
        OperatorLogic* dest = replica < owners.size() ? owners[replica] : nullptr;
        if (dest != nullptr && dest != old_logic && old_logic->migrate_key(key, *dest)) {
          keys_migrated_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  }
}

// ------------------------------------------------- EngineCore (scheduler API)

bool Engine::is_source(std::size_t id) const {
  return actor(id).spec.kind == ActorKind::kSource;
}

Mailbox& Engine::mailbox(std::size_t id) { return actor(id).mailbox; }

bool Engine::send_to_actor(int actor_id, const Message& m) {
  const auto timeout =
      std::chrono::duration_cast<std::chrono::nanoseconds>(config_.send_timeout);
  return epoch_->scheduler->deliver(static_cast<std::size_t>(actor_id), m, timeout);
}

// ------------------------------------------------------------ output staging

void Engine::begin_output_batch() {
  // Staging exists to feed the ring's batched slot reservation; under
  // --mailbox=mutex the engine runs the original per-message delivery so
  // the A/B in bench/micro_runtime compares the whole hot path against the
  // true baseline, not a hybrid.
  if (config_.mailbox != MailboxKind::kRing) return;
  OutputStage& stage = tls_output_stage;
  stage.owner = this;
  stage.target = -1;
  stage.armed = true;
  stage.batch.clear();
}

void Engine::flush_output_batch() {
  flush_stage();
  OutputStage& stage = tls_output_stage;
  stage.armed = false;
  stage.owner = nullptr;
}

bool Engine::stage_message(int actor_id, const Message& m, bool count_emit) {
  OutputStage& stage = tls_output_stage;
  if (!stage.armed || stage.owner != this || m.kind != Message::Kind::kData) {
    return false;
  }
  if (stage.target != actor_id) flush_stage();  // destination changed
  stage.target = actor_id;
  stage.batch.push(m, count_emit);
  if (stage.batch.full()) flush_stage();
  return true;
}

void Engine::flush_stage() {
  OutputStage& stage = tls_output_stage;
  if (stage.owner != this || stage.batch.empty()) return;
  MessageBatch& b = stage.batch;
  const int target = stage.target;
  Mailbox& box = actor(static_cast<std::size_t>(target)).mailbox;
  const std::size_t accepted = box.try_send_batch(b.items, b.count);
  for (std::size_t i = 0; i < accepted; ++i) {
    if ((b.emit_mask & (1u << i)) != 0) board_.add_emitted(b.items[i].from);
  }
  // Remainder: the destination is full (or closed).  Fall back to the
  // scheduler's per-message delivery, which applies the usual BAS / shed
  // semantics and charges blocked time exactly like an unstaged send.
  for (std::size_t i = accepted; i < b.count; ++i) {
    if (send_to_actor(target, b.items[i]) && (b.emit_mask & (1u << i)) != 0) {
      board_.add_emitted(b.items[i].from);
    }
  }
  b.clear();
  stage.target = -1;
}

bool Engine::route_result(OpIndex op, OpIndex target, const Tuple& tuple, Rng& rng) {
  if (target == kInvalidOp) {
    target = routers_[op].choose(rng);
    if (target == kInvalidOp) {  // sink: the result leaves the system
      meter_exit(tuple);
      return true;
    }
  } else {
    require(routers_[op].is_destination(target),
            "emit_to: '" + topology_.op(target).name + "' is not a downstream neighbor of '" +
                topology_.op(op).name + "'");
  }
  const Message m = Message::data(tuple, op, target);
  const int entry = epoch_->graph.entry[target];
  // Staged: the emission is counted at flush time (emit_mask), so report
  // false here — the caller must not count it a second time.
  if (stage_message(entry, m, /*count_emit=*/true)) return false;
  return send_to_actor(entry, m);
}

void Engine::release_ordered(ActorState& st) {
  // Release buffered results of consecutive completed sequence numbers.
  while (st.completed.count(st.expected_seq) > 0) {
    auto it = st.held.find(st.expected_seq);
    if (it != st.held.end()) {
      for (const Message& m : it->second) {
        if (route_result(st.spec.op, m.target, m.tuple, st.rng)) {
          board_.add_emitted(st.spec.op);
        }
      }
      st.held.erase(it);
    }
    st.completed.erase(st.expected_seq);
    ++st.expected_seq;
  }
}

// -------------------------------------------------------------- latency hooks

// Sources stamp Tuple::ts with the time since the run started (run_seconds,
// monotonic clock); these two hooks measure against the same base, so a
// sample is exactly the tuple's age.  Recording is gated on the board's
// steady-state window (run_for opens it after warmup) and every sample
// costs one clock read plus a wait-free histogram increment.

void Engine::meter_arrival(OpIndex op, const Message& msg) {
  if (!board_.latency_enabled() || msg.kind != Message::Kind::kData) return;
  board_.add_latency(op, run_seconds() - msg.tuple.ts);
}

void Engine::meter_arrival(OpIndex op, const Message& msg, Clock::time_point now) {
  if (!board_.latency_enabled() || msg.kind != Message::Kind::kData) return;
  board_.add_latency(op, seconds_between(run_start_, now) - msg.tuple.ts);
}

void Engine::meter_exit(const Tuple& tuple) {
  if (!board_.latency_enabled()) return;
  board_.add_end_to_end(run_seconds() - tuple.ts);
}

void Engine::run_meta(std::size_t id, OpIndex member, const Tuple& tuple, OpIndex from) {
  ActorState& st = actor(id);
  st.pending.push_back(ActorState::PendingItem{member, tuple, from});
  while (!st.pending.empty()) {
    ActorState::PendingItem item = st.pending.front();
    st.pending.pop_front();
    board_.add_processed(item.member);
    MetaCollector out(*this, st, item.member);
    // Busy time is charged per *member*, so a fused group's ρ columns stay
    // per logical operator exactly like its counters.
    run_timed(telemetry_, item.member, [&] {
      st.member_logic[st.member_pos.at(item.member)]->process(item.tuple, item.from, out);
    });
  }
}

void Engine::finish_actor(std::size_t id) {
  // The epilogue below and the shutdown tokens at the end must not overtake
  // data this thread still has staged (the step flushes its stage before
  // the epilogue; this keeps the guarantee local).
  flush_stage();
  ActorState& st = actor(id);
  switch (st.spec.kind) {
    case ActorKind::kWorker: {
      RouteCollector out(*this, st.spec.op, st.rng);
      st.logic->on_finish(out);
      break;
    }
    case ActorKind::kReplica: {
      ReplicaCollector out(*this, st.spec.op, st.collector_actor);
      st.logic->on_finish(out);
      break;
    }
    case ActorKind::kMeta: {
      // Flush members upstream-first so window tails cascade downstream.
      for (OpIndex m : st.spec.members) {
        MetaCollector out(*this, st, m);
        st.member_logic[st.member_pos.at(m)]->on_finish(out);
        while (!st.pending.empty()) {
          ActorState::PendingItem item = st.pending.front();
          st.pending.pop_front();
          board_.add_processed(item.member);
          MetaCollector inner(*this, st, item.member);
          st.member_logic[st.member_pos.at(item.member)]->process(item.tuple, item.from, inner);
        }
      }
      break;
    }
    case ActorKind::kCollector: {
      // Release anything still held (inputs whose marks raced the drain),
      // in sequence order.
      for (auto& [seq, messages] : st.held) {
        (void)seq;
        for (const Message& m : messages) {
          if (route_result(st.spec.op, m.target, m.tuple, st.rng)) {
            board_.add_emitted(st.spec.op);
          }
        }
      }
      st.held.clear();
      break;
    }
    case ActorKind::kSource:
    case ActorKind::kEmitter:
      break;
  }
  // Propagate end-of-stream: one token per outgoing channel.
  for (int target : st.spec.downstream) {
    actor(static_cast<std::size_t>(target)).mailbox.send_unbounded(Message::shutdown());
  }
  std::lock_guard lock(fence_mutex_);
  st.finished = true;
}

// ------------------------------------------------------- fence/drain barrier

void Engine::on_fence_token(std::size_t id) {
  ActorState& st = actor(id);
  // One token per inbound channel, exactly like the shutdown protocol: FIFO
  // per channel means every upstream's data precedes its token, so when the
  // last token arrives the actor has processed everything this epoch will
  // ever send it.
  if (++st.fence_seen < st.spec.incoming_channels) return;
  st.fence_seen = 0;
  pass_fence(id);
}

void Engine::count_fence_locked(ActorState& st) {
  if (st.fence_counted) return;
  st.fence_counted = true;
  ++fence_passed_;
}

void Engine::pass_fence(std::size_t id) {
  // Results staged earlier in this slice must reach their mailboxes before
  // the fence tokens below — a token overtaking data would let a channel
  // quiesce with tuples still in flight behind it.
  flush_stage();
  ActorState& st = actor(id);
  if (st.retired.exchange(true, std::memory_order_acq_rel)) return;
  trace::instant("fence_pass", "fence", "actor", static_cast<std::int64_t>(id));
  // Forward the fence before announcing passage so every downstream channel
  // carries its token; the barrier completes only after the whole graph
  // quiesced.
  for (int target : st.spec.downstream) {
    actor(static_cast<std::size_t>(target)).mailbox.send_unbounded(Message::fence());
  }
  bool complete = false;
  {
    std::lock_guard lock(fence_mutex_);
    if (st.spec.kind != ActorKind::kSource) count_fence_locked(st);
    complete = fence_passed_ >= fence_expected_;
  }
  if (complete) fence_cv_.notify_all();
}

bool Engine::next_source_item(ActorState& st, Tuple& tuple) {
  {
    std::lock_guard lock(fence_mutex_);
    if (!fence_buffer_.empty()) {
      // Replay what the previous epoch's source buffered during the fence;
      // items keep their original timestamps so the switch-over delay shows
      // up honestly in the latency percentiles.
      tuple = fence_buffer_.front();
      fence_buffer_.pop_front();
      return true;
    }
    if (source_exhausted_) return false;  // SourceLogic ended mid-fence
  }
  if (!st.source->next(tuple)) return false;
  tuple.ts = run_seconds();  // source stamp: the latency time base
  return true;
}

void Engine::source_fence(std::size_t id) {
  flush_stage();  // staged items precede the fence tokens, as on every path
  ActorState& st = actor(id);
  if (st.retired.exchange(true, std::memory_order_acq_rel)) return;
  trace::Span span("source_fence", "fence");
  // Announce the tuple boundary: beyond these tokens this epoch's source
  // emits nothing; new items go to the bounded fence buffer instead of
  // being dropped, and the next epoch's source replays them first.
  for (int target : st.spec.downstream) {
    actor(static_cast<std::size_t>(target)).mailbox.send_unbounded(Message::fence());
  }
  std::unique_lock lock(fence_mutex_);
  while (!fence_release_sources_) {
    if (!source_exhausted_ && fence_buffer_.size() < config_.mailbox_capacity) {
      lock.unlock();
      Tuple tuple;
      const bool ok = st.source->next(tuple);
      if (ok) tuple.ts = run_seconds();
      lock.lock();
      if (ok) {
        fence_buffer_.push_back(tuple);
      } else {
        source_exhausted_ = true;
      }
      continue;
    }
    // Buffer full (or source dry): park until the switch-over releases us.
    BlockingSection blocking;
    fence_cv_.wait(lock);
  }
}

// ----------------------------------------------------------- message dispatch

void Engine::process_message(std::size_t id, Message& msg) {
  if (msg.kind == Message::Kind::kFence) {
    on_fence_token(id);
    return;
  }
  ActorState& st = actor(id);
  const OpIndex op = st.spec.op;
  // Telemetry: the worker/replica paths share one clock read between the
  // arrival-latency sample and the busy-span start, so metering adds a
  // single extra read per message over the pre-telemetry engine — and
  // none at all when the scheduler opened a batch slice around us.
  const bool meter = telemetry_.enabled() && !tls_batch_slice.active;
  switch (st.spec.kind) {
    case ActorKind::kWorker: {
      board_.add_processed(op);
      RouteCollector out(*this, op, st.rng);
      if (meter) {
        ScopedActorContext ctx(telemetry_, op);
        const Clock::time_point from = metering_now();
        meter_arrival(op, msg, from);
        st.logic->process(msg.tuple, msg.from, out);
        const auto elapsed = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(metering_now() - from)
                .count());
        const std::uint64_t blocked = ctx.blocked_ns();
        const std::uint64_t busy = elapsed > blocked ? elapsed - blocked : 0;
        telemetry_.add_busy(op, busy);
        if (profiler_ != nullptr) profiler_->record_slice(op, busy, 1);
      } else {
        meter_arrival(op, msg);
        st.logic->process(msg.tuple, msg.from, out);
      }
      if (tls_batch_slice.active) ++tls_batch_slice.items;
      break;
    }
    case ActorKind::kReplica: {
      board_.add_processed(op);
      st.current_seq = msg.seq;
      ReplicaCollector out(*this, op, st.collector_actor, msg.seq);
      if (meter) {
        ScopedActorContext ctx(telemetry_, op);
        const Clock::time_point from = metering_now();
        meter_arrival(op, msg, from);
        st.logic->process(msg.tuple, msg.from, out);
        const auto elapsed = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(metering_now() - from)
                .count());
        const std::uint64_t blocked = ctx.blocked_ns();
        const std::uint64_t busy = elapsed > blocked ? elapsed - blocked : 0;
        telemetry_.add_busy(op, busy);
        if (profiler_ != nullptr) profiler_->record_slice(op, busy, 1);
      } else {
        meter_arrival(op, msg);
        st.logic->process(msg.tuple, msg.from, out);
      }
      if (tls_batch_slice.active) ++tls_batch_slice.items;
      if (msg.seq >= 0) {
        // Tell the collector this input is fully processed so it can
        // release the next sequence number.
        actor(static_cast<std::size_t>(st.collector_actor))
            .mailbox.send_unbounded(Message::seq_mark(msg.seq));
      }
      break;
    }
    case ActorKind::kEmitter: {
      // No busy timing (routing is overhead, not service), but pin the
      // context so a backpressure-blocked send to a replica charges the
      // operator's blocked gauge.
      std::optional<ScopedActorContext> ctx;
      if (meter) ctx.emplace(telemetry_, op);
      if (!st.key_cdf.empty()) {
        // Synthetic mode: draw the key this item carries from the
        // operator's key distribution so replica loads realize the exact
        // shares the cost model assumed.
        const double u = st.rng.next_double();
        auto it = std::lower_bound(st.key_cdf.begin(), st.key_cdf.end(), u);
        if (it == st.key_cdf.end()) --it;
        msg.tuple.key = static_cast<std::int64_t>(it - st.key_cdf.begin());
      }
      if (config_.preserve_replica_order) msg.seq = st.next_seq++;
      const int r = st.selector.select(msg.tuple.key, st.rng);
      const int dest = st.replica_targets[static_cast<std::size_t>(r)];
      // A forward, not an emission (the collector counts the operator's
      // output): staged when a slice is open, delivered directly otherwise.
      if (!stage_message(dest, msg, /*count_emit=*/false)) send_to_actor(dest, msg);
      break;
    }
    case ActorKind::kCollector: {
      // msg carries an un-routed (or explicitly targeted) result of `op`,
      // or a seq mark when order-preserving collection is on.
      std::optional<ScopedActorContext> ctx;
      if (meter) ctx.emplace(telemetry_, op);
      if (msg.kind == Message::Kind::kSeqMark) {
        st.completed.insert(msg.seq);
        release_ordered(st);
      } else if (msg.seq < 0) {
        if (route_result(op, msg.target, msg.tuple, st.rng)) board_.add_emitted(op);
      } else {
        st.held[msg.seq].push_back(msg);
        release_ordered(st);
      }
      break;
    }
    case ActorKind::kMeta:
      // The delay to the entry member; intra-group hand-offs are mailbox-
      // free (Alg. 4) and add no queueing worth metering.
      meter_arrival(msg.target, msg);
      run_meta(id, msg.target, msg.tuple, msg.from);
      break;
    case ActorKind::kSource:
      break;  // sources have no inbound data
  }
}

// Batch-granularity metering (one slice per step).  A drained batch is timed
// as ONE busy slice charged to the actor's operator: two clock reads per
// batch instead of two per message, which is what keeps armed-window
// metering overhead flat on sub-microsecond operators.  The slice covers
// dispatch (routing, try_send) as well as OperatorLogic::process — that
// time is CPU the actor genuinely spends per item — while blocked-on-send
// waits inside the slice are charged through the pinned context and
// subtracted, exactly like the per-message path.  Only worker/replica
// actors opt in: meta groups charge busy per logical member (run_meta) and
// emitter/collector actors never charged busy per message either.
bool Engine::begin_batch_meter(std::size_t id) {
  if (!telemetry_.enabled()) return false;
  const ActorState& st = actor(id);
  if (st.spec.kind != ActorKind::kWorker && st.spec.kind != ActorKind::kReplica) {
    return false;
  }
  BatchMeterSlice& slice = tls_batch_slice;
  slice.op = st.spec.op;
  slice.ctx.emplace(telemetry_, st.spec.op);
  slice.from = metering_now();
  slice.active = true;
  slice.items = 0;
  return true;
}

void Engine::end_batch_meter() {
  BatchMeterSlice& slice = tls_batch_slice;
  const auto elapsed = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(metering_now() - slice.from)
          .count());
  const std::uint64_t blocked = slice.ctx->blocked_ns();
  const std::uint64_t busy = elapsed > blocked ? elapsed - blocked : 0;
  telemetry_.add_busy(slice.op, busy);
  // The whole drained batch is one profiler slice: items >= 2 slices are
  // the backlog bursts whose per-item gap is the non-blocking service time.
  if (profiler_ != nullptr && slice.items > 0) {
    profiler_->record_slice(slice.op, busy, slice.items);
  }
  slice.active = false;
  slice.items = 0;
  slice.ctx.reset();
}

// ------------------------------------------------------------ the actor step

namespace {

/// Items a source emits per step.  Fixed (not the pool's --batch): a
/// quantum is also the source's metering slice, and the stop/fence flags
/// are re-checked per item, so it never delays a fence.
constexpr int kSourceQuantum = 64;

/// Runs `f` when the scope exits, on normal exit and unwinding alike.
template <typename F>
class OnExit {
 public:
  explicit OnExit(F f) : f_(std::move(f)) {}
  ~OnExit() { f_(); }
  OnExit(const OnExit&) = delete;
  OnExit& operator=(const OnExit&) = delete;

 private:
  F f_;
};

}  // namespace

StepResult Engine::step(std::size_t id, std::size_t max_messages) {
  return is_source(id) ? source_step(id) : drain_step(id, max_messages);
}

StepResult Engine::source_step(std::size_t id) {
  trace::Span span("pump", "actor");
  span.set_arg("actor", static_cast<std::int64_t>(id));
  bool more = false;
  try {
    begin_output_batch();
    OnExit flush([this] { flush_output_batch(); });
    more = pump_source(id);
  } catch (const std::exception& e) {
    report_failure(id, e.what());
    return {StepStatus::kFinished, 0};
  }
  // Retired at a fence: no finish epilogue — logic state and mailbox
  // carry into the next epoch.
  if (actor(id).retired.load(std::memory_order_relaxed)) return {StepStatus::kRetired, 0};
  return more ? StepResult{StepStatus::kRunAgain, 0} : finish(id, 0);
}

StepResult Engine::drain_step(std::size_t id, std::size_t max_messages) {
  ActorState& st = actor(id);
  Mailbox& box = st.mailbox;
  // One drain hands the whole batch over, but each message's capacity slot
  // is released only as it enters service — freeing the whole batch up
  // front would give senders capacity B + batch and visibly weaken the BAS
  // backpressure the cost models assume.  Tokens and data stay in FIFO
  // order inside the batch.
  thread_local std::vector<Message> batch;
  batch.clear();
  trace::Span span("batch", "actor");
  const std::size_t taken = box.drain(batch, max_messages, /*release_now=*/false);
  span.set_arg("n", static_cast<std::int64_t>(taken));
  if (taken == 0) {
    // Closed and drained (only a failure closes a mailbox): finish, or a
    // driver waiting for mail would wake on the closed box forever.
    return box.closed() ? finish(id, 0) : StepResult{StepStatus::kWaitForMail, 0};
  }
  StepStatus status = StepStatus::kWaitForMail;
  std::optional<std::string> failure;
  {
    // The slice closes after the stage flushed (destruction order), so
    // dispatch time lands in the busy slice.  Both close before any
    // epilogue: the finish/fence tokens may not overtake staged data.
    const bool metered = begin_batch_meter(id);
    OnExit close_meter([this, metered] {
      if (metered) end_batch_meter();
    });
    begin_output_batch();
    OnExit flush([this] { flush_output_batch(); });
    std::size_t released = 0;
    try {
      for (Message& msg : batch) {
        box.release(1);
        ++released;
        if (msg.kind == Message::Kind::kShutdown) {
          // FIFO per channel puts each upstream's token after its data, so
          // once all tokens arrived no data can be pending behind them.
          if (++st.shutdowns_seen >= st.spec.incoming_channels) {
            status = StepStatus::kFinished;
            break;
          }
          continue;
        }
        process_message(id, msg);
        if (st.retired.load(std::memory_order_relaxed)) {
          // The message was the actor's final fence token: it forwarded the
          // fence and retired; nothing of this epoch is pending behind it.
          status = StepStatus::kRetired;
          break;
        }
      }
    } catch (const std::exception& e) {
      failure = e.what();
    }
    if (taken > released) box.release(taken - released);
  }
  if (failure) {
    report_failure(id, *failure);
    return {StepStatus::kFinished, taken};
  }
  if (status == StepStatus::kFinished) return finish(id, taken);
  if (status == StepStatus::kRetired) return {StepStatus::kRetired, taken};
  return {box.size() > 0 ? StepStatus::kRunAgain : StepStatus::kWaitForMail, taken};
}

StepResult Engine::finish(std::size_t id, std::size_t drained) {
  try {
    finish_actor(id);  // flush logic, propagate shutdown tokens
  } catch (const std::exception& e) {
    report_failure(id, e.what());
  }
  return {StepStatus::kFinished, drained};
}

bool Engine::pump_source(std::size_t id) {
  ActorState& st = actor(id);
  const OpIndex op = st.spec.op;
  RouteCollector out(*this, op, st.rng);
  ScopedActorContext ctx(telemetry_, op);
  // Batch-granularity metering, like begin/end_batch_meter on the drain
  // side: the whole quantum is ONE busy slice (generation + emit dispatch,
  // blocked-on-send subtracted through the pinned context) — two clock
  // reads per quantum instead of two per generated item.
  const bool meter = telemetry_.enabled();
  const Clock::time_point from = meter ? metering_now() : Clock::time_point{};
  const auto record = [&] {
    if (!meter) return;
    const auto elapsed = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(metering_now() - from)
            .count());
    const std::uint64_t blocked = ctx.blocked_ns();
    telemetry_.add_busy(op, elapsed > blocked ? elapsed - blocked : 0);
  };
  Tuple tuple;
  for (int i = 0; i < kSourceQuantum; ++i) {
    if (stop_.load(std::memory_order_relaxed)) {
      // A stop raised between a fence and its resume (e.g. a snapshot
      // write failure aborting the run) leaves already-generated items in
      // the fence buffer; deliver them before finishing — a bad disk must
      // never lose an in-flight tuple.
      while (true) {
        std::unique_lock lock(fence_mutex_);
        if (fence_buffer_.empty()) break;
        tuple = fence_buffer_.front();
        fence_buffer_.pop_front();
        lock.unlock();
        board_.add_processed(op);
        out.emit(tuple);
      }
      record();
      return false;
    }
    if (fence_active_.load(std::memory_order_acquire)) {
      record();
      source_fence(id);
      return true;  // retired: the step completes us without epilogue
    }
    if (!next_source_item(st, tuple)) {
      record();
      return false;
    }
    board_.add_processed(op);
    out.emit(tuple);
    // A paced source holding a half-filled batch would charge every staged
    // item the pace gaps of its successors — visible directly in the
    // percentiles.  While latency is being measured, hand each item over
    // as it is produced; batching a rate-limited source buys nothing
    // anyway (the win is back-to-back emission).
    if (board_.latency_enabled()) flush_stage();
  }
  record();
  return true;
}

void Engine::report_failure(std::size_t id, const std::string& what) {
  flush_stage();  // deliver what the failed slice already routed
  {
    std::lock_guard lock(failure_mutex_);
    if (first_failure_.empty()) {
      first_failure_ = "actor '" + actor(id).spec.name + "': " + what;
    }
  }
  stop_.store(true);
  actor(id).mailbox.close();
  for (int target : actor(id).spec.downstream) {
    actor(static_cast<std::size_t>(target)).mailbox.send_unbounded(Message::shutdown());
  }
  // A failed actor will never pass its fence token: forward the fence on
  // its behalf so an in-flight barrier completes (reconfigure then aborts
  // on the stop flag and the failure is rethrown after join).
  if (fence_active_.load(std::memory_order_acquire)) pass_fence(id);
}

void Engine::actor_done(std::size_t id) {
  ActorState& st = actor(id);
  bool complete = false;
  {
    std::lock_guard lock(fence_mutex_);
    st.finished = true;
    if (st.spec.kind == ActorKind::kSource && !st.retired.load(std::memory_order_relaxed)) {
      // The source ran its natural end-of-stream, not a fence retirement:
      // the run is completing and reconfigurations must stop.
      source_finished_.store(true, std::memory_order_release);
    }
    if (fence_active_.load(std::memory_order_relaxed) &&
        st.spec.kind != ActorKind::kSource) {
      // Finished (or failed) during the fence: it will never pass a token;
      // count it so the barrier completes.
      count_fence_locked(st);
      complete = fence_passed_ >= fence_expected_;
    }
  }
  if (complete) fence_cv_.notify_all();
  if (active_actors_.fetch_sub(1) == 1) {
    std::lock_guard lock(done_mutex_);
    done_cv_.notify_all();
  }
}

// -------------------------------------------------------------- reconfigure

bool Engine::reconfigure(const Deployment& next) {
  // Tag the fence/epoch spans this switch-over records with the tenant,
  // whichever thread drives it (per-engine controller or a joint one).
  if (tenant_tag_ != nullptr) trace::set_thread_tenant(tenant_tag_);
  // Validate before disturbing the run: a malformed deployment throws here,
  // leaving the current epoch untouched.
  ActorGraph next_graph = ActorGraph::build(topology_, next);

  std::unique_lock epoch_lock(epoch_mutex_);
  if (!started_.load(std::memory_order_acquire) || stop_.load() ||
      source_finished_.load(std::memory_order_acquire)) {
    return false;
  }

  const DeploymentDiff diff =
      diff_deployments(topology_.num_operators(), epoch_->deployment, next);
  swap_in_progress_.store(true, std::memory_order_release);

  // Arm the fence.  Actors that already finished (natural end-of-stream
  // racing the fence) are pre-counted: they will never pass a token.
  {
    std::lock_guard lock(fence_mutex_);
    fence_passed_ = 0;
    fence_expected_ = 0;
    fence_release_sources_ = false;
    for (const auto& st : epoch_->actors) {
      if (st->spec.kind == ActorKind::kSource) continue;
      ++fence_expected_;
      st->fence_counted = false;
      if (st->finished) count_fence_locked(*st);
    }
    fence_active_.store(true, std::memory_order_release);
    trace::instant("fence_arm", "fence", "expected",
                   static_cast<std::int64_t>(fence_expected_));
  }

  // Sources see fence_active_ on their next item, inject the fence tokens
  // and buffer; the tokens sweep the graph behind all in-flight data.  Wait
  // for every non-source actor to quiesce at that tuple boundary.
  {
    trace::Span drain_span("fence_drain", "fence");
    std::unique_lock lock(fence_mutex_);
    fence_cv_.wait(lock, [this] { return fence_passed_ >= fence_expected_; });
    fence_release_sources_ = true;
  }
  fence_cv_.notify_all();

  // Every actor retired or finished: the epoch's scheduler winds down.
  epoch_->scheduler->join();

  const bool aborted =
      stop_.load() || source_finished_.load(std::memory_order_acquire);
  if (!aborted) {
    trace::Span swap_span("epoch_swap", "fence");
    std::unique_ptr<EpochState> fresh =
        build_epoch(next, std::move(next_graph), epoch_.get(), &diff);
    // Actors being replaced die with the old epoch; fold their drop counts
    // — and their telemetry: queue high-water marks and the retiring
    // scheduler's counters — into the final accounting (reused actors keep
    // counting on their own).
    for (const auto& st : epoch_->actors) {
      if (st == nullptr) continue;
      dropped_prior_epochs_ += st->mailbox.dropped();
      ring_enqueues_prior_ += st->mailbox.ring_enqueues();
      ring_spills_prior_ += st->mailbox.ring_spills();
      const OpIndex op = st->spec.op;
      queue_peak_prior_[op] = std::max(queue_peak_prior_[op], st->mailbox.depth_peak());
    }
    sched_counters_prior_ += epoch_->scheduler->counters();
    epoch_ = std::move(fresh);
    predicted_ = make_predictions(topology_, epoch_->deployment, config_.mailbox_capacity);
    const int e = epoch_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
    trace::instant("epoch", "fence", "epoch", e);
  }

  {
    std::lock_guard lock(fence_mutex_);
    fence_active_.store(false, std::memory_order_release);
    if (aborted) fence_buffer_.clear();
  }

  if (!aborted) {
    active_actors_.store(static_cast<int>(epoch_->actors.size()));
    epoch_->scheduler = make_epoch_scheduler();
    epoch_->scheduler->start(*this);
  }
  swap_in_progress_.store(false, std::memory_order_release);
  {
    // run_until_complete may have observed active_actors_ == 0 during the
    // swap; re-evaluate its predicate now that swap_in_progress_ cleared.
    std::lock_guard lock(done_mutex_);
    done_cv_.notify_all();
  }
  return !aborted;
}

// ------------------------------------------------------------- checkpointing

bool Engine::checkpoint_now() {
  if (checkpoint_mgr_ == nullptr) return false;
  if (tenant_tag_ != nullptr) trace::set_thread_tenant(tenant_tag_);

  std::unique_lock epoch_lock(epoch_mutex_);
  if (!started_.load(std::memory_order_acquire) || stop_.load() ||
      source_finished_.load(std::memory_order_acquire)) {
    return false;
  }
  swap_in_progress_.store(true, std::memory_order_release);

  // Arm the fence, exactly as reconfigure() does: the barrier quiesces
  // every actor at a tuple boundary while sources buffer — mailboxes empty,
  // no item half-processed.  That quiesced graph is the consistent cut.
  {
    std::lock_guard lock(fence_mutex_);
    fence_passed_ = 0;
    fence_expected_ = 0;
    fence_release_sources_ = false;
    for (const auto& st : epoch_->actors) {
      if (st->spec.kind == ActorKind::kSource) continue;
      ++fence_expected_;
      st->fence_counted = false;
      if (st->finished) count_fence_locked(*st);
    }
    fence_active_.store(true, std::memory_order_release);
    trace::instant("fence_arm", "fence", "expected",
                   static_cast<std::int64_t>(fence_expected_));
  }
  {
    trace::Span drain_span("fence_drain", "fence");
    std::unique_lock lock(fence_mutex_);
    fence_cv_.wait(lock, [this] { return fence_passed_ >= fence_expected_; });
    fence_release_sources_ = true;
  }
  fence_cv_.notify_all();
  epoch_->scheduler->join();

  const bool aborted =
      stop_.load() || source_finished_.load(std::memory_order_acquire);
  bool written = false;
  if (!aborted) {
    // Serialize and persist the cut.  A write failure is surfaced exactly
    // like an operator exception — recorded as the run's first failure and
    // rethrown by finalize_run() on the caller's thread — but the epoch
    // still resumes below so the pipeline drains: a bad disk never stalls
    // the fence barrier and never loses an in-flight tuple.
    trace::Span ckpt_span("checkpoint", "fence");
    Checkpoint cp = capture_checkpoint();
    try {
      checkpoint_mgr_->write(cp);
      written = true;
      checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
      last_epoch_persisted_.store(cp.epoch, std::memory_order_relaxed);
      trace::instant("checkpoint_write", "fence", "sequence",
                     static_cast<std::int64_t>(cp.sequence));
    } catch (const std::exception& e) {
      {
        std::lock_guard lock(failure_mutex_);
        if (first_failure_.empty()) first_failure_ = e.what();
      }
      stop_.store(true);
    }
  }

  {
    std::lock_guard lock(fence_mutex_);
    fence_active_.store(false, std::memory_order_release);
    if (aborted) fence_buffer_.clear();
  }

  if (!aborted) {
    // Resume the SAME epoch in place: no deployment change, no epoch bump,
    // actors keep their mailboxes and state.  Only the joined scheduler is
    // replaced (a scheduler cannot restart after join) and the per-actor
    // fence latches reset; the sources replay the fence buffer first.
    for (const auto& st : epoch_->actors) {
      st->mailbox.set_on_ready(nullptr);  // the new scheduler re-hooks
      st->shutdowns_seen = 0;
      st->fence_seen = 0;
      st->fence_counted = false;
      st->retired.store(false, std::memory_order_relaxed);
    }
    sched_counters_prior_ += epoch_->scheduler->counters();
    active_actors_.store(static_cast<int>(epoch_->actors.size()));
    epoch_->scheduler = make_epoch_scheduler();
    epoch_->scheduler->start(*this);
  }
  swap_in_progress_.store(false, std::memory_order_release);
  {
    std::lock_guard lock(done_mutex_);
    done_cv_.notify_all();
  }
  return written && !stop_.load();
}

Checkpoint Engine::capture_checkpoint() {
  Checkpoint cp;
  cp.epoch = static_cast<std::uint64_t>(epoch_counter_.load(std::memory_order_relaxed));
  cp.tenant = config_.tenant;
  cp.deployment = epoch_->deployment;
  const CounterSnapshot counts = board_.snapshot(0.0);
  for (const auto& actor_ptr : epoch_->actors) {
    const ActorState& st = *actor_ptr;
    const ActorSpec& spec = st.spec;
    if (spec.kind == ActorKind::kSource) {
      // Items delivered into the graph so far.  Fence-buffered items are
      // deliberately NOT counted: nothing downstream has seen them, and a
      // rewound source regenerates them deterministically on recovery.
      CheckpointSourceEntry src;
      src.op = spec.op;
      src.offset = source_base_offset_[spec.op] + counts.processed[spec.op];
      cp.sources.push_back(src);
    }
    CheckpointActorEntry e;
    e.op = spec.op;
    e.role = static_cast<CheckpointRole>(spec.kind);  // values mirror ActorKind
    e.replica = spec.replica;
    // Every actor's rng matters: emitters draw keys and routing picks, the
    // source/collector rngs drive probabilistic edge selection.  The seq
    // ordering counters need no capture — at a quiesced cut every stamped
    // sequence is released, and both sides restart from zero together.
    e.rng = st.rng.state();
    if (spec.kind == ActorKind::kEmitter) e.rr_cursor = st.selector.cursor();
    if (st.logic != nullptr) e.has_state = st.logic->save_state(e.state);
    cp.actors.push_back(std::move(e));
    // A fused meta actor carries one logic instance per member; each gets
    // its own entry so recovery can restore them individually.
    for (std::size_t p = 0; p < st.member_logic.size(); ++p) {
      CheckpointActorEntry m;
      m.op = spec.members[p];
      m.role = CheckpointRole::kMember;
      m.replica = 0;
      m.has_state = st.member_logic[p]->save_state(m.state);
      cp.actors.push_back(std::move(m));
    }
  }
  return cp;
}

void Engine::apply_recovery(const Checkpoint& cp) {
  recovered_from_epoch_ = cp.epoch;
  std::map<std::tuple<OpIndex, int, int>, const CheckpointActorEntry*> entries;
  for (const CheckpointActorEntry& e : cp.actors) {
    entries[std::make_tuple(e.op, static_cast<int>(e.role), static_cast<int>(e.replica))] =
        &e;
  }
  std::map<OpIndex, std::uint64_t> offsets;
  for (const CheckpointSourceEntry& s : cp.sources) offsets[s.op] = s.offset;

  for (const auto& actor_ptr : epoch_->actors) {
    ActorState& st = *actor_ptr;
    const ActorSpec& spec = st.spec;
    const auto it = entries.find(
        std::make_tuple(spec.op, static_cast<int>(spec.kind), spec.replica));
    if (it != entries.end()) {
      const CheckpointActorEntry& e = *it->second;
      st.rng.set_state(e.rng);
      if (spec.kind == ActorKind::kEmitter && e.rr_cursor >= 0) {
        st.selector.set_cursor(e.rr_cursor);
      }
      if (e.has_state && st.logic != nullptr) {
        require(st.logic->restore_state(e.state),
                "recovery: operator '" + topology_.op(spec.op).name +
                    "' rejected its checkpointed state");
      }
    }
    for (std::size_t p = 0; p < st.member_logic.size(); ++p) {
      const auto mit = entries.find(std::make_tuple(
          spec.members[p], static_cast<int>(CheckpointRole::kMember), 0));
      if (mit != entries.end() && mit->second->has_state) {
        require(st.member_logic[p]->restore_state(mit->second->state),
                "recovery: fused member '" + topology_.op(spec.members[p]).name +
                    "' rejected its checkpointed state");
      }
    }
    if (spec.kind == ActorKind::kSource) {
      const auto oit = offsets.find(spec.op);
      if (oit != offsets.end() && oit->second > 0) {
        // Rewind: fast-forward the source past everything the checkpoint
        // already accounts for, so the resumed stream continues item
        // offset+1 with the exact rng draws an uninterrupted run made.
        st.source->skip(oit->second);
        source_base_offset_[spec.op] = oit->second;
      }
    }
  }
}

void Engine::write_final_checkpoint() {
  if (checkpoint_mgr_ == nullptr) return;
  {
    std::lock_guard lock(failure_mutex_);
    if (!first_failure_.empty()) return;  // failed runs keep the last snapshot
  }
  std::lock_guard lock(epoch_mutex_);
  Checkpoint cp = capture_checkpoint();
  try {
    checkpoint_mgr_->write_final(cp);
    checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
    last_epoch_persisted_.store(cp.epoch, std::memory_order_relaxed);
  } catch (const std::exception& e) {
    std::lock_guard flock(failure_mutex_);
    if (first_failure_.empty()) first_failure_ = e.what();
  }
}

Deployment Engine::deployment() const {
  std::lock_guard lock(epoch_mutex_);
  return epoch_->deployment;
}

CounterSnapshot Engine::sample() const { return board_.snapshot(run_seconds()); }

PredictedLatency Engine::predicted_latency() const {
  std::lock_guard lock(epoch_mutex_);
  return predicted_;
}

void Engine::fill_queue_stats(CounterSnapshot& snap) const {
  const std::size_t n = topology_.num_operators();
  snap.queue_depth.assign(n, 0);
  std::lock_guard lock(epoch_mutex_);
  snap.queue_peak = queue_peak_prior_;
  if (!epoch_) return;
  for (const auto& st : epoch_->actors) {
    if (st == nullptr) continue;
    const OpIndex op = st->spec.op;
    snap.queue_depth[op] += st->mailbox.size();
    snap.queue_peak[op] = std::max(snap.queue_peak[op], st->mailbox.depth_peak());
  }
}

void Engine::reset_queue_peaks() {
  std::lock_guard lock(epoch_mutex_);
  queue_peak_prior_.assign(topology_.num_operators(), 0);
  if (!epoch_) return;
  for (const auto& st : epoch_->actors) {
    if (st != nullptr) st->mailbox.reset_depth_peak();
  }
}

SchedulerCounters Engine::scheduler_counters() const {
  std::lock_guard lock(epoch_mutex_);
  SchedulerCounters c = sched_counters_prior_;
  if (epoch_ && epoch_->scheduler) c += epoch_->scheduler->counters();
  // Ring traffic lives in the mailboxes, not the scheduler: fold the live
  // actors' counters in here (replaced actors fold into the prior sums at
  // reconfigure) so the report shows enqueue volume next to the hint
  // ledger it fed.
  c.ring_enqueues += ring_enqueues_prior_;
  c.ring_spills += ring_spills_prior_;
  if (epoch_) {
    for (const auto& st : epoch_->actors) {
      if (st == nullptr) continue;
      c.ring_enqueues += st->mailbox.ring_enqueues();
      c.ring_spills += st->mailbox.ring_spills();
    }
  }
  return c;
}

MetricsSample Engine::metrics_sample() const {
  MetricsSample s;
  s.counters = board_.snapshot(run_seconds());
  fill_queue_stats(s.counters);
  s.latency = board_.latency_report();
  s.scheduler = scheduler_counters();
  s.epoch = epochs();
  s.checkpoints_written = checkpoints_written_.load(std::memory_order_relaxed);
  s.last_epoch_persisted = last_epoch_persisted_.load(std::memory_order_relaxed);
  s.recovered_from_epoch = recovered_from_epoch_;
  std::lock_guard lock(epoch_mutex_);
  s.dropped = dropped_prior_epochs_;
  if (epoch_) {
    for (const auto& st : epoch_->actors) {
      if (st != nullptr) s.dropped += st->mailbox.dropped();
    }
  }
  s.predicted = predicted_;
  if (profiler_) {
    s.profile = profiler_->snapshot();
    s.bottlenecks = profiler_->bottlenecks();
  }
  return s;
}

// ------------------------------------------------------------------- running

std::unique_ptr<Scheduler> Engine::make_epoch_scheduler() {
  if (config_.host != nullptr) {
    return make_hosted_scheduler(*config_.host, config_.tenant, config_.tenant_weight);
  }
  return make_scheduler(config_.scheduler, config_.workers, config_.pool_batch, config_.pin);
}

void Engine::start_execution() {
  require(!started_.load(), "Engine: run() can only be called once per instance");
  if (tenant_tag_ != nullptr) {
    // Tag the run-driving thread (and everything it records) with the
    // tenant; worker threads tag themselves per actor slot.
    trace::set_thread_tenant(tenant_tag_);
  }
  // Elastic runs feed the controller measured ρ from the first sample,
  // metrics runs export it every period, and a live stats endpoint must
  // serve real numbers from the first request — all three need metering
  // from the start, not only inside the steady-state window.
  if (config_.elastic || !config_.metrics_path.empty() || config_.stats_port > 0) {
    telemetry_.set_enabled(true);
  }
  // An SLO-constrained elastic run meters end-to-end latency from the
  // first tuple: the controller must see a breach before the steady-state
  // window would have opened.  run_for's open_window later re-bases the
  // report so the final stats still cover only the window.
  if (config_.elastic && config_.slo_p99 > 0.0) board_.set_latency_enabled(true);
  if (!config_.metrics_path.empty()) {
    // Construct before the scheduler starts: an unopenable path throws
    // here, before any actor thread exists.
    std::vector<std::string> names;
    names.reserve(topology_.num_operators());
    for (std::size_t i = 0; i < topology_.num_operators(); ++i) {
      names.push_back(topology_.op(static_cast<OpIndex>(i)).name);
    }
    exporter_ = std::make_unique<MetricsExporter>(
        [this] { return metrics_sample(); }, std::move(names),
        config_.metrics_path, config_.metrics_period, config_.tenant);
  }
  if (config_.profile) {
    // The estimator is the telemetry board's blocked-edge sink for the
    // whole run; its fold loop probes queue occupancy through the same
    // epoch-locked path fill_queue_stats uses.  Co-hosted engines stretch
    // the cadence by the tenant count (SchedulerHost::sampling_period_scale).
    ProfilerConfig pc;
    pc.period_seconds = config_.profile_period *
                        (config_.host != nullptr
                             ? config_.host->sampling_period_scale()
                             : 1.0);
    profiler_ = std::make_unique<ProfileEstimator>(
        topology_.num_operators(), &telemetry_, &board_, pc,
        [this](std::vector<QueueProbe>& probes) {
          std::lock_guard lock(epoch_mutex_);
          if (!epoch_) return;
          for (const auto& st : epoch_->actors) {
            if (st == nullptr) continue;
            QueueProbe& q = probes[st->spec.op];
            q.valid = true;
            // An op's push stalls when the entry actor's buffer is full;
            // over several actors (emitter/replicas) report the fullest.
            const std::size_t depth = st->mailbox.size();
            const std::size_t cap = st->mailbox.capacity();
            if (q.capacity == 0 ||
                depth * q.capacity > q.depth * cap) {  // depth/cap > q.depth/q.cap
              q.depth = depth;
              q.capacity = cap;
            }
          }
        });
    telemetry_.set_blocked_sink(profiler_.get());
  }
  if (config_.stats_port > 0) {
    // Bind before the scheduler starts: a taken or invalid port throws
    // here, before any actor thread exists.
    std::vector<std::string> names;
    names.reserve(topology_.num_operators());
    for (std::size_t i = 0; i < topology_.num_operators(); ++i) {
      names.push_back(topology_.op(static_cast<OpIndex>(i)).name);
    }
    stats_server_ = std::make_unique<StatsServer>(
        config_.stats_port, [this] { return metrics_sample(); }, std::move(names));
  }
  run_start_ = Clock::now();
  {
    // reconfigure() gates on started_ under epoch_mutex_; publish it only
    // after the scheduler is fully up so a concurrent reconfigure can never
    // join() a scheduler whose worker threads are still being spawned.
    std::lock_guard lock(epoch_mutex_);
    active_actors_.store(static_cast<int>(epoch_->actors.size()));
    epoch_->scheduler = make_epoch_scheduler();
    epoch_->scheduler->start(*this);
    started_.store(true, std::memory_order_release);
  }
  if (config_.elastic) {
    ReconfigOptions options;
    options.period = config_.reconfig_period;
    options.threshold = config_.reconfig_threshold;
    options.optimize.slo_p99 = config_.slo_p99;
    options.optimize.objective = config_.objective;
    options.optimize.buffer_capacity = config_.mailbox_capacity;
    controller_ = std::make_unique<ReconfigController>(*this, options);
    controller_->start();
  }
  if (checkpoint_mgr_ != nullptr) {
    checkpoint_controller_ =
        std::make_unique<CheckpointController>(*this, config_.checkpoint_period);
    checkpoint_controller_->start();
  }
  if (profiler_) profiler_->start();
  if (stats_server_) stats_server_->start();
  if (exporter_) exporter_->start();
}

void Engine::join_execution() {
  std::lock_guard lock(epoch_mutex_);
  if (epoch_ && epoch_->scheduler) epoch_->scheduler->join();
}

RunStats Engine::finalize_run() {
  if (stats_server_) stats_server_->stop();
  if (profiler_) profiler_->stop();  // final fold before the exporter's last line
  if (exporter_) exporter_->stop();  // final sample while the epoch is alive
  std::uint64_t dropped = dropped_prior_epochs_;
  for (const auto& actor : epoch_->actors) dropped += actor->mailbox.dropped();
  {
    std::lock_guard lock(failure_mutex_);
    require(first_failure_.empty(), "engine run failed: " + first_failure_);
  }
  RunStats stats;
  stats.dropped = dropped;
  return stats;
}

void Engine::stop_run() {
  if (controller_) controller_->stop();  // an in-flight switch-over completes
  // Joined before the stop flag rises (and before epoch_mutex_ is taken —
  // its thread may be inside checkpoint_now holding it): an in-flight
  // snapshot always completes or aborts cleanly.
  if (checkpoint_controller_) checkpoint_controller_->stop();
  std::lock_guard lock(epoch_mutex_);
  stop_.store(true);
}

void Engine::request_stop() {
  // Raising stop before the run starts is legal: the run then drains
  // immediately (sources see the stop flag on their first step).  That
  // closes the race between a hot retire and the tenant's runner thread
  // still being inside start_execution().
  stop_run();
}

std::vector<int> Engine::replica_counts() const {
  std::vector<int> replicas(topology_.num_operators(), 1);
  std::lock_guard lock(epoch_mutex_);
  if (!epoch_) return replicas;
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    replicas[i] = epoch_->deployment.replication.replicas_of(static_cast<OpIndex>(i));
  }
  return replicas;
}

RunStats Engine::run_for(std::chrono::duration<double> duration) {
  start_execution();
  const double total = duration.count();
  const double warmup = total * config_.warmup_fraction;
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup));
  reset_queue_peaks();  // high-water marks measure the window, not warmup
  const CounterSnapshot begin = board_.open_window(seconds_between(run_start_, Clock::now()));
  std::this_thread::sleep_for(std::chrono::duration<double>(total - warmup));
  CounterSnapshot end = board_.close_window(seconds_between(run_start_, Clock::now()));
  fill_queue_stats(end);
  stop_run();
  join_execution();
  write_final_checkpoint();
  const double wall = seconds_between(run_start_, Clock::now());
  const CounterSnapshot final_totals = board_.snapshot(wall);
  const RunStats partial = finalize_run();
  const LatencyReport latency = board_.latency_report();
  const std::vector<int> replicas = replica_counts();
  RunStats stats = make_run_stats(topology_, begin, end, final_totals, wall,
                                  partial.dropped, &latency, &replicas);
  stats.epochs = epochs();
  stats.reconfigurations = stats.epochs - 1;
  stats.keys_migrated = keys_migrated_.load(std::memory_order_relaxed);
  stats.scheduler = scheduler_counters();
  stats.predicted = predicted_latency();
  stats.checkpoints_written = checkpoints_written();
  stats.last_epoch_persisted = last_epoch_persisted();
  stats.recovered_from_epoch = recovered_from_epoch_;
  if (profiler_) {
    stats.has_profile = true;
    stats.profile = profiler_->snapshot();
    stats.bottlenecks = profiler_->bottlenecks();
  }
  return stats;
}

RunStats Engine::run_until_complete(std::chrono::duration<double> max_duration) {
  start_execution();
  // Finite runs meter every tuple: the window spans the whole run.
  const CounterSnapshot begin = board_.open_window(0.0);
  {
    std::unique_lock lock(done_mutex_);
    done_cv_.wait_for(lock, max_duration, [this] {
      return active_actors_.load() == 0 &&
             !swap_in_progress_.load(std::memory_order_acquire);
    });
  }
  stop_run();  // natural completion: a no-op beyond stopping the controller
  join_execution();
  write_final_checkpoint();
  const double wall = seconds_between(run_start_, Clock::now());
  CounterSnapshot end = board_.close_window(wall);
  fill_queue_stats(end);
  const RunStats partial = finalize_run();
  const LatencyReport latency = board_.latency_report();
  const std::vector<int> replicas = replica_counts();
  RunStats stats =
      make_run_stats(topology_, begin, end, end, wall, partial.dropped, &latency, &replicas);
  stats.epochs = epochs();
  stats.reconfigurations = stats.epochs - 1;
  stats.keys_migrated = keys_migrated_.load(std::memory_order_relaxed);
  stats.scheduler = scheduler_counters();
  stats.predicted = predicted_latency();
  stats.checkpoints_written = checkpoints_written();
  stats.last_epoch_persisted = last_epoch_persisted();
  stats.recovered_from_epoch = recovered_from_epoch_;
  if (profiler_) {
    stats.has_profile = true;
    stats.profile = profiler_->snapshot();
    stats.bottlenecks = profiler_->bottlenecks();
  }
  return stats;
}

}  // namespace ss::runtime
