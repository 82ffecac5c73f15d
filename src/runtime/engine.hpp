// The actor core: builds the actor graph of a deployment, dispatches
// messages to operator logic, measures steady-state rates, and drains the
// topology deterministically on stop.  *How* actors get CPU time is
// delegated to a Scheduler (scheduler.hpp): one dedicated thread per actor
// (the configuration the paper evaluates in §5.1, the default) or a shared
// worker pool multiplexing N actors onto K workers.
//
// A running actor graph is an *epoch*: the instantiation of one Deployment
// (actors, mailboxes, routing targets, scheduler).  reconfigure() switches
// epochs without losing a tuple — a fence token flows the channel barrier
// (the generalization of the shutdown protocol), every actor quiesces at a
// tuple boundary and retires with its state intact, the source buffers
// (bounded) instead of stopping, unchanged actors carry over whole and the
// key state of changed partitioned operators migrates to its new owners,
// then a fresh scheduler resumes the graph.  EngineConfig::elastic runs a
// ReconfigController (controller.hpp) that drives this loop from measured
// rates.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/topology.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/clock.hpp"
#include "runtime/controller.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/metrics.hpp"
#include "runtime/operator.hpp"
#include "runtime/plan.hpp"
#include "runtime/routing.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/telemetry.hpp"

namespace ss::runtime {

class SchedulerHost;
class ProfileEstimator;  // profiler.hpp
class StatsServer;       // stats_server.hpp

struct EngineConfig {
  /// Mailbox capacity of every actor (Akka BoundedMailbox equivalent).
  std::size_t mailbox_capacity = 64;
  /// Blocking-send timeout after which an item is dropped; the paper uses
  /// five seconds, far above any service time, so drops never happen.
  std::chrono::duration<double> send_timeout{5.0};
  /// Fraction of a run_for() duration treated as warmup before the
  /// steady-state measurement window opens.
  double warmup_fraction = 0.3;
  /// Seed for routing/selection randomness.
  std::uint64_t seed = 42;
  /// When true, the emitter of a partitioned-stateful operator samples the
  /// tuple key from the operator's key distribution (synthetic workloads);
  /// when false the tuple's own key is hashed through the partition map.
  bool assign_keys_at_emitter = true;
  /// Full-mailbox behaviour: backpressure (default, what the cost models
  /// assume) or load shedding (drop-newest; an alternative §2 discusses).
  OverflowPolicy overflow = OverflowPolicy::kBlockAfterService;
  /// Queue engine behind every mailbox: the lock-free MPSC ring fast path
  /// (default) or the mutex-guarded two-queue baseline (--mailbox=mutex,
  /// kept for A/B comparison).  Semantics are identical either way.
  MailboxKind mailbox = MailboxKind::kRing;
  /// Worker-to-CPU pinning of the pooled scheduler (--pin).  Ignored under
  /// kThreadPerActor; best-effort (warns and continues unpinned when CPU
  /// affinity is unavailable).
  PinMode pin = PinMode::kNone;
  /// When true, collectors of replicated operators release results in the
  /// order the inputs entered the emitter (paper §2: "proper approaches
  /// for item scheduling and collection, to preserve the sequential
  /// ordering").  Costs one marker message per input item.
  bool preserve_replica_order = false;
  /// Execution backend: dedicated thread per actor (paper-faithful
  /// default) or a shared worker pool.
  SchedulerKind scheduler = SchedulerKind::kThreadPerActor;
  /// Worker threads of the pooled scheduler; <= 0 means one per hardware
  /// thread.  Ignored under kThreadPerActor.
  int workers = 0;
  /// Messages a pooled worker drains per actor claim — the whole batch
  /// costs one mailbox lock acquisition (Mailbox::drain).  <= 0 means the
  /// default of 64.  Ignored under kThreadPerActor.
  int pool_batch = 0;
  /// Elastic re-deployment: run a ReconfigController that samples measured
  /// rates every `reconfig_period` seconds, re-runs Algorithms 1-3 on them
  /// and switches epochs when the predicted throughput gain exceeds
  /// `reconfig_threshold` (relative; 0.10 = 10%).
  bool elastic = false;
  double reconfig_period = 0.5;
  double reconfig_threshold = 0.10;
  /// End-to-end p99 latency SLO in seconds (0 = none).  With `elastic`
  /// set, the controller meters end-to-end latency from the start of the
  /// run, feeds the measured windowed p99 into reoptimize(), and
  /// re-deploys on SLO breach even when the throughput gain alone would
  /// not justify a fence (the repair path adds replicas past ceil(rho) to
  /// drain queueing delay).
  double slo_p99 = 0.0;
  /// Objective handed to the controller's re-optimization (and recorded in
  /// the predictions attached to RunStats / metrics lines).
  Objective objective = Objective::kThroughput;
  /// When non-empty, a MetricsExporter appends one JSON metrics snapshot
  /// per line to this file every `metrics_period` seconds (rates, measured
  /// ρ, blocked fraction, queue depths, latency percentiles, scheduler
  /// counters).  Busy/blocked metering is then enabled for the whole run,
  /// not only the steady-state window.
  std::string metrics_path;
  double metrics_period = 0.5;
  /// Epoch checkpointing (checkpoint.hpp): when `checkpoint_dir` is
  /// non-empty, a CheckpointController snapshots the quiesced graph every
  /// `checkpoint_period` seconds through the fence barrier, keeping the
  /// last `checkpoint_retain` snapshots.  The directory is created and
  /// probed at construction — an unusable path throws before the run
  /// starts.  A successful run additionally writes `final.bin` with the
  /// complete end-of-run state.
  std::string checkpoint_dir;
  double checkpoint_period = 1.0;
  int checkpoint_retain = CheckpointManager::kDefaultRetain;
  /// Crash recovery: restore this checkpoint before the run starts — the
  /// deployment argument is replaced by the checkpoint's, operator state
  /// and rng lanes are restored, and sources rewind (skip) to the recorded
  /// offsets so the run resumes the exact uninterrupted stream.
  std::shared_ptr<const Checkpoint> recover_from;
  /// Online profile estimation (runtime/profiler.hpp): when telemetry is
  /// on (elastic runs, metrics-exporting runs, --stats-port runs), a
  /// ProfileEstimator reconstructs non-blocking service rates from busy
  /// slices and queue-occupancy probes and attributes backpressure to its
  /// root cause.  `profile = false` turns the estimator off (A/B
  /// baseline; the elastic controller then falls back to busy-time rates).
  bool profile = true;
  /// Fold cadence of the estimator, seconds; multiplied by the tenant
  /// count when several engines share one SchedulerHost.
  double profile_period = 0.25;
  /// Live stats endpoint: serve Prometheus text (/metrics) and a JSON
  /// snapshot (/stats.json) on 127.0.0.1:<stats_port> for the duration of
  /// the run.  0 = off; an unusable port throws before the run starts.
  int stats_port = 0;
  /// Multi-tenant execution: when set, this engine does not own a worker
  /// pool — every epoch registers its actors as a tenant of the shared
  /// host (scheduler_host.hpp) and `scheduler`/`workers`/`pool_batch` are
  /// ignored.  The host must outlive the engine's run.
  SchedulerHost* host = nullptr;
  /// Tenant label: tags this engine's trace events and metrics lines, and
  /// names it in the host's telemetry.  Empty = untagged (single-tenant).
  std::string tenant;
  /// Stride-scheduling weight of this tenant on the shared host (> 0);
  /// relative CPU share against the other tenants when all stay ready.
  double tenant_weight = 1.0;
};

/// Produces the processing logic of each logical operator.
struct AppFactory {
  std::function<std::unique_ptr<SourceLogic>(OpIndex, const OperatorSpec&)> source;
  std::function<std::unique_ptr<OperatorLogic>(OpIndex, const OperatorSpec&)> logic;
};

/// Factory realizing every operator synthetically from its profiled spec
/// (timed-wait service, statistical selectivity).  `max_items < 0` means an
/// unbounded source cut off by the run duration.
AppFactory synthetic_factory(double time_scale = 1.0, std::int64_t max_items = -1);

class Engine final : public EngineCore {
 public:
  Engine(const Topology& t, Deployment deployment, AppFactory factory, EngineConfig config = {});
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs for `duration`, measuring rates in the post-warmup window, then
  /// stops the source and drains.  Callable once per Engine instance.
  /// If any operator logic threw, the run is aborted and the first error
  /// is rethrown as ss::Error after all threads joined.
  RunStats run_for(std::chrono::duration<double> duration);

  /// Runs until the source ends by itself (finite SourceLogic) or
  /// `max_duration` elapses; measures over the whole run.
  RunStats run_until_complete(std::chrono::duration<double> max_duration);

  /// Switches the running graph to `next` without losing a tuple: fence
  /// tokens quiesce every actor at a tuple boundary (the source keeps
  /// generating into a bounded buffer meanwhile), actors of unchanged
  /// operators carry over with mailboxes and state untouched, the key
  /// state of changed partitioned-stateful operators migrates to its new
  /// owners, and a fresh scheduler resumes.  Returns false — without
  /// switching — when the run has not started, is stopping, or the source
  /// already finished.  Thread-safe against the run's own stop path; at
  /// most one reconfiguration runs at a time.
  bool reconfigure(const Deployment& next);

  /// Takes one checkpoint now: arms the fence barrier, waits for the graph
  /// to quiesce at a tuple boundary, serializes the cut to the checkpoint
  /// directory and resumes the *same* epoch in place (no deployment
  /// change, no epoch bump).  Returns false — without snapshotting — when
  /// checkpointing is off, the run has not started, is stopping, or the
  /// source already finished; also false when the snapshot write failed
  /// (the failure is recorded and surfaces from the run like an operator
  /// exception, but the graph still resumes and drains — a bad disk never
  /// stalls the stream).  Thread-safe, same serialization as reconfigure().
  bool checkpoint_now();

  /// Asks a running engine to stop: sources stop emitting, the pipeline
  /// drains through the shutdown protocol (no tuple in flight is lost),
  /// and the blocked run_until_complete() returns.  The hot-retire hook of
  /// multi-tenant groups (tenants.hpp); safe from any thread, idempotent.
  /// Called before the run starts, the run drains immediately on start.
  void request_stop();

  [[nodiscard]] const Topology& topology() const { return topology_; }
  /// The deployment of the current epoch (by value: the epoch may swap).
  [[nodiscard]] Deployment deployment() const;
  [[nodiscard]] const ActorGraph& graph() const { return epoch_->graph; }
  /// Counter totals right now — the controller's sampling hook.  Carries
  /// busy/blocked telemetry whenever metering is on (elastic runs and
  /// metrics-exporting runs keep it on end to end).
  [[nodiscard]] CounterSnapshot sample() const;
  /// The shared measurement board — the controller's latency hook
  /// (end_to_end_snapshot / end_to_end_since for windowed p99).
  [[nodiscard]] const StatsBoard& stats_board() const { return board_; }
  /// Model predictions (Alg. 1 + estimate_latency) for the deployment of
  /// the current epoch; recomputed at every switch-over.
  [[nodiscard]] PredictedLatency predicted_latency() const;
  /// Everything the metrics exporter writes per line, cumulative.
  [[nodiscard]] MetricsSample metrics_sample() const;
  /// Work-stealing / batching counters summed over every epoch so far
  /// (all zero under thread-per-actor).
  [[nodiscard]] SchedulerCounters scheduler_counters() const;
  /// Epochs this engine has run (1 + completed reconfigurations).
  [[nodiscard]] int epochs() const { return epoch_counter_.load(std::memory_order_relaxed); }
  /// The elastic controller, when EngineConfig::elastic is set and the run
  /// started; its decision log outlives the run.
  [[nodiscard]] const ReconfigController* controller() const { return controller_.get(); }
  /// Snapshots persisted this run (zero with checkpointing off).
  [[nodiscard]] std::uint64_t checkpoints_written() const {
    return checkpoints_written_.load(std::memory_order_relaxed);
  }
  /// Engine epoch of the newest persisted snapshot (0 = none yet).
  [[nodiscard]] std::uint64_t last_epoch_persisted() const {
    return last_epoch_persisted_.load(std::memory_order_relaxed);
  }
  /// Epoch the run was restored from (EngineConfig::recover_from; 0 = fresh).
  [[nodiscard]] std::uint64_t recovered_from_epoch() const { return recovered_from_epoch_; }
  /// The checkpoint directory manager (null with checkpointing off).
  [[nodiscard]] const CheckpointManager* checkpoint_manager() const {
    return checkpoint_mgr_.get();
  }
  /// The online profile estimator (null when EngineConfig::profile is off
  /// or the run carries no telemetry); the controller's estimate hook.
  [[nodiscard]] const ProfileEstimator* profiler() const { return profiler_.get(); }

 private:
  struct ActorState;

  /// One instantiation of a Deployment: the actors and the scheduler that
  /// runs them.  reconfigure() builds the next epoch from the previous one
  /// (carrying unchanged actors over, migrating key state) and swaps.
  struct EpochState {
    Deployment deployment;
    ActorGraph graph;
    std::vector<std::unique_ptr<ActorState>> actors;
    std::unique_ptr<Scheduler> scheduler;
  };

  // --- EngineCore: the surface the scheduler drives
  std::size_t num_actors() const override { return epoch_->actors.size(); }
  bool is_source(std::size_t id) const override;
  Mailbox& mailbox(std::size_t id) override;
  StepResult step(std::size_t id, std::size_t max_messages) override;
  void actor_done(std::size_t id) override;

  // --- the pieces of one step
  /// Source step: emits one quantum; finishes at end-of-stream or stop
  /// (delivering what the fence buffer still holds), retires at a fence.
  StepResult source_step(std::size_t id);
  /// Non-source step: drains at most `max_messages` without blocking and
  /// dispatches them inside one output stage and one metering slice.
  StepResult drain_step(std::size_t id, std::size_t max_messages);
  /// Emits up to one quantum of source items; returns false when the
  /// source ended or the run was stopped (the finish epilogue is due).
  bool pump_source(std::size_t id);
  /// Dispatches one data/seq-mark/fence message to the actor's logic.
  void process_message(std::size_t id, Message& m);
  /// Output staging around one step: consecutive same-destination
  /// emissions of the step coalesce into a cache-aligned MessageBatch
  /// handed to the destination mailbox as one unit (try_send_batch).  The
  /// flush runs before the step returns, so staged data never waits out
  /// an idle mailbox and never lets a token sent afterwards overtake it.
  void begin_output_batch();
  void flush_output_batch();
  /// Batch-granularity utilization metering: the whole step is timed as
  /// ONE busy slice (two clock reads per step instead of two per message)
  /// and the per-message metering inside process_message() is suppressed.
  /// begin returns false — and end must then be skipped — when nothing
  /// was opened (metering off, or the actor's busy time is charged per
  /// logical member as for fused meta groups).
  bool begin_batch_meter(std::size_t id);
  void end_batch_meter();
  /// Runs the finish epilogue (reporting a failure it throws) and returns
  /// the step's kFinished result.
  StepResult finish(std::size_t id, std::size_t drained);
  /// Flushes logic state and propagates end-of-stream tokens downstream.
  void finish_actor(std::size_t id);
  /// Records the first failure, stops the run and unblocks neighbours so
  /// the drain completes; the engine rethrows after the run.
  void report_failure(std::size_t id, const std::string& what);

  /// Instantiates `deployment` as a new epoch.  `prev` (when non-null) is
  /// the quiesced previous epoch: actors of operators unchanged per `diff`
  /// are moved over whole, changed partitioned-stateful operators get
  /// fresh logic with per-key state migrated in.
  std::unique_ptr<EpochState> build_epoch(Deployment deployment, ActorGraph graph,
                                          EpochState* prev, const DeploymentDiff* diff);
  /// Instantiates fresh logic (and emitter routing state) for one actor.
  void init_actor_logic(ActorState& state, const ActorSpec& spec,
                        const Deployment& deployment);
  /// Moves per-key state of changed partitioned operators from `prev` into
  /// the new epoch's logic instances.
  void migrate_state(EpochState& next, EpochState& prev, const DeploymentDiff& diff);

  /// The execution backend of one epoch: a scheduler of `config_.scheduler`
  /// kind, or — multi-tenant — a tenant registration on `config_.host`.
  std::unique_ptr<Scheduler> make_epoch_scheduler();
  void start_execution();
  void join_execution();
  /// Stops the controller (an in-flight switch-over completes first), then
  /// raises the stop flag under the epoch lock so no new switch-over starts.
  void stop_run();
  /// Next item for the source actor: replays the fence buffer of the
  /// previous epoch first, then pulls from the SourceLogic.
  bool next_source_item(ActorState& st, Tuple& tuple);
  /// Source-side fence: forwards fence tokens downstream, keeps generating
  /// into the bounded fence buffer while the rest of the graph drains, and
  /// retires once the switch-over releases it.
  void source_fence(std::size_t id);
  /// A fence token arrived on one input channel of `id`.
  void on_fence_token(std::size_t id);
  /// `id` passed the fence: forward tokens downstream, retire, count.
  void pass_fence(std::size_t id);
  /// Counts `id` toward fence completion exactly once (fence_mutex_ held).
  void count_fence_locked(ActorState& st);
  /// Seconds since the run started (the time base of Tuple::ts stamps).
  // metering_now: this stamp feeds Tuple::ts and every latency/telemetry
  // sample, so the cheap TSC clock keeps the per-tuple cost low (clock.hpp).
  double run_seconds() const { return seconds_between(run_start_, metering_now()); }
  /// Records the source→operator delay of a data message about to be
  /// processed (steady-state window only; no-op while metering is off).
  /// The overload taking `now` shares the caller's clock read (the busy
  /// metering around the logic dispatch already read it).
  void meter_arrival(OpIndex op, const Message& msg);
  void meter_arrival(OpIndex op, const Message& msg, Clock::time_point now);
  /// Fills the per-op queue depth / high-water columns of a snapshot from
  /// the live mailboxes (takes the epoch lock; peaks fold prior epochs).
  void fill_queue_stats(CounterSnapshot& snap) const;
  /// Per-op replica counts of the current epoch (ρ normalization).
  std::vector<int> replica_counts() const;
  /// Restarts every mailbox's high-water tracking (window open).
  void reset_queue_peaks();
  /// Records the end-to-end delay of a tuple leaving the system at a sink.
  void meter_exit(const Tuple& tuple);
  /// Serializes the quiesced graph (epoch_mutex_ held, scheduler joined or
  /// never started): deployment, source offsets, rng lanes, logic blobs.
  Checkpoint capture_checkpoint();
  /// Restores `cp` into the freshly built epoch (constructor only): rng
  /// lanes, emitter cursors, logic state, source rewind to the offsets.
  void apply_recovery(const Checkpoint& cp);
  /// End-of-run state snapshot (dir/final.bin) after a clean drain; no-op
  /// with checkpointing off or after a failure.
  void write_final_checkpoint();
  RunStats finalize_run();
  bool send_to_actor(int actor_id, const Message& m);
  /// Appends a data message to the calling thread's output stage when one
  /// is armed for this engine (consecutive same-destination messages leave
  /// as one MessageBatch).  `count_emit` marks deliveries that should be
  /// counted as emissions of `m.from` at flush time.  Returns false when
  /// no stage is armed — the caller delivers directly.
  bool stage_message(int actor_id, const Message& m, bool count_emit);
  /// Delivers the calling thread's staged batch (Mailbox::try_send_batch
  /// fast path, per-message blocking deliver for the remainder).  Called
  /// on every path that sends a control token so data never overtakes.
  void flush_stage();
  /// Routes a result of logical operator `op` (explicit `target` or
  /// probabilistic when kInvalidOp) and delivers it; returns true when the
  /// result was delivered (or absorbed at a sink edge).
  bool route_result(OpIndex op, OpIndex target, const Tuple& tuple, Rng& rng);
  void run_meta(std::size_t id, OpIndex member, const Tuple& tuple, OpIndex from);
  void release_ordered(ActorState& st);
  ActorState& actor(std::size_t id) { return *epoch_->actors[id]; }
  const ActorState& actor(std::size_t id) const { return *epoch_->actors[id]; }

  class RouteCollector;
  class ReplicaCollector;
  class MetaCollector;

  Topology topology_;
  AppFactory factory_;
  EngineConfig config_;
  StatsBoard board_;
  /// Busy/blocked-time accumulators, attached to board_ so snapshots and
  /// the window gate cover counters, latency and telemetry together.
  TelemetryBoard telemetry_;
  std::vector<EdgeRouter> routers_;  // per logical operator (epoch-invariant)
  Rng master_rng_;                   ///< split per actor at epoch build
  std::unique_ptr<EpochState> epoch_;
  /// Predictions for epoch_'s deployment (epoch_mutex_; see
  /// predicted_latency()).
  PredictedLatency predicted_;
  std::unique_ptr<ReconfigController> controller_;
  // --- epoch checkpointing (EngineConfig::checkpoint_dir)
  std::unique_ptr<CheckpointManager> checkpoint_mgr_;
  std::unique_ptr<CheckpointController> checkpoint_controller_;
  /// Per-source items already replayed before this run (recovery rewind);
  /// the checkpointed offset is base + items delivered this run.
  std::vector<std::uint64_t> source_base_offset_;
  std::atomic<std::uint64_t> checkpoints_written_{0};
  std::atomic<std::uint64_t> last_epoch_persisted_{0};
  std::uint64_t recovered_from_epoch_ = 0;
  /// JSONL metrics writer (EngineConfig::metrics_path); declared after
  /// epoch_ so its stop() (final sample) runs before the epoch dies.
  std::unique_ptr<MetricsExporter> exporter_;
  /// Online profile estimator (EngineConfig::profile + telemetry on);
  /// registered as the telemetry board's BlockedEdgeSink while running.
  std::unique_ptr<ProfileEstimator> profiler_;
  /// Live stats endpoint (EngineConfig::stats_port); declared after the
  /// members its request sampler reads.
  std::unique_ptr<StatsServer> stats_server_;
  std::atomic<bool> stop_{false};
  std::atomic<int> active_actors_{0};
  std::mutex failure_mutex_;
  std::string first_failure_;  ///< first actor exception message, if any
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  Clock::time_point run_start_{};
  std::atomic<bool> started_{false};
  /// Interned EngineConfig::tenant for trace tagging (nullptr = untagged).
  const char* tenant_tag_ = nullptr;

  // --- epoch switch-over (reconfigure)
  /// Serializes reconfigure() against the run's stop path: stop never
  /// interrupts a switch-over halfway and a switch-over never starts once
  /// the run is stopping.  Mutable: deployment() is a const observer.
  mutable std::mutex epoch_mutex_;
  /// True between "old epoch quiesced" and "new epoch started": tells
  /// run_until_complete() that active_actors_ == 0 is not completion.
  std::atomic<bool> swap_in_progress_{false};
  std::atomic<int> epoch_counter_{1};
  std::atomic<std::uint64_t> keys_migrated_{0};
  std::uint64_t dropped_prior_epochs_ = 0;  ///< mailbox drops of replaced actors
  /// Telemetry folded in from epochs that already died (epoch_mutex_):
  /// per-op queue high-water marks and the old schedulers' counters.
  std::vector<std::size_t> queue_peak_prior_;
  SchedulerCounters sched_counters_prior_;
  std::uint64_t ring_enqueues_prior_ = 0;  ///< ring traffic of replaced actors
  std::uint64_t ring_spills_prior_ = 0;

  // --- fence/drain barrier state
  std::atomic<bool> fence_active_{false};
  mutable std::mutex fence_mutex_;  ///< guards the fence counters below
  std::condition_variable fence_cv_;
  std::size_t fence_passed_ = 0;    ///< non-source actors quiesced so far
  std::size_t fence_expected_ = 0;  ///< non-source actors this epoch
  bool fence_release_sources_ = false;  ///< graph quiesced; sources may retire
  /// Items the source generated while a fence was in flight; the next
  /// epoch's source replays them first.  Bounded by mailbox_capacity.
  std::deque<Tuple> fence_buffer_;
  bool source_exhausted_ = false;   ///< SourceLogic::next() returned false mid-fence
  std::atomic<bool> source_finished_{false};  ///< source completed normally
};

}  // namespace ss::runtime
