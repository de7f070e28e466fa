#ifndef DLSYS_SERVE_SERVER_H_
#define DLSYS_SERVE_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/metrics.h"
#include "src/core/status.h"
#include "src/obs/attribution.h"
#include "src/serve/admission.h"
#include "src/serve/registry.h"
#include "src/serve/scheduler.h"
#include "src/serve/slots.h"

/// \file server.h
/// \brief The serving front door: a bounded queue, deadline-aware
/// admission, and SLO-tracked simulated workers over hot-swappable models.
///
/// ## Simulated decisions, real execution
///
/// Every *decision* the server makes — admit or shed, which requests
/// share a batch, which worker runs it, when it starts and finishes —
/// is computed over a simulated clock from the declared ServiceCostModel,
/// never from wall-clock measurements. Every *output* is real: each
/// departed step runs through its snapshot's compiled InferenceEngine on
/// the calling thread. The split buys both halves of the reproducibility
/// story: a fixed arrival sequence replays bit for bit (same sheds, same
/// batches, same versions, same outputs) at any DLSYS_THREADS, while the
/// engine wall time is still measured and reported as an informational
/// metric (`Completion::measured_service_ms`), so benches can compare the
/// model against reality.
///
/// ## Continuous batching
///
/// Each worker owns batch.max_batch request lanes of a SlotPool
/// (src/serve/slots.h). An admitted request queues in the TenantScheduler
/// (src/serve/scheduler.h), which fills a freed lane under priority
/// classes, per-tenant token-bucket quotas and deficit-weighted-fair
/// queueing. An idle worker departs with whatever it has loaded as one
/// engine batch (a step), and a lane freed by a finished step refills the
/// same instant — no waiting for a batch to fill, no drain barrier
/// between batches. batch.max_delay_ms is therefore never consulted.
/// A step never exceeds its snapshot's engine batch ceiling: Publish
/// raises the ceiling to batch.max_batch, and a snapshot published
/// straight into the registry with a lower one fills only that many of
/// a worker's lanes.
/// Every request carries a tenant id ("default" when none is given),
/// which Submit interns once into the scheduler's Tenant record; names
/// are looked up again only by metrics(), tenant_stats() and
/// Completion::tenant.
///
/// ## Version binding and hot swap
///
/// Each admitted request binds the model snapshot current *at admission*
/// (one registry Acquire). A worker's loaded lanes are pinned to one
/// snapshot, so every batch is version-homogeneous: a Publish mid-load
/// never mixes versions inside a batch and never loses a request, and
/// queued requests finish on the snapshot they bound.
///
/// ## Completions and recycled storage
///
/// Finished requests accumulate as Completion records in dispatch order.
/// A caller that only reads completions() keeps every record, and one
/// output tensor per record, for the server's lifetime. A caller that
/// drains them with TakeCompletions hands back the vector it took last
/// time: the server keeps that vector's capacity and its output tensors
/// and writes later outputs into them, so a steady draining loop
/// allocates nothing per request. The server also owns the input rows:
/// Submit copies an admitted example into a row from its free list, and
/// the step that stages the row returns it there.
///
/// ## Threading
///
/// Submit/AdvanceTo/Drain and the accessors form a single-threaded event
/// loop — call them from one thread; every engine call runs inside it.
/// Publish (and the registry) is thread-safe and may run concurrently with
/// serving; that is the hot-swap path test_serve exercises under TSan.

namespace dlsys {

/// \brief Coordinates admission, batching, and execution for all models
/// in a ModelRegistry.
class Server {
 public:
  /// \brief What happened to one submitted request.
  enum class Outcome {
    kAdmitted,
    kShedQueueFull,
    kShedDeadline,
    kShedDraining,
    kNoSuchModel,
    /// The example's size does not match the model's per-example input;
    /// rejected without touching the queue.
    kInvalidRequest,
  };

  /// \brief Submit verdict; \p id is assigned to every offered request,
  /// \p version is the snapshot version the request bound (0 if none).
  struct SubmitResult {
    Outcome outcome = Outcome::kNoSuchModel;
    int64_t id = -1;
    int64_t version = 0;
  };

  /// \brief One finished request, in dispatch order.
  struct Completion {
    int64_t id = 0;
    /// Trace rid: the fleet-global request id when Submit carried a
    /// RequestTrace, else the server-assigned id — the key every sim
    /// span of this request was emitted under.
    int64_t rid = 0;
    std::string model;
    std::string tenant;         ///< normalized tenant id ("default" if none)
    int64_t version = 0;        ///< snapshot version bound at admission
    double arrival_ms = 0.0;    ///< simulated
    /// Simulated time the tenant's quota funded the request, clamped to
    /// [arrival_ms, dispatch_ms] — the quota-delay / slot-wait boundary
    /// of the critical-path decomposition.
    double quota_open_ms = 0.0;
    double dispatch_ms = 0.0;   ///< simulated batch start
    double finish_ms = 0.0;     ///< dispatch + modeled service time
    double deadline_ms = 0.0;   ///< absolute simulated deadline
    int64_t batch_size = 0;     ///< requests sharing the dispatch
    int worker = 0;             ///< simulated worker that ran the step
    int slot = -1;              ///< slot-pool lane that carried it
    bool deadline_missed = false;  ///< finish_ms > deadline_ms
    /// Real wall time of the batch's engine call (informational only;
    /// never feeds scheduling).
    double measured_service_ms = 0.0;
    Tensor output;  ///< real engine output, example_output_shape
  };

  /// \brief Validates \p config and builds a server over \p registry
  /// (borrowed; must outlive the server).
  static Result<std::unique_ptr<Server>> Create(ModelRegistry* registry,
                                                const ServerConfig& config);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// \brief Compiles \p net into a snapshot and publishes it as the next
  /// version of \p model. The engine batch ceiling is raised to the
  /// server's batch.max_batch if \p engine_config declares less.
  /// Thread-safe; may run concurrently with the serving loop (hot swap).
  Result<int64_t> Publish(const std::string& model, const Sequential& net,
                          const Shape& example_shape,
                          const EngineConfig& engine_config = {});

  /// \brief Offers one request at simulated time \p arrival_ms (monotone;
  /// checked). An \p example whose size differs from the model's
  /// per-example input is rejected with Outcome::kInvalidRequest.
  /// \p deadline_budget_ms <= 0 selects config.default_deadline_ms.
  /// \p tenant attributes the request for QoS and accounting; empty maps
  /// to "default".
  ///
  /// Order of operations: process every step completion and quota refill
  /// due strictly before arrival_ms, then decide admission against the
  /// declared cost model (the prediction folds in the tenant's
  /// token-bucket wait and the slot backlog), then (if admitted) enqueue
  /// and process everything due at arrival_ms — so a lane freed exactly
  /// now takes this request.
  ///
  /// \p rtrace, when non-null, is the fleet's request context: every sim
  /// span and instant this request emits is keyed by rtrace->rid instead
  /// of the server-assigned id, and its spans parent under the fleet's
  /// root request span — the distributed-tracing hook.
  SubmitResult Submit(const std::string& model, const Tensor& example,
                      double arrival_ms, double deadline_budget_ms = 0.0,
                      const std::string& tenant = std::string(),
                      const obs::RequestTrace* rtrace = nullptr);

  /// \brief Advances the simulated clock to \p now_ms (monotone; checked),
  /// completing every step due by then and starting the steps the freed
  /// lanes refill.
  void AdvanceTo(double now_ms);

  /// \brief Earliest simulated time of the next event (a step completion,
  /// or a quota refill that can seat a queued request), or -1 when
  /// nothing is in flight or queued. Drives event loops:
  /// `AdvanceTo(max(clock_ms(), NextActionableMs()))`.
  double NextActionableMs() const;

  /// \brief Dispatches and executes everything still queued.
  void Drain();

  /// \brief Marks the server draining (true) or serving (false). While
  /// draining every Submit sheds with Outcome::kShedDraining; queued work
  /// still dispatches, which is the graceful half of a fleet scale-down.
  void SetDraining(bool draining) { draining_ = draining; }
  bool draining() const { return draining_; }

  /// \brief Scales the declared service-cost model by \p scale (>= 0) for
  /// every *future* admission and dispatch decision — how the fleet
  /// stages a gray failure (slow replica) or a slow bad model version on
  /// the simulated clock. Already-dispatched batches keep their stamped
  /// finish times. Deterministic: callers set it at simulated times.
  void SetCostScale(double scale) { cost_scale_ = scale; }
  double cost_scale() const { return cost_scale_; }

  /// \brief Discards every admitted-but-undispatched request — those
  /// queued in the scheduler and those loaded into a lane whose step has
  /// not departed (a crash loses them) — and returns how many died.
  /// Completions are not produced for them; the caller owns the
  /// accounting. Executing steps are untouched.
  int64_t DropQueued();

  /// \brief Admitted-but-undispatched requests (queued plus loaded)
  /// across all models — the load signal fleet routers compare replicas
  /// by.
  int64_t queue_depth() const;

  /// \brief Simulated time the least-busy worker frees up (clock_ms when
  /// idle); the router's backlog tiebreaker.
  double earliest_worker_free_ms() const;

  /// \brief Current simulated time.
  double clock_ms() const { return clock_ms_; }
  /// \brief Every completion not yet taken, in dispatch order.
  const std::vector<Completion>& completions() const { return completions_; }
  /// \brief Moves every completion not yet taken into \p out, in dispatch
  /// order, and leaves completions() empty. Whatever \p out held is the
  /// caller's hand-back: its output tensors go to the server's free list,
  /// where a later step reuses one only if its shape is that step's
  /// output shape, and its capacity serves the next records. Ids keep
  /// counting across takes.
  void TakeCompletions(std::vector<Completion>* out);
  /// \brief Simulated request latency (finish - arrival) distribution.
  const LatencyHistogram& latency_histogram() const { return latency_; }
  /// \brief The underlying registry (for direct Acquire/Publish).
  ModelRegistry* registry() const { return registry_; }
  /// \brief The validated configuration.
  const ServerConfig& config() const { return config_; }

  /// \brief Per-tenant serving tallies; see src/serve/scheduler.h.
  using TenantStats = dlsys::TenantStats;

  /// \brief A copy of every tenant's tallies by normalized tenant name,
  /// in name order.
  std::map<std::string, TenantStats> tenant_stats() const;

  /// \brief The slot pool (size, occupancy and its timeline); never
  /// null.
  const SlotPool* slot_pool() const { return &slots_; }

  /// \brief Counters + latency quantiles under "serve.*" keys:
  /// offered/admitted/no_such_model/deadline_missed/batches, structured
  /// shed reasons as "serve.shed.<reason>" (queue_full /
  /// deadline_infeasible / draining), malformed requests as
  /// "serve.rejected.bad_shape", per-model
  /// "serve.<model>.served_v<N>", simulated latency under
  /// "serve.latency.*", real engine wall time under "serve.measured.*",
  /// and per-tenant "serve.tenant.<name>.*" tallies with
  /// "serve.tenant.<name>.latency.*" quantiles.
  MetricsReport metrics() const;

 private:
  Server(ModelRegistry* registry, const ServerConfig& config);

  /// The declared cost model with the current fault scale applied.
  ServiceCostModel ScaledCost() const;

  /// The next event after \p cursor_ms: the earliest in-flight step
  /// completion, or the earliest strictly-later quota refill that could
  /// seat a queued request; infinity when there is none.
  double NextEventMs(double cursor_ms) const;
  /// The event loop: processes step completions and quota refills in
  /// simulated-time order, strictly before \p limit_ms when \p strict,
  /// else at or before it.
  void RunUntil(double limit_ms, bool strict);
  /// Refills free lanes from the scheduler and starts steps on idle
  /// workers at \p now_ms, until the pool is saturated.
  void RefillAndStart(double now_ms);
  /// Departs \p worker's loaded lanes as one engine batch at \p now_ms:
  /// runs it on the calling thread, returns its input rows to the free
  /// list and records its completions.
  void StartStep(int worker, double now_ms);

  ModelRegistry* registry_;
  ServerConfig config_;

  double clock_ms_ = 0.0;
  int64_t next_id_ = 0;
  bool draining_ = false;
  double cost_scale_ = 1.0;
  std::vector<double> worker_free_ms_;

  // The tenant scheduler owns every tenant record (policy, queued
  // requests, quota and DWFQ state, tallies), the pool tracks lane
  // states, loaded_[w] holds the requests bound to worker w's loaded
  // lanes in load order, and fill_order_ is RefillAndStart's reused
  // worker ordering.
  TenantScheduler scheduler_;
  SlotPool slots_;
  std::vector<std::vector<SlotRequest>> loaded_;
  std::vector<int> fill_order_;

  std::vector<Completion> completions_;
  // Storage handed back for reuse: input rows returned by StartStep once
  // staged, output tensors returned through TakeCompletions.
  std::vector<std::vector<float>> free_rows_;
  std::vector<Tensor> free_outputs_;
  LatencyHistogram latency_;
  LatencyHistogram measured_;
  // Offered, admitted, shed and deadline-missed requests are tallied per
  // tenant only; metrics() sums the records.
  int64_t dropped_queued_ = 0;
  int64_t no_such_model_ = 0;
  int64_t rejected_bad_shape_ = 0;
  int64_t batches_ = 0;
  /// served request count per (model, version)
  std::map<std::string, std::map<int64_t, int64_t>> served_;
};

}  // namespace dlsys

#endif  // DLSYS_SERVE_SERVER_H_
