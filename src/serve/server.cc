#include "src/serve/server.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "src/obs/counters.h"
#include "src/obs/trace.h"

namespace dlsys {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Bumps one per-tenant tally and the registry counter mirroring it (a
/// no-op under DLSYS_OBS=OFF, where the handle is null).
void Tally(int64_t* stat, obs::Counter* counter) {
  ++*stat;
#if DLSYS_OBS
  counter->Add(1);
#else
  (void)counter;
#endif
}
}  // namespace

Result<std::unique_ptr<Server>> Server::Create(ModelRegistry* registry,
                                               const ServerConfig& config) {
  if (registry == nullptr) {
    return Status::InvalidArgument("registry must be non-null");
  }
  DLSYS_RETURN_NOT_OK(ValidateServerConfig(config));
  return std::unique_ptr<Server>(new Server(registry, config));
}

Server::Server(ModelRegistry* registry, const ServerConfig& config)
    : registry_(registry),
      config_(config),
      worker_free_ms_(static_cast<size_t>(config.workers), 0.0),
      scheduler_(config.scheduler),
      slots_(config.workers, static_cast<int>(config.batch.max_batch)),
      loaded_(static_cast<size_t>(config.workers)),
      fill_order_(static_cast<size_t>(config.workers)) {
  std::iota(fill_order_.begin(), fill_order_.end(), 0);
}

Result<int64_t> Server::Publish(const std::string& model,
                                const Sequential& net,
                                const Shape& example_shape,
                                const EngineConfig& engine_config) {
  EngineConfig ec = engine_config;
  // A step never exceeds its snapshot's ceiling, so raise it to the lane
  // count: every snapshot compiled here fills every lane.
  if (ec.max_batch < config_.batch.max_batch) {
    ec.max_batch = config_.batch.max_batch;
  }
  auto snap = CompileSnapshot(net, example_shape, ec);
  if (!snap.ok()) return snap.status();
  return registry_->Publish(model, std::move(snap).value());
}

Server::SubmitResult Server::Submit(const std::string& model,
                                    const Tensor& example, double arrival_ms,
                                    double deadline_budget_ms,
                                    const std::string& tenant,
                                    const obs::RequestTrace* rtrace) {
  DLSYS_CHECK(arrival_ms >= clock_ms_, "Submit arrivals must be monotone");
  // Work due strictly before this arrival happens first; a step
  // completion or quota refill landing exactly at arrival_ms instead
  // waits for the non-strict pass below, so the lane it frees can seat
  // this request.
  RunUntil(arrival_ms, /*strict=*/true);
  clock_ms_ = arrival_ms;

  // The request's only tenant-name lookup; everything after reaches the
  // record through this reference or SlotRequest::tenant.
  static const std::string kDefaultTenant = "default";
  Tenant& record = scheduler_.Intern(tenant.empty() ? kDefaultTenant : tenant);
  TenantStats& ts = record.stats;

  SubmitResult result;
  result.id = next_id_++;
  // All sim-track events of this request key on the fleet rid when the
  // caller threads one through, so the exported trace stitches router-
  // and replica-side spans of one request under one id.
  const int64_t trace_rid =
      rtrace != nullptr && rtrace->rid >= 0 ? rtrace->rid : -1;
  [[maybe_unused]] const int64_t erid =
      trace_rid >= 0 ? trace_rid : result.id;
  Tally(&ts.offered, record.counters.offered);
  DLSYS_COUNTER_ADD("serve.offered", 1);

  std::shared_ptr<ModelSnapshot> snap = registry_->Acquire(model);
  if (snap == nullptr) {
    ++no_such_model_;
    DLSYS_COUNTER_ADD("serve.no_such_model", 1);
    result.outcome = Outcome::kNoSuchModel;
    return result;
  }
  if (example.size() != snap->in_elems) {
    // A malformed request is the client's error, not the server's: turn
    // it away without touching the queue.
    ++rejected_bad_shape_;
    DLSYS_COUNTER_ADD("serve.rejected.bad_shape", 1);
    DLSYS_TRACE_INSTANT_SIM("serve.rejected.bad_shape", "serve", arrival_ms,
                            erid);
    result.outcome = Outcome::kInvalidRequest;
    return result;
  }
  result.version = snap->version;

  const double budget = deadline_budget_ms > 0.0 ? deadline_budget_ms
                                                 : config_.default_deadline_ms;

  // The backlog is everything queued or loaded. The request can start no
  // earlier than its tenant's quota opens, and no earlier than the
  // backlog clears at the pool's steady drain rate (workers * lanes
  // requests per full step). A step carries at most the live snapshot's
  // engine batch ceiling (RefillAndStart stops loading there), so the
  // lanes a step fills are the smaller of the two. The prediction is
  // biased optimistic, so sheds under-trigger rather than over-trigger.
  const int64_t lanes =
      std::min(config_.batch.max_batch, snap->engine_config.max_batch);
  const int64_t backlog = queue_depth();
  AdmissionInputs in;
  in.queue_capacity = config_.queue_capacity;
  in.cost = ScaledCost();
  in.arrival_ms = arrival_ms;
  in.deadline_budget_ms = budget;
  in.draining = draining_;
  in.queue_depth = backlog;
  in.prospective_batch = std::min<int64_t>(lanes, backlog + 1);
  in.batch_ready_ms =
      std::max(arrival_ms, scheduler_.QuotaBacklogMs(record, arrival_ms));
  const double step_ms = EstimateServiceMs(in.cost, lanes);
  const double backlog_ms =
      step_ms > 0.0 ? static_cast<double>(backlog) * step_ms /
                          (static_cast<double>(config_.workers) *
                           static_cast<double>(lanes))
                    : 0.0;
  in.earliest_worker_free_ms = earliest_worker_free_ms() + backlog_ms;

  switch (DecideAdmission(in)) {
    case AdmissionDecision::kShedQueueFull:
      Tally(&ts.shed_queue_full, record.counters.shed_queue_full);
      DLSYS_COUNTER_ADD("serve.shed.queue_full", 1);
      DLSYS_TRACE_INSTANT_SIM("serve.shed.queue_full", "serve", arrival_ms,
                              erid);
      result.outcome = Outcome::kShedQueueFull;
      return result;
    case AdmissionDecision::kShedDeadline:
      Tally(&ts.shed_deadline, record.counters.shed_deadline);
      DLSYS_COUNTER_ADD("serve.shed.deadline_infeasible", 1);
      DLSYS_TRACE_INSTANT_SIM("serve.shed.deadline_infeasible", "serve",
                              arrival_ms, erid);
      result.outcome = Outcome::kShedDeadline;
      return result;
    case AdmissionDecision::kShedDraining:
      Tally(&ts.shed_draining, record.counters.shed_draining);
      DLSYS_COUNTER_ADD("serve.shed.draining", 1);
      DLSYS_TRACE_INSTANT_SIM("serve.shed.draining", "serve", arrival_ms,
                              erid);
      result.outcome = Outcome::kShedDraining;
      return result;
    case AdmissionDecision::kAdmit:
      break;
  }

  Tally(&ts.admitted, record.counters.admitted);
  DLSYS_COUNTER_ADD("serve.admitted", 1);
  DLSYS_TRACE_INSTANT_SIM("serve.admit", "serve", arrival_ms, erid);

  SlotRequest req;
  req.id = result.id;
  req.trace_rid = trace_rid;
  req.tenant = &record;
  req.arrival_ms = arrival_ms;
  req.deadline_ms = arrival_ms + budget;
  if (!free_rows_.empty()) {
    req.input = std::move(free_rows_.back());
    free_rows_.pop_back();
  }
  req.input.assign(example.data(), example.data() + snap->in_elems);
  req.snap = std::move(snap);
  scheduler_.Enqueue(std::move(req));
  // Seat the request immediately if a lane is free (or frees exactly
  // now), and let idle workers depart with whatever is loaded.
  RunUntil(arrival_ms, /*strict=*/false);
  result.outcome = Outcome::kAdmitted;
  return result;
}

ServiceCostModel Server::ScaledCost() const {
  ServiceCostModel cost = config_.cost;
  cost.fixed_ms *= cost_scale_;
  cost.per_example_ms *= cost_scale_;
  return cost;
}

int64_t Server::DropQueued() {
  const int64_t dropped = scheduler_.DropAll() + slots_.DropLoaded(clock_ms_);
  for (std::vector<SlotRequest>& lanes : loaded_) lanes.clear();
  dropped_queued_ += dropped;
  if (dropped > 0) {
    DLSYS_COUNTER_ADD("serve.dropped_queued", dropped);
    DLSYS_TRACE_INSTANT_SIM("serve.drop_queued", "serve", clock_ms_, -1);
  }
  return dropped;
}

int64_t Server::queue_depth() const {
  return scheduler_.depth() + slots_.TotalLoaded();
}

double Server::earliest_worker_free_ms() const {
  const double free =
      *std::min_element(worker_free_ms_.begin(), worker_free_ms_.end());
  return std::max(free, clock_ms_);
}

void Server::AdvanceTo(double now_ms) {
  DLSYS_CHECK(now_ms >= clock_ms_, "AdvanceTo must be monotone");
  RunUntil(now_ms, /*strict=*/false);
  clock_ms_ = now_ms;
}

double Server::NextEventMs(double cursor_ms) const {
  // In-flight steps complete at their modeled finish times; each
  // completion frees lanes and may start the worker's next step.
  double next = kInf;
  bool any_free_lane = false;
  for (int w = 0; w < config_.workers; ++w) {
    if (slots_.ExecutingCount(w) > 0) next = std::min(next, worker_free_ms_[w]);
    if (slots_.FreeLanes(w) > 0) any_free_lane = true;
  }
  // A quota refill strictly in the future can unblock a queued request.
  // Anything eligible *now* is already seated (RunUntil leaves the pool
  // saturated), so a refill at or before the cursor is not an event; and
  // if free lanes exist only behind a worker's snapshot pin or its batch
  // ceiling, that worker is necessarily executing, so a completion event
  // already covers progress.
  if (scheduler_.depth() > 0 && any_free_lane) {
    const double q = scheduler_.NextEligibleMs(cursor_ms);
    if (q > cursor_ms) next = std::min(next, q);
  }
  return next;
}

double Server::NextActionableMs() const {
  const double next = NextEventMs(clock_ms_);
  return next == kInf ? -1.0 : next;
}

void Server::Drain() {
  while (true) {
    const double next = NextActionableMs();
    if (next < 0.0) break;
    AdvanceTo(std::max(clock_ms_, next));
  }
}

void Server::RunUntil(double limit_ms, bool strict) {
  // Seat anything already eligible at the current clock (usually a no-op:
  // every public mutation leaves the pool saturated).
  double cursor = clock_ms_;
  RefillAndStart(cursor);
  while (true) {
    const double next = NextEventMs(cursor);
    if (next == kInf) break;
    if (strict ? next >= limit_ms : next > limit_ms) break;
    cursor = std::max(cursor, next);
    // Complete every step due at the event time; freed lanes refill from
    // the scheduler at once and idle workers depart immediately — no
    // drain barrier between steps.
    for (int w = 0; w < config_.workers; ++w) {
      if (slots_.ExecutingCount(w) > 0 && worker_free_ms_[w] <= cursor) {
        slots_.CompleteStep(w, cursor);
      }
    }
    RefillAndStart(cursor);
  }
}

void Server::RefillAndStart(double now_ms) {
  while (true) {
    int placed = 0;
    // Fill workers in service order — the worker whose next step departs
    // soonest first, lowest index on ties — so a request the scheduler
    // releases lands where it completes earliest.
    std::sort(fill_order_.begin(), fill_order_.end(), [&](int a, int b) {
      const double fa = std::max(worker_free_ms_[a], now_ms);
      const double fb = std::max(worker_free_ms_[b], now_ms);
      return fa < fb || (fa == fb && a < b);
    });
    for (int w : fill_order_) {
      std::vector<SlotRequest>& lanes = loaded_[static_cast<size_t>(w)];
      while (slots_.FreeLanes(w) > 0) {
        // A worker's loaded lanes stay version-homogeneous: once a lane is
        // loaded, further loads are pinned to its snapshot, up to that
        // snapshot's engine batch ceiling. An empty worker accepts
        // anything.
        const ModelSnapshot* pin =
            lanes.empty() ? nullptr : lanes.front().snap.get();
        if (pin != nullptr &&
            static_cast<int64_t>(lanes.size()) >=
                pin->engine_config.max_batch) {
          break;
        }
        std::optional<SlotRequest> pick = scheduler_.PickNext(now_ms, pin);
        if (!pick.has_value()) break;
        pick->slot = slots_.Load(w, now_ms);
        lanes.push_back(std::move(*pick));
        ++placed;
      }
    }
    int started = 0;
    for (int w = 0; w < config_.workers; ++w) {
      if (slots_.ExecutingCount(w) == 0 &&
          !loaded_[static_cast<size_t>(w)].empty()) {
        StartStep(w, now_ms);
        ++started;
      }
    }
    // A departed step clears its worker's snapshot pin, which can unlock
    // further loads — loop until the pool is saturated.
    if (placed == 0 && started == 0) break;
  }
}

void Server::TakeCompletions(std::vector<Completion>* out) {
  for (Completion& c : *out) {
    if (c.output.size() > 0) free_outputs_.push_back(std::move(c.output));
  }
  out->clear();
  out->swap(completions_);
}

void Server::StartStep(int worker, double now_ms) {
  std::vector<SlotRequest>& lanes = loaded_[static_cast<size_t>(worker)];
  const int n = slots_.BeginStep(worker, now_ms);
  DLSYS_CHECK(n == static_cast<int>(lanes.size()),
              "loaded payloads out of sync with loaded lanes");
  ModelSnapshot& snap = *lanes.front().snap;
  ModelSnapshot::Replica& rep = snap.replicas[0];
  const double finish_ms = now_ms + EstimateServiceMs(ScaledCost(), n);
  worker_free_ms_[worker] = finish_ms;
  ++batches_;
  DLSYS_COUNTER_ADD("serve.batches", 1);

  for (size_t j = 0; j < lanes.size(); ++j) {
    std::copy(lanes[j].input.begin(), lanes[j].input.end(),
              rep.in_staging.data() + static_cast<int64_t>(j) * snap.in_elems);
    free_rows_.push_back(std::move(lanes[j].input));
  }
  Stopwatch sw;
  const Status status =
      rep.engine->PredictInto(rep.in_staging.data(), n, rep.out_staging.data());
  const double measured_ms = sw.Seconds() * 1000.0;
  DLSYS_CHECK(status.ok(), "engine rejected a dispatched batch");
  measured_.Record(measured_ms);
  DLSYS_HISTOGRAM_RECORD("serve.measured_service_ms", measured_ms);

  // A step is version-homogeneous, so its requests count once.
  served_[snap.model][snap.version] += n;
  for (size_t j = 0; j < lanes.size(); ++j) {
    SlotRequest& req = lanes[j];
    Completion& c = completions_.emplace_back();
    c.id = req.id;
    c.rid = req.trace_rid >= 0 ? req.trace_rid : req.id;
    c.model = snap.model;
    c.tenant = req.tenant->name;
    c.version = snap.version;
    c.arrival_ms = req.arrival_ms;
    // The quota horizon was a prediction at enqueue time; DWFQ rotation
    // can serve before or after it, so clamp it into the realized
    // [arrival, dispatch] interval the decomposition splits.
    c.quota_open_ms =
        std::max(req.arrival_ms, std::min(req.quota_open_ms, now_ms));
    c.dispatch_ms = now_ms;
    c.finish_ms = finish_ms;
    c.deadline_ms = req.deadline_ms;
    c.batch_size = n;
    c.worker = worker;
    c.slot = req.slot;
    c.deadline_missed = finish_ms > req.deadline_ms;
    c.measured_service_ms = measured_ms;
    // A returned output of another shape (taken before a hot swap changed
    // the output width) is freed, not reused.
    if (!free_outputs_.empty() &&
        free_outputs_.back().shape() == snap.example_output_shape) {
      c.output = std::move(free_outputs_.back());
    } else {
      c.output = Tensor(snap.example_output_shape);
    }
    if (!free_outputs_.empty()) free_outputs_.pop_back();
    const float* row =
        rep.out_staging.data() + static_cast<int64_t>(j) * snap.out_elems;
    std::copy(row, row + snap.out_elems, c.output.data());
    Tenant& tenant = *req.tenant;
    const double latency = c.finish_ms - c.arrival_ms;
    if (c.deadline_missed) {
      Tally(&tenant.stats.deadline_missed, tenant.counters.deadline_missed);
      DLSYS_COUNTER_ADD("serve.deadline_missed", 1);
    }
    latency_.Record(latency);
    DLSYS_HISTOGRAM_RECORD("serve.latency_ms", latency);
    Tally(&tenant.stats.completed, tenant.counters.completed);
    DLSYS_COUNTER_ADD("serve.completed", 1);
    tenant.stats.latency.Record(latency);
#if DLSYS_OBS
    tenant.counters.latency->Record(latency);
#endif
    // The request's whole life on the simulated-clock track, keyed by
    // rid: a queue umbrella (admission -> dispatch) with quota-wait and
    // slot-wait children splitting it at the quota horizon, the execute
    // span, then an instant respond marker. Span boundaries are emitted
    // in the decomposer's integer sim-ns quantization, so each span's
    // rendered duration equals its critical-path component bitwise, and
    // span/parent ids chain them under the fleet's root request span
    // (parentless when serving standalone). Together with the admit
    // instant from Submit, the exported Chrome trace reconstructs the
    // full admit -> quota -> slot -> execute -> respond path of any
    // single request.
#if DLSYS_OBS
    if (obs::TracingEnabled()) {
      const int64_t arrival_ns = obs::SimNs(c.arrival_ms);
      const int64_t quota_open_ns = obs::SimNs(c.quota_open_ms);
      const int64_t dispatch_ns = obs::SimNs(c.dispatch_ms);
      const int64_t finish_ns = obs::SimNs(c.finish_ms);
      const int64_t root =
          req.trace_rid >= 0 ? obs::RequestSpanId(c.rid) : -1;
      const int64_t queue_span = obs::QueueSpanId(c.rid);
      DLSYS_TRACE_EMIT_SIM_NS("serve.queue", "serve", arrival_ns,
                              dispatch_ns - arrival_ns, c.rid, queue_span,
                              root);
      DLSYS_TRACE_EMIT_SIM_NS(
          "serve.quota_wait", "serve", arrival_ns,
          quota_open_ns - arrival_ns, c.rid,
          obs::ComponentSpanId(c.rid, obs::PathComponent::kQuotaDelay),
          queue_span);
      DLSYS_TRACE_EMIT_SIM_NS(
          "serve.slot_wait", "serve", quota_open_ns,
          dispatch_ns - quota_open_ns, c.rid,
          obs::ComponentSpanId(c.rid, obs::PathComponent::kSlotWait),
          queue_span);
      DLSYS_TRACE_EMIT_SIM_NS(
          "serve.execute", "serve", dispatch_ns, finish_ns - dispatch_ns,
          c.rid, obs::ComponentSpanId(c.rid, obs::PathComponent::kExecute),
          root);
      DLSYS_TRACE_INSTANT_SIM("serve.respond", "serve", c.finish_ms, c.rid);
    }
#endif
  }
  lanes.clear();  // keeps its capacity for the next loads
}

std::map<std::string, Server::TenantStats> Server::tenant_stats() const {
  std::map<std::string, TenantStats> stats;
  for (const auto& [name, tenant] : scheduler_.tenants()) {
    stats.emplace_hint(stats.end(), name, tenant.stats);
  }
  return stats;
}

MetricsReport Server::metrics() const {
  MetricsReport report;
  // The server-wide request tallies are the sums of the tenant records'.
  TenantStats total;
  for (const auto& [name, tenant] : scheduler_.tenants()) {
    const TenantStats& ts = tenant.stats;
    total.offered += ts.offered;
    total.admitted += ts.admitted;
    total.deadline_missed += ts.deadline_missed;
    total.shed_queue_full += ts.shed_queue_full;
    total.shed_deadline += ts.shed_deadline;
    total.shed_draining += ts.shed_draining;
    const std::string prefix = "serve.tenant." + name;
    report.Set(prefix + ".offered", static_cast<double>(ts.offered));
    report.Set(prefix + ".admitted", static_cast<double>(ts.admitted));
    report.Set(prefix + ".completed", static_cast<double>(ts.completed));
    report.Set(prefix + ".deadline_missed",
               static_cast<double>(ts.deadline_missed));
    report.Set(prefix + ".shed.queue_full",
               static_cast<double>(ts.shed_queue_full));
    report.Set(prefix + ".shed.deadline_infeasible",
               static_cast<double>(ts.shed_deadline));
    report.Set(prefix + ".shed.draining",
               static_cast<double>(ts.shed_draining));
    ts.latency.ReportInto(&report, prefix + ".latency");
  }
  report.Set("serve.offered", static_cast<double>(total.offered));
  report.Set("serve.admitted", static_cast<double>(total.admitted));
  report.Set("serve.shed.queue_full",
             static_cast<double>(total.shed_queue_full));
  report.Set("serve.shed.deadline_infeasible",
             static_cast<double>(total.shed_deadline));
  report.Set("serve.shed.draining", static_cast<double>(total.shed_draining));
  report.Set("serve.dropped_queued", static_cast<double>(dropped_queued_));
  report.Set("serve.no_such_model", static_cast<double>(no_such_model_));
  report.Set("serve.rejected.bad_shape",
             static_cast<double>(rejected_bad_shape_));
  report.Set("serve.deadline_missed",
             static_cast<double>(total.deadline_missed));
  report.Set("serve.batches", static_cast<double>(batches_));
  report.Set("serve.swaps", static_cast<double>(registry_->swap_count()));
  for (const auto& [model, by_version] : served_) {
    for (const auto& [version, count] : by_version) {
      report.Set("serve." + model + ".served_v" + std::to_string(version),
                 static_cast<double>(count));
    }
  }
  latency_.ReportInto(&report, "serve.latency");
  measured_.ReportInto(&report, "serve.measured");
  return report;
}

}  // namespace dlsys
