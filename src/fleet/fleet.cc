#include "src/fleet/fleet.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>

#include "src/core/rng.h"
#include "src/obs/counters.h"
#include "src/obs/trace.h"
#include "src/tensor/tensor.h"

namespace dlsys {

namespace {

/// How long past the end of the load window the driver keeps ticking to
/// let in-flight work land before force-draining. Simulated ms.
constexpr double kTailLimitMs = 60'000.0;

/// p-th percentile of \p values (sorted in place). 0 when empty.
double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const size_t n = values->size();
  size_t idx = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  if (idx > 0) --idx;
  if (idx >= n) idx = n - 1;
  return (*values)[idx];
}

void AppendI(std::string* out, const char* key, int64_t v, bool comma = true) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\": %lld%s", key,
                static_cast<long long>(v), comma ? ", " : "");
  *out += buf;
}

void AppendD(std::string* out, const char* key, double v, bool comma = true) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\": %.6f%s", key, v,
                comma ? ", " : "");
  *out += buf;
}

/// Request conservation, checked at the end of every Run: each offered
/// request ends in exactly one terminal bucket (delivered in time,
/// missed, or shed for one reason), and each was either admitted by a
/// replica, routed into a dead one, or shed before admission. A silent
/// loss or a double count breaks one of the two identities.
Status CheckRequestLedger(const FleetReport& r) {
  const int64_t shed =
      r.shed_queue_full + r.shed_deadline + r.shed_draining + r.shed_unhealthy;
  const int64_t terminal = r.completed_ok + r.missed + shed;
  if (r.offered != terminal) {
    return Status::Internal(
        "request ledger: offered " + std::to_string(r.offered) +
        " != completed_ok + missed + shed " + std::to_string(terminal));
  }
  const int64_t routed = r.admitted + r.failed_dead_replica + shed;
  if (r.offered != routed) {
    return Status::Internal(
        "request ledger: offered " + std::to_string(r.offered) +
        " != admitted + failed_dead_replica + shed " + std::to_string(routed));
  }
  return Status::OK();
}

/// The bad-version canary: which replica bakes the new version and since
/// when, how much of the traffic routed to it degraded, and the verdict
/// at the end of the bake. It keeps every replica's delivered latencies,
/// because any active replica can become the canary and the p99 check
/// compares its bake window against its own history before the rollout.
class Canary {
 public:
  struct Verdict {
    bool failed = false;         ///< a degraded-fraction or p99 failure
    bool p99_regressed = false;  ///< the windowed-p99 check fired
  };

  Canary(const CanaryConfig& config, int slots)
      : config_(config), latencies_(static_cast<size_t>(slots)) {}

  int replica() const { return replica_; }
  double severity() const { return severity_; }
  /// True while \p replica bakes a new version.
  bool On(int replica) const { return active_ && replica_ == replica; }

  void Start(int replica, double t_ms, double severity) {
    active_ = true;
    replica_ = replica;
    started_ms_ = t_ms;
    severity_ = severity;
    offered_ = 0;
    degraded_ = 0;
    baseline_ = latencies_[static_cast<size_t>(replica)].size();
  }
  /// A crash of the canary replica abandons its bake.
  void Abandon(int replica) {
    if (On(replica)) active_ = false;
  }
  void Routed(int replica) {
    if (On(replica)) ++offered_;
  }
  /// A request routed to \p replica was shed or missed its deadline.
  void Degraded(int replica) {
    if (On(replica)) ++degraded_;
  }
  void Delivered(int replica, double latency_ms) {
    latencies_[static_cast<size_t>(replica)].push_back(latency_ms);
  }

  /// Ends a bake that has run bake_ms by \p t_ms and returns its
  /// verdict; nullopt when no bake is due.
  std::optional<Verdict> Judge(double t_ms);

 private:
  const CanaryConfig config_;
  bool active_ = false;
  int replica_ = -1;
  double started_ms_ = 0.0;
  double severity_ = 1.0;
  int64_t offered_ = 0;
  int64_t degraded_ = 0;
  size_t baseline_ = 0;  ///< latencies_[replica_] entries before rollout
  /// Per replica, the client-observed latency of every response it
  /// delivered, in delivery order.
  std::vector<std::vector<double>> latencies_;
};

std::optional<Canary::Verdict> Canary::Judge(double t_ms) {
  if (!active_ || t_ms < started_ms_ + config_.bake_ms) return std::nullopt;
  active_ = false;
  Verdict v;
  // Windowed p99 regression: a latency lemon whose responses still land
  // inside the deadline produces zero degraded deliveries, so the bake
  // also compares the canary's p99 during the bake against its own
  // pre-rollout baseline.
  if (config_.max_p99_regression > 0.0) {
    const std::vector<double>& lat = latencies_[static_cast<size_t>(replica_)];
    const auto split = lat.begin() + static_cast<ptrdiff_t>(baseline_);
    std::vector<double> base(lat.begin(), split);
    std::vector<double> bake(split, lat.end());
    const size_t mins = static_cast<size_t>(config_.min_p99_samples);
    if (base.size() >= mins && bake.size() >= mins) {
      const double p99_base = Percentile(&base, 0.99);
      v.p99_regressed =
          p99_base > 0.0 &&
          Percentile(&bake, 0.99) > config_.max_p99_regression * p99_base;
    }
  }
  const double degraded =
      offered_ > 0
          ? static_cast<double>(degraded_) / static_cast<double>(offered_)
          : 0.0;
  v.failed = degraded > config_.max_degraded_fraction || v.p99_regressed;
  return v;
}

/// The request ledger: the only code that records how a fleet request
/// ends — offered, admitted, shed, delivered in time, late, lost on a
/// dead route, or lost in a crash. It holds the responses travelling
/// back to their clients and lands each at its delivery time, tallying
/// it into the report's totals, tenant rows and SLO windows, the
/// critical-path attribution and the burn-rate alerter. Close folds the
/// windows into the report and checks request conservation.
class RequestLedger {
 public:
  /// \p arrivals and \p tenant_of are indexed by rid; they, \p config,
  /// \p canary and \p report must outlive the ledger.
  RequestLedger(const FleetConfig& config, const std::vector<double>& arrivals,
                const std::vector<std::string>& tenant_of, double deadline_ms,
                Canary* canary, FleetReport* report)
      : config_(config),
        arrivals_(arrivals),
        tenant_of_(tenant_of),
        deadline_ms_(deadline_ms),
        canary_(canary),
        report_(report),
        aggregator_(config.attribution),
        alerter_(config.slo) {}

  /// The tenant \p rid was drawn for; empty when the load is untenanted.
  const std::string& tenant(int64_t rid) const {
    static const std::string kUntenanted;
    return tenant_of_.empty() ? kUntenanted
                              : tenant_of_[static_cast<size_t>(rid)];
  }

  void Offer(int64_t rid) {
    ++report_->offered;
    if (FleetReport::TenantRow* row = TenantRow(rid)) ++row->offered;
    ++report_->windows[Window(arrivals_[static_cast<size_t>(rid)])].offered;
  }
  void Admit(int64_t rid) {
    ++report_->admitted;
    if (FleetReport::TenantRow* row = TenantRow(rid)) ++row->admitted;
  }
  /// Turned away; \p reason is the report counter naming why.
  void Shed(int64_t rid, int64_t FleetReport::*reason) {
    ++(report_->*reason);
    if (FleetReport::TenantRow* row = TenantRow(rid)) ++row->shed;
    ++report_->windows[Window(arrivals_[static_cast<size_t>(rid)])].shed;
  }
  /// Routed into a crashed-but-undetected replica: the client gives up
  /// at \p deliver_ms.
  void DeadRoute(int64_t rid, int replica, double deliver_ms) {
    ++report_->failed_dead_replica;
    DLSYS_COUNTER_ADD("fleet.failed.dead_replica", 1);
    outstanding_.push_back(Delivery{rid, replica, deliver_ms, 0.0, {}});
  }

  /// A dispatched request's response, on its way back to the client.
  void Respond(const Server::Completion& c, int replica, int64_t incarnation,
               double return_hop_ms) {
    const double sent_ms = arrivals_[static_cast<size_t>(c.rid)];
    const double deliver_ms = c.finish_ms + return_hop_ms;
    // Quantize the path boundaries to integer sim-ns with the same
    // quantizer the sim-track spans use, so the decomposition sums
    // bitwise to the rendered end-to-end span.
    obs::RequestPathRecord rec;
    rec.rid = c.rid;
    rec.tenant = c.tenant;
    rec.replica = replica;
    rec.incarnation = incarnation;
    rec.slot = c.slot;
    rec.send_ns = obs::SimNs(sent_ms);
    rec.admit_ns = obs::SimNs(c.arrival_ms);
    rec.quota_open_ns = obs::SimNs(c.quota_open_ms);
    rec.dispatch_ns = obs::SimNs(c.dispatch_ms);
    rec.finish_ns = obs::SimNs(c.finish_ms);
    rec.deliver_ns = obs::SimNs(deliver_ms);
    rec.deadline_ok = deliver_ms <= sent_ms + deadline_ms_;
    outstanding_.push_back(
        Delivery{c.rid, replica, deliver_ms, c.finish_ms, std::move(rec)});
  }

  /// \p replica crashed at \p at_ms in \p incarnation: every request in
  /// \p lost dies with it, and so does each response it would have
  /// finished after the crash.
  void Crash(int replica, int64_t incarnation, double at_ms,
             const std::map<int64_t, double>& lost) {
    for (Delivery& d : outstanding_) {
      if (d.record && d.replica == replica &&
          d.record->incarnation == incarnation && d.finish_ms > at_ms) {
        d.record.reset();
        d.deliver_ms = at_ms;
      }
    }
    for (const auto& [rid, return_hop_ms] : lost) {
      outstanding_.push_back(Delivery{rid, replica, at_ms, 0.0, {}});
    }
  }

  /// Lands every response due by \p now_ms.
  void Land(double now_ms) {
    size_t kept = 0;
    for (size_t i = 0; i < outstanding_.size(); ++i) {
      if (outstanding_[i].deliver_ms <= now_ms) {
        Finalize(outstanding_[i]);
      } else {
        // A self-move would empty the record's tenant string.
        if (kept != i) outstanding_[kept] = std::move(outstanding_[i]);
        ++kept;
      }
    }
    outstanding_.resize(kept);
  }

  /// Active replicas at \p t_ms; a window keeps the count at its close.
  void RecordActive(double t_ms, int active) {
    const size_t idx = static_cast<size_t>(t_ms / config_.window_ms);
    if (idx >= active_.size()) active_.resize(idx + 1, 0);
    active_[idx] = active;
  }

  bool in_flight() const { return !outstanding_.empty(); }

  /// Lands everything still in flight, then fills the report's p99,
  /// windows, attribution, alerts, steady state and time to recover,
  /// and checks request conservation.
  Status Close(double load_end_ms);

 private:
  struct Delivery {
    int64_t rid = 0;
    int replica = -1;
    double deliver_ms = 0.0;
    double finish_ms = 0.0;  ///< server-side finish; 0 without a record
    /// Critical-path boundary stamps of a response that reaches its
    /// client; dead routes and crash losses have none (their latency is
    /// unmeasured). Fed to the aggregator and alerter only when landed,
    /// once the response is known to have survived every crash.
    std::optional<obs::RequestPathRecord> record;
  };

  /// Index of the report window holding \p t_ms; the windows and their
  /// latency samples grow to reach it.
  size_t Window(double t_ms) {
    const size_t idx =
        t_ms <= 0.0 ? 0 : static_cast<size_t>(t_ms / config_.window_ms);
    if (idx >= report_->windows.size()) {
      report_->windows.resize(idx + 1);
      latencies_.resize(idx + 1);
    }
    return idx;
  }
  FleetReport::TenantRow* TenantRow(int64_t rid) {
    const std::string& name = tenant(rid);
    return name.empty() ? nullptr : &report_->tenants[name];
  }

  void Finalize(const Delivery& d) {
    const size_t wi = Window(d.deliver_ms);
    FleetWindow& w = report_->windows[wi];
    FleetReport::TenantRow* row = TenantRow(d.rid);
    if (d.record && d.record->deadline_ok) {
      ++w.completed_ok;
      ++report_->completed_ok;
      if (row != nullptr) ++row->completed_ok;
    } else {
      ++w.missed;
      ++report_->missed;
      if (row != nullptr) ++row->missed;
      canary_->Degraded(d.replica);
    }
    if (!d.record) return;
    const obs::RequestPathRecord& rec = *d.record;
    const double latency_ms =
        d.deliver_ms - arrivals_[static_cast<size_t>(d.rid)];
    latencies_[wi].push_back(latency_ms);
    canary_->Delivered(d.replica, latency_ms);
#if DLSYS_OBS
    const int64_t root = obs::RequestSpanId(rec.rid);
    DLSYS_TRACE_EMIT_SIM_NS("fleet.request", "fleet", rec.send_ns,
                            rec.deliver_ns - rec.send_ns, rec.rid, root, -1);
    DLSYS_TRACE_EMIT_SIM_NS(
        "fleet.return", "fleet", rec.finish_ns, rec.deliver_ns - rec.finish_ns,
        rec.rid, obs::ComponentSpanId(rec.rid, obs::PathComponent::kReturnHop),
        root);
#endif
    report_->path_records.push_back(rec);
    alerter_.Record(rec, aggregator_.Record(rec));
  }

  const FleetConfig& config_;
  const std::vector<double>& arrivals_;
  const std::vector<std::string>& tenant_of_;
  const double deadline_ms_;
  Canary* const canary_;
  FleetReport* const report_;
  obs::AttributionAggregator aggregator_;
  obs::BurnRateAlerter alerter_;
  std::vector<Delivery> outstanding_;
  std::vector<std::vector<double>> latencies_;  ///< per report window
  std::vector<int> active_;  ///< per window, active replicas at its close
};

Status RequestLedger::Close(double load_end_ms) {
  for (const Delivery& d : outstanding_) Finalize(d);
  outstanding_.clear();
  FleetReport& report = *report_;
  report.attribution = aggregator_.report();
  report.alerts = alerter_.Evaluate();

  // The fleet-wide p99 is over the union of the window samples.
  const double window_ms = config_.window_ms;
  std::vector<double> fleet_latencies;
  for (size_t i = 0; i < report.windows.size(); ++i) {
    FleetWindow& w = report.windows[i];
    fleet_latencies.insert(fleet_latencies.end(), latencies_[i].begin(),
                           latencies_[i].end());
    w.start_ms = static_cast<double>(i) * window_ms;
    w.p99_ms = Percentile(&latencies_[i], 0.99);
    w.goodput_rps = static_cast<double>(w.completed_ok) * 1000.0 / window_ms;
    w.active_replicas = i < active_.size() ? active_[i] : 0;
  }
  report.p99_ms = Percentile(&fleet_latencies, 0.99);

  // Steady state over complete pre-fault windows inside the load span.
  // Recovery is detected on the *served fraction* (completed_ok /
  // offered per window) rather than absolute goodput, so a diurnal load
  // decline after the fault does not read as an outage: time-to-recover
  // is the first post-fault window opening a run of recover_streak
  // windows whose served fraction is back within 10% of the pre-fault
  // mean.
  const auto served_fraction = [](const FleetWindow& w) {
    return w.offered > 0 ? static_cast<double>(w.completed_ok) /
                               static_cast<double>(w.offered)
                         : 1.0;
  };
  size_t limit = static_cast<size_t>(load_end_ms / window_ms);
  limit = std::min(limit, report.windows.size());
  const double fault = report.fault_start_ms;
  const size_t fault_w =
      fault >= 0.0 ? static_cast<size_t>(fault / window_ms) : limit;
  double steady_sum = 0.0;
  double steady_frac_sum = 0.0;
  size_t steady_n = 0;
  for (size_t i = 0; i < std::min(fault_w, limit); ++i) {
    steady_sum += report.windows[i].goodput_rps;
    steady_frac_sum += served_fraction(report.windows[i]);
    ++steady_n;
  }
  report.steady_goodput_rps =
      steady_n > 0 ? steady_sum / static_cast<double>(steady_n) : 0.0;
  const double steady_frac =
      steady_n > 0 ? steady_frac_sum / static_cast<double>(steady_n) : 0.0;
  if (fault >= 0.0 && steady_frac > 0.0) {
    const double bar = 0.9 * steady_frac;
    const size_t streak = static_cast<size_t>(config_.recover_streak);
    for (size_t i = fault_w; i + streak <= limit; ++i) {
      bool recovered = true;
      for (size_t j = 0; j < streak; ++j) {
        recovered =
            recovered && served_fraction(report.windows[i + j]) >= bar;
      }
      if (recovered) {
        report.time_to_recover_ms =
            std::max(0.0, static_cast<double>(i) * window_ms - fault);
        break;
      }
    }
  }
  return CheckRequestLedger(report);
}

}  // namespace

const char* FleetRecoveryName(FleetRecovery recovery) {
  switch (recovery) {
    case FleetRecovery::kCheckpointedRestart:
      return "checkpointed_restart";
    case FleetRecovery::kColdReplace:
      return "cold_replace";
  }
  return "unknown";
}

Status ValidateFleetConfig(const FleetConfig& config) {
  if (config.replica_slots < 1) {
    return Status::InvalidArgument("replica_slots must be >= 1");
  }
  if (config.initial_replicas < 1 ||
      config.initial_replicas > config.replica_slots) {
    return Status::InvalidArgument(
        "need 1 <= initial_replicas <= replica_slots");
  }
  Status server = ValidateServerConfig(config.server);
  if (!server.ok()) return server;
  Status health = ValidateHealthCheckConfig(config.health);
  if (!health.ok()) return health;
  Status scale = ValidateAutoscalerConfig(config.autoscale);
  if (!scale.ok()) return scale;
  if (config.autoscale.min_replicas > config.replica_slots) {
    return Status::InvalidArgument(
        "autoscale.min_replicas exceeds replica_slots");
  }
  if (config.request_bytes < 0 || config.response_bytes < 0) {
    return Status::InvalidArgument("request/response bytes must be >= 0");
  }
  if (!(config.restart_ms >= 0.0) || !(config.replace_ms >= 0.0)) {
    return Status::InvalidArgument("restart_ms/replace_ms must be >= 0");
  }
  if (!(config.canary.bake_ms > 0.0)) {
    return Status::InvalidArgument("canary.bake_ms must be positive");
  }
  if (!(config.canary.max_degraded_fraction >= 0.0) ||
      !(config.canary.max_degraded_fraction <= 1.0)) {
    return Status::InvalidArgument(
        "canary.max_degraded_fraction must be in [0, 1]");
  }
  if (!(config.canary.max_p99_regression >= 0.0)) {
    return Status::InvalidArgument(
        "canary.max_p99_regression must be >= 0 (0 disables)");
  }
  if (config.canary.min_p99_samples < 1) {
    return Status::InvalidArgument("canary.min_p99_samples must be >= 1");
  }
  if (!(config.tick_ms > 0.0)) {
    return Status::InvalidArgument("tick_ms must be positive");
  }
  if (!(config.window_ms >= config.tick_ms)) {
    return Status::InvalidArgument("window_ms must be >= tick_ms");
  }
  if (config.recover_streak < 1) {
    return Status::InvalidArgument("recover_streak must be >= 1");
  }
  if (!(config.attribution.window_ms > 0.0)) {
    return Status::InvalidArgument("attribution.window_ms must be positive");
  }
  if (config.attribution.exemplars_per_window < 0) {
    return Status::InvalidArgument(
        "attribution.exemplars_per_window must be >= 0");
  }
  if (!(config.slo.slo_target > 0.0) || !(config.slo.slo_target < 1.0)) {
    return Status::InvalidArgument("slo.slo_target must be in (0, 1)");
  }
  if (!(config.slo.window_ms > 0.0)) {
    return Status::InvalidArgument("slo.window_ms must be positive");
  }
  if (config.slo.fast_windows < 1 ||
      config.slo.slow_windows < config.slo.fast_windows) {
    return Status::InvalidArgument(
        "need 1 <= slo.fast_windows <= slo.slow_windows");
  }
  if (!(config.slo.fast_burn_threshold > 0.0) ||
      !(config.slo.slow_burn_threshold > 0.0)) {
    return Status::InvalidArgument("slo burn thresholds must be positive");
  }
  if (config.slo.min_requests < 0) {
    return Status::InvalidArgument("slo.min_requests must be >= 0");
  }
  return Status::OK();
}

double FleetReport::goodput_rps() const {
  return duration_ms > 0.0 ? static_cast<double>(completed_ok) /
                                 (duration_ms / 1000.0)
                           : 0.0;
}

double FleetReport::miss_fraction() const {
  return offered > 0
             ? static_cast<double>(missed) / static_cast<double>(offered)
             : 0.0;
}

double FleetReport::shed_fraction() const {
  const int64_t shed =
      shed_queue_full + shed_deadline + shed_draining + shed_unhealthy;
  return offered > 0
             ? static_cast<double>(shed) / static_cast<double>(offered)
             : 0.0;
}

std::string FleetReportJson(const FleetReport& report) {
  std::string out = "{";
  out += "\"scenario\": \"" + report.scenario + "\", ";
  AppendI(&out, "offered", report.offered);
  AppendI(&out, "admitted", report.admitted);
  AppendI(&out, "completed_ok", report.completed_ok);
  AppendI(&out, "missed", report.missed);
  AppendI(&out, "shed_queue_full", report.shed_queue_full);
  AppendI(&out, "shed_deadline", report.shed_deadline);
  AppendI(&out, "shed_draining", report.shed_draining);
  AppendI(&out, "shed_unhealthy", report.shed_unhealthy);
  AppendI(&out, "failed_dead_replica", report.failed_dead_replica);
  AppendI(&out, "dropped_queued", report.dropped_queued);
  AppendI(&out, "crashes", report.crashes);
  AppendI(&out, "restarts", report.restarts);
  AppendI(&out, "rollouts", report.rollouts);
  AppendI(&out, "rollbacks", report.rollbacks);
  AppendI(&out, "p99_rollbacks", report.p99_rollbacks);
  AppendI(&out, "scale_ups", report.scale_ups);
  AppendI(&out, "scale_downs", report.scale_downs);
  AppendD(&out, "p99_ms", report.p99_ms);
  AppendD(&out, "duration_ms", report.duration_ms);
  AppendD(&out, "goodput_rps", report.goodput_rps());
  AppendD(&out, "miss_fraction", report.miss_fraction());
  AppendD(&out, "shed_fraction", report.shed_fraction());
  AppendD(&out, "steady_goodput_rps", report.steady_goodput_rps);
  AppendD(&out, "fault_start_ms", report.fault_start_ms);
  AppendD(&out, "time_to_recover_ms", report.time_to_recover_ms);
  out += "\"tenants\": {";
  {
    bool first = true;
    for (const auto& [name, row] : report.tenants) {
      if (!first) out += ", ";
      first = false;
      out += "\"" + name + "\": {";
      AppendI(&out, "offered", row.offered);
      AppendI(&out, "admitted", row.admitted);
      AppendI(&out, "completed_ok", row.completed_ok);
      AppendI(&out, "missed", row.missed);
      AppendI(&out, "shed", row.shed, /*comma=*/false);
      out += "}";
    }
  }
  out += "}, ";
  out += "\"alerts\": " + obs::BurnAlertsJson(report.alerts) + ", ";
  out += "\"windows\": [";
  for (size_t i = 0; i < report.windows.size(); ++i) {
    const FleetWindow& w = report.windows[i];
    if (i != 0) out += ", ";
    out += "{";
    AppendD(&out, "start_ms", w.start_ms);
    AppendI(&out, "offered", w.offered);
    AppendI(&out, "completed_ok", w.completed_ok);
    AppendI(&out, "missed", w.missed);
    AppendI(&out, "shed", w.shed);
    AppendD(&out, "p99_ms", w.p99_ms);
    AppendD(&out, "goodput_rps", w.goodput_rps);
    AppendI(&out, "active_replicas", w.active_replicas, /*comma=*/false);
    out += "}";
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------------- Fleet

/// One replica slot: a full serving stack plus the fleet's view of it.
struct Fleet::Replica {
  enum class State {
    kInactive,      ///< built but out of service (never used / scaled down)
    kProvisioning,  ///< scale-up ordered; usable at ready_ms
    kActive,        ///< serving
    kDraining,      ///< finishing queued work ahead of a scale-down
    kDown,          ///< crashed; restarting, usable at ready_ms
  };

  /// Executes work: takes crash draws, advances its clock, drains.
  bool serving() const {
    return state == State::kActive || state == State::kDraining;
  }

  std::unique_ptr<ModelRegistry> registry;
  std::unique_ptr<Server> server;
  State state = State::kInactive;
  double ready_ms = 0.0;
  int64_t incarnation = 0;  ///< completed recoveries; a crash invalidates
                            ///< only the responses of its own incarnation
  double net_scale = 1.0;   ///< slow-partition latency factor
  size_t harvested = 0;     ///< server completions consumed so far
  /// Admitted requests its server has not dispatched yet, by fleet rid,
  /// with the return hop each response will pay.
  std::map<int64_t, double> pending;
};

Fleet::Fleet(const FleetConfig& config) : config_(config) {}
Fleet::~Fleet() = default;

Result<std::unique_ptr<Fleet>> Fleet::Create(const FleetConfig& config) {
  Status valid = ValidateFleetConfig(config);
  if (!valid.ok()) return valid;
  std::unique_ptr<Fleet> fleet(new Fleet(config));
  for (int i = 0; i < config.replica_slots; ++i) {
    auto replica = std::make_unique<Replica>();
    replica->registry = std::make_unique<ModelRegistry>();
    auto server = Server::Create(replica->registry.get(), config.server);
    if (!server.ok()) return server.status();
    replica->server = std::move(server).value();
    replica->state = i < config.initial_replicas ? Replica::State::kActive
                                                 : Replica::State::kInactive;
    fleet->replicas_.push_back(std::move(replica));
  }
  return fleet;
}

double Fleet::ReplicaCapacityRps(const ServerConfig& server) {
  return static_cast<double>(server.workers) *
         static_cast<double>(server.batch.max_batch) * 1000.0 /
         EstimateServiceMs(server.cost, server.batch.max_batch);
}

Status Fleet::Deploy(const std::string& model, Sequential net,
                     const Shape& example_shape) {
  if (deployed_) return Status::FailedPrecondition("fleet already deployed");
  if (model.empty()) {
    return Status::InvalidArgument("model name must be non-empty");
  }
  model_ = model;
  net_ = std::move(net);
  example_shape_ = example_shape;
  for (auto& replica : replicas_) {
    auto version = replica->server->Publish(model_, net_, example_shape_);
    if (!version.ok()) return version.status();
  }
  deployed_ = true;
  return Status::OK();
}

Result<FleetReport> Fleet::Run(const ChaosScenario& scenario,
                               const TraceLoadConfig& load) {
  using State = Replica::State;
  if (!deployed_) return Status::FailedPrecondition("Deploy before Run");
  if (ran_) {
    return Status::FailedPrecondition(
        "Run consumes the replica clocks; build a fresh Fleet");
  }
  if (load.model != model_) {
    return Status::InvalidArgument("load.model does not match the deployment");
  }
  Status valid = ValidateChaosScenario(scenario);
  if (!valid.ok()) return valid;
  auto compiled =
      CompileChaos(scenario, config_.replica_slots, config_.tick_ms);
  if (!compiled.ok()) return compiled.status();
  ran_ = true;

  const int slots = config_.replica_slots;
  FaultInjector injector(compiled.value().plan, slots);
  const std::vector<std::vector<int>>& targets = compiled.value().targets;
  Router router(config_.route,
                config_.seed ^ (scenario.seed * 0x9E3779B97F4A7C15ULL));
  HealthTracker tracker(config_.health, slots);
  AutoscalerConfig scale_cfg = config_.autoscale;
  scale_cfg.max_replicas = std::min(scale_cfg.max_replicas, slots);
  scale_cfg.min_replicas =
      std::min(scale_cfg.min_replicas, scale_cfg.max_replicas);
  Autoscaler autoscaler(scale_cfg, ReplicaCapacityRps(config_.server));

  const std::vector<double> arrivals = GenerateTraceArrivals(load);
  // Tenant attribution of the arrival stream, indexed by rid (empty mix =
  // untenanted, byte-identical behavior).
  const std::vector<std::string> tenant_of =
      AssignTenants(load.tenant_mix, load.seed,
                    static_cast<int64_t>(arrivals.size()));
  const double deadline_ms = load.deadline_ms > 0.0
                                 ? load.deadline_ms
                                 : config_.server.default_deadline_ms;

  auto snap = replicas_[0]->registry->Acquire(model_);
  const int64_t in_elems = snap ? snap->in_elems : 0;
  snap.reset();  // payloads only need the size; don't pin a version
  Tensor example({in_elems});
  Rng payloads(load.seed ^ 0xF1EE7D00DULL);

  FleetReport report;
  report.scenario = scenario.name;
  report.duration_ms = load.duration_ms;
  for (const FleetFaultEvent& ev : scenario.events) {
    if (report.fault_start_ms < 0.0 || ev.start_ms < report.fault_start_ms) {
      report.fault_start_ms = ev.start_ms;
    }
  }

  Canary canary(config_.canary, slots);
  RequestLedger ledger(config_, arrivals, tenant_of, deadline_ms, &canary,
                       &report);
  std::vector<bool> event_started(scenario.events.size(), false);
  std::vector<bool> event_ended(scenario.events.size(), false);

  auto republish = [&](int slot) -> Status {
    auto version = replicas_[static_cast<size_t>(slot)]->server->Publish(
        model_, net_, example_shape_);
    return version.ok() ? Status::OK() : version.status();
  };

  // Hands every request \p slot's server dispatched since the last
  // harvest to the ledger as a response on its way back.
  auto harvest = [&](int slot) {
    Replica& r = *replicas_[static_cast<size_t>(slot)];
    const std::vector<Server::Completion>& done = r.server->completions();
    for (size_t i = r.harvested; i < done.size(); ++i) {
      const Server::Completion& c = done[i];
      // Every completion is a request this fleet submitted and still
      // waits on: a crash forgets only undispatched requests, and the
      // crashed server drops those too.
      const auto it = r.pending.find(c.rid);
      DLSYS_CHECK(it != r.pending.end(),
                  "completion of a request the fleet is not waiting on");
      ledger.Respond(c, slot, r.incarnation, it->second);
      r.pending.erase(it);
    }
    r.harvested = done.size();
  };

  // ---- the tick loop ----------------------------------------------
  const double tick = config_.tick_ms;
  const double load_end = load.start_ms + load.duration_ms;
  double next_probe = config_.health.interval_ms;
  double next_decide = scale_cfg.decide_interval_ms;
  int64_t arrivals_in_decide = 0;
  size_t next_arrival = 0;
  std::vector<ReplicaView> view(static_cast<size_t>(slots));

  for (int64_t k = 0;; ++k) {
    const double T = static_cast<double>(k) * tick;
    const double now = T + tick;

    // 1. Replica timers: provisioning/restart completes, drains finish.
    for (int i = 0; i < slots; ++i) {
      Replica& r = *replicas_[static_cast<size_t>(i)];
      if (r.state == State::kProvisioning && r.ready_ms <= T) {
        r.state = State::kActive;
        tracker.Reset(i);
      } else if (r.state == State::kDown && r.ready_ms <= T) {
        if (config_.recovery == FleetRecovery::kColdReplace) {
          // A fresh instance: new registry, new server, republished model.
          r.registry = std::make_unique<ModelRegistry>();
          auto server = Server::Create(r.registry.get(), config_.server);
          if (!server.ok()) return server.status();
          r.server = std::move(server).value();
          r.harvested = 0;
          DLSYS_RETURN_NOT_OK(republish(i));
        }
        ++r.incarnation;
        r.state = State::kActive;
        ++report.restarts;
        DLSYS_COUNTER_ADD("fleet.restart", 1);
        DLSYS_TRACE_INSTANT_SIM("fleet.restart", "fleet", T, i);
      } else if (r.state == State::kDraining && r.pending.empty() &&
                 r.server->queue_depth() == 0) {
        r.server->SetDraining(false);
        r.state = State::kInactive;
      }
    }

    // 2. Chaos event transitions due at this tick.
    for (size_t e = 0; e < scenario.events.size(); ++e) {
      const FleetFaultEvent& ev = scenario.events[e];
      if (!event_started[e] && ev.start_ms <= T) {
        event_started[e] = true;
        switch (ev.kind) {
          case FaultKind::kCrashStorm:
            break;  // compiled into the fault plan; fires in step 4
          case FaultKind::kSlowPartition:
            for (int t : targets[e]) {
              replicas_[static_cast<size_t>(t)]->net_scale = ev.severity;
            }
            break;
          case FaultKind::kGrayFailure:
            for (int t : targets[e]) {
              replicas_[static_cast<size_t>(t)]->server->SetCostScale(
                  ev.severity);
            }
            break;
          case FaultKind::kBadVersionRollout: {
            int c = -1;
            for (int t : targets[e]) {
              if (replicas_[static_cast<size_t>(t)]->state == State::kActive) {
                c = t;
                break;
              }
            }
            if (c < 0) break;  // nothing active to canary onto
            DLSYS_RETURN_NOT_OK(republish(c));
            replicas_[static_cast<size_t>(c)]->server->SetCostScale(
                ev.severity);
            canary.Start(c, T, ev.severity);
            ++report.rollouts;
            DLSYS_COUNTER_ADD("fleet.rollout", 1);
            DLSYS_TRACE_INSTANT_SIM("fleet.rollout", "fleet", T, c);
            break;
          }
        }
      }
      if (event_started[e] && !event_ended[e] && ev.duration_ms > 0.0 &&
          ev.start_ms + ev.duration_ms <= T) {
        event_ended[e] = true;
        switch (ev.kind) {
          case FaultKind::kSlowPartition:
            for (int t : targets[e]) {
              replicas_[static_cast<size_t>(t)]->net_scale = 1.0;
            }
            break;
          case FaultKind::kGrayFailure:
            for (int t : targets[e]) {
              replicas_[static_cast<size_t>(t)]->server->SetCostScale(1.0);
            }
            break;
          default:
            break;
        }
      }
    }

    // 3. Canary bake verdict.
    if (const std::optional<Canary::Verdict> verdict = canary.Judge(T)) {
      const int c = canary.replica();
      if (verdict->p99_regressed) {
        DLSYS_COUNTER_ADD("fleet.canary.p99_regression", 1);
        if (config_.canary.auto_rollback) ++report.p99_rollbacks;
      }
      if (!verdict->failed) {
        // Bake passed: the (possibly slow) version rolls out fleet-wide.
        for (int i = 0; i < slots; ++i) {
          Replica& r = *replicas_[static_cast<size_t>(i)];
          if (i == c || r.state != State::kActive) continue;
          DLSYS_RETURN_NOT_OK(republish(i));
          r.server->SetCostScale(canary.severity());
        }
      } else if (config_.canary.auto_rollback) {
        DLSYS_RETURN_NOT_OK(republish(c));
        replicas_[static_cast<size_t>(c)]->server->SetCostScale(1.0);
        ++report.rollbacks;
        DLSYS_COUNTER_ADD("fleet.rollback", 1);
        DLSYS_TRACE_INSTANT_SIM("fleet.rollback", "fleet", T, c);
      }
      // Without auto_rollback a failed canary just keeps serving.
    }

    // 4. Scheduled crashes due at this tick.
    for (int i = 0; i < slots; ++i) {
      Replica& r = *replicas_[static_cast<size_t>(i)];
      if (!r.serving() || !injector.CrashesAt(i, k, r.incarnation)) continue;
      injector.ConsumeCrash(i, k);
      ++report.crashes;
      DLSYS_COUNTER_ADD("fleet.crash", 1);
      DLSYS_TRACE_INSTANT_SIM("fleet.crash", "fleet", T, i);
      // The queue dies with the replica; so do its in-flight batches
      // (stamped to finish after the crash instant).
      report.dropped_queued += r.server->DropQueued();
      ledger.Crash(i, r.incarnation, T, r.pending);
      r.pending.clear();
      r.state = State::kDown;
      r.ready_ms =
          T + (config_.recovery == FleetRecovery::kCheckpointedRestart
                   ? config_.restart_ms
                   : config_.replace_ms);
      canary.Abandon(i);
    }

    // 5. Health probes: a down replica fails its probe, everything else
    // that is serving answers (gray failures answer by design).
    while (next_probe <= T) {
      for (int i = 0; i < slots; ++i) {
        const State st = replicas_[static_cast<size_t>(i)]->state;
        if (st == State::kActive) {
          tracker.Probe(i, true);
        } else if (st == State::kDown) {
          tracker.Probe(i, false);
        }
      }
      next_probe += config_.health.interval_ms;
    }

    // 6. Autoscaler decisions.
    while (next_decide <= T) {
      const double rate = static_cast<double>(arrivals_in_decide) * 1000.0 /
                          scale_cfg.decide_interval_ms;
      arrivals_in_decide = 0;
      int current = 0;
      for (const auto& r : replicas_) {
        if (r->state == State::kActive || r->state == State::kProvisioning ||
            r->state == State::kDown) {
          ++current;
        }
      }
      const int desired = autoscaler.Desired(rate, current);
      if (desired > current) {
        int need = desired - current;
        for (int i = 0; i < slots && need > 0; ++i) {
          Replica& r = *replicas_[static_cast<size_t>(i)];
          if (r.state == State::kDraining) {
            // Cheapest capacity: cancel an in-progress drain.
            r.server->SetDraining(false);
            r.state = State::kActive;
            --need;
            ++report.scale_ups;
          } else if (r.state == State::kInactive) {
            r.state = State::kProvisioning;
            r.ready_ms = T + scale_cfg.provision_lag_ms;
            --need;
            ++report.scale_ups;
            DLSYS_COUNTER_ADD("fleet.scale_up", 1);
            DLSYS_TRACE_INSTANT_SIM("fleet.scale_up", "fleet", T, i);
          }
        }
      } else if (desired < current) {
        int excess = current - desired;
        for (int i = slots - 1; i >= 0 && excess > 0; --i) {
          Replica& r = *replicas_[static_cast<size_t>(i)];
          if (r.state == State::kProvisioning) {
            r.state = State::kInactive;  // cancel the pending order
            --excess;
            ++report.scale_downs;
          } else if (r.state == State::kActive && !canary.On(i)) {
            r.server->SetDraining(true);
            tracker.MarkUnhealthy(i);
            r.state = State::kDraining;
            --excess;
            ++report.scale_downs;
            DLSYS_COUNTER_ADD("fleet.scale_down", 1);
            DLSYS_TRACE_INSTANT_SIM("fleet.scale_down", "fleet", T, i);
          }
        }
      }
      next_decide += scale_cfg.decide_interval_ms;
    }

    // 7. Route and submit this tick's arrivals; rid counts every arrival
    // in order.
    while (next_arrival < arrivals.size() && arrivals[next_arrival] < now) {
      const double t = arrivals[next_arrival];
      const int64_t rid = static_cast<int64_t>(next_arrival++);
      ++arrivals_in_decide;
      ledger.Offer(rid);
      for (int i = 0; i < slots; ++i) {
        Replica& r = *replicas_[static_cast<size_t>(i)];
        // A crashed-but-undetected replica stays in the rotation: that
        // is the cost of detection latency the metrics charge for.
        const bool routable =
            tracker.healthy(i) &&
            (r.state == State::kActive || r.state == State::kDown);
        ReplicaView& v = view[static_cast<size_t>(i)];
        v.routable = routable;
        v.queue_depth = routable ? r.server->queue_depth() : 0;
        v.backlog_ms =
            routable ? std::max(0.0, r.server->earliest_worker_free_ms() -
                                         r.server->clock_ms())
                     : 0.0;
      }
      const int pick = router.Pick(view, rid);
      if (pick < 0) {
        DLSYS_COUNTER_ADD("serve.shed.unhealthy_replica", 1);
        DLSYS_TRACE_INSTANT_SIM("serve.shed.unhealthy_replica", "fleet", t,
                                rid);
        ledger.Shed(rid, &FleetReport::shed_unhealthy);
        continue;
      }
      Replica& r = *replicas_[static_cast<size_t>(pick)];
      const NetworkModel net =
          r.net_scale != 1.0 ? config_.network.WithLatencyScaled(r.net_scale)
                             : config_.network;
      const double fwd_ms = net.TransferSeconds(config_.request_bytes) * 1000.0;
      const double ret_ms =
          net.TransferSeconds(config_.response_bytes) * 1000.0;
      canary.Routed(pick);
      if (r.state == State::kDown) {
        // Routed into the detection gap: the request times out.
        ledger.DeadRoute(rid, pick, t + fwd_ms + net.timeout_seconds * 1000.0);
        continue;
      }
      // Arrival at the replica, clamped to its clock so per-server
      // submits stay monotone.
      const double ta = std::max(t + fwd_ms, r.server->clock_ms());
      const double budget = (t + deadline_ms) - ret_ms - ta;
      DLSYS_TRACE_EMIT_SIM_NS(
          "fleet.route", "fleet", obs::SimNs(t), obs::SimNs(ta) - obs::SimNs(t),
          rid, obs::ComponentSpanId(rid, obs::PathComponent::kRouteHop),
          obs::RequestSpanId(rid));
      example.FillGaussian(&payloads, 1.0f);
      const obs::RequestTrace rtrace{rid, r.incarnation};
      const Server::SubmitResult sr =
          r.server->Submit(model_, example, ta, budget > 0.0 ? budget : 1e-9,
                           ledger.tenant(rid), &rtrace);
      int64_t FleetReport::*shed_reason = nullptr;
      switch (sr.outcome) {
        case Server::Outcome::kAdmitted:
          ledger.Admit(rid);
          r.pending[rid] = ret_ms;
          continue;
        case Server::Outcome::kShedQueueFull:
          shed_reason = &FleetReport::shed_queue_full;
          break;
        case Server::Outcome::kShedDeadline:
          shed_reason = &FleetReport::shed_deadline;
          break;
        case Server::Outcome::kShedDraining:
          shed_reason = &FleetReport::shed_draining;
          break;
        case Server::Outcome::kNoSuchModel:
          return Status::Internal("model missing from replica registry");
        case Server::Outcome::kInvalidRequest:
          return Status::Internal(
              "fleet payload does not match the deployed shape");
      }
      canary.Degraded(pick);
      ledger.Shed(rid, shed_reason);
    }

    // 8. Advance every serving replica to the tick end and collect what
    // it dispatched.
    for (const auto& r : replicas_) {
      if (r->serving() && r->server->clock_ms() < now) {
        r->server->AdvanceTo(now);
      }
    }
    for (int i = 0; i < slots; ++i) harvest(i);

    // 9. Land the responses due by the tick end, and record the active
    // replicas for this tick's window.
    ledger.Land(now);
    int active = 0;
    for (const auto& r : replicas_) {
      if (r->state == State::kActive) ++active;
    }
    ledger.RecordActive(T, active);

    if (T >= load_end) {
      bool inflight = ledger.in_flight();
      for (const auto& r : replicas_) {
        inflight = inflight || !r->pending.empty();
      }
      if (!inflight || T > load_end + kTailLimitMs) break;
    }
  }

  // Force-drain whatever survived the tail limit.
  for (int i = 0; i < slots; ++i) {
    Replica& r = *replicas_[static_cast<size_t>(i)];
    if (r.serving() && r.server->queue_depth() > 0) r.server->Drain();
    harvest(i);
  }
  DLSYS_RETURN_NOT_OK(ledger.Close(load_end));
  return report;
}

}  // namespace dlsys
