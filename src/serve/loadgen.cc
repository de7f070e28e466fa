#include "src/serve/loadgen.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "src/core/rng.h"

namespace dlsys {

namespace {

/// The one example a run submits for every request, filled from \p rng.
/// An unknown model gets a 1-float stand-in that Submit turns away.
Tensor SeededExample(Server* server, const std::string& model, Rng* rng) {
  const std::shared_ptr<ModelSnapshot> snap =
      server->registry()->Acquire(model);
  Tensor example({snap == nullptr ? 1 : snap->in_elems});
  example.FillGaussian(rng, 1.0f);
  return example;
}

/// Folds one of the run's completions into \p report.
void Record(const Server::Completion& c, LoadReport* report) {
  ++report->completed;
  if (c.deadline_missed) ++report->deadline_missed;
  report->latency.Record(c.finish_ms - c.arrival_ms);
}

void FinishReport(double first_ms, double last_finish_ms, double wall_seconds,
                  LoadReport* report) {
  report->wall_seconds = wall_seconds;
  report->duration_ms = std::max(0.0, last_finish_ms - first_ms);
  if (report->duration_ms > 0.0) {
    report->sim_throughput_rps = static_cast<double>(report->completed) /
                                 (report->duration_ms / 1000.0);
  }
  if (wall_seconds > 0.0) {
    report->real_throughput_rps =
        static_cast<double>(report->completed) / wall_seconds;
  }
}

/// Product of the multipliers of the crowds active at \p t_ms, in
/// TraceRateAt's order, starting from \p rate.
double CrowdProduct(const TraceLoadConfig& config, double t_ms, double rate) {
  for (const FlashCrowd& crowd : config.crowds) {
    if (t_ms >= crowd.start_ms && t_ms < crowd.start_ms + crowd.duration_ms) {
      rate *= crowd.multiplier;
    }
  }
  return rate;
}

}  // namespace

std::vector<TenantShare> BalancedTenantMix(int n) {
  std::vector<TenantShare> mix;
  mix.reserve(static_cast<size_t>(std::max(0, n)));
  for (int i = 0; i < n; ++i) {
    mix.push_back({"t" + std::to_string(i), 1.0});
  }
  return mix;
}

std::vector<TenantShare> HotTenantMix(int n, double hot_factor) {
  std::vector<TenantShare> mix = BalancedTenantMix(n);
  if (!mix.empty()) mix[0].share = hot_factor;
  return mix;
}

std::vector<std::string> AssignTenants(const std::vector<TenantShare>& mix,
                                       uint64_t seed, int64_t n) {
  std::vector<std::string> assignment;
  if (mix.empty() || n <= 0) return assignment;
  double total = 0.0;
  for (const TenantShare& share : mix) total += std::max(0.0, share.share);
  // The third fork of the seed's root: RunTenantedOpenLoop draws its
  // arrival gaps from the first and its one example from the second, so
  // a caller with its own arrival process reproduces the identical
  // assignment from (mix, seed).
  Rng root(seed);
  root.Fork();
  root.Fork();
  Rng draws = root.Fork();
  assignment.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const double u = draws.Uniform() * total;
    double cum = 0.0;
    size_t pick = mix.size() - 1;
    for (size_t j = 0; j < mix.size(); ++j) {
      cum += std::max(0.0, mix[j].share);
      if (u < cum) {
        pick = j;
        break;
      }
    }
    assignment.push_back(mix[pick].tenant);
  }
  return assignment;
}

TenantedLoadReport RunTenantedOpenLoop(
    Server* server, const OpenLoopConfig& config,
    const std::function<void(int64_t)>& before_submit) {
  TenantedLoadReport report;
  Rng root(config.seed);
  Rng arrivals = root.Fork();
  Rng payload = root.Fork();
  const Tensor example = SeededExample(server, config.model, &payload);
  const std::vector<std::string> tenant_of =
      AssignTenants(config.mix, config.seed, config.requests);
  static const std::string kDefaultTenant = "default";
  const auto tenant_at = [&](int64_t i) -> const std::string& {
    return tenant_of.empty() ? kDefaultTenant
                             : tenant_of[static_cast<size_t>(i)];
  };
  const size_t completions_before = server->completions().size();

  Stopwatch wall;
  double t = std::max(config.start_ms, server->clock_ms());
  const double first_ms = t;
  // Submit numbers every offered request consecutively, and nothing else
  // submits during the run, so its requests are the ids from first_id on.
  int64_t first_id = std::numeric_limits<int64_t>::max();
  for (int64_t i = 0; i < config.requests; ++i) {
    // Inverse-CDF exponential gap: Poisson arrivals at rate_rps.
    t += -std::log(1.0 - arrivals.Uniform()) / config.rate_rps * 1000.0;
    if (before_submit) before_submit(i);
    const Server::SubmitResult r = server->Submit(
        config.model, example, t, config.deadline_ms, tenant_at(i));
    first_id = std::min(first_id, r.id);
    LoadReport& per = report.by_tenant[tenant_at(i)];
    ++report.total.offered;
    ++per.offered;
    if (r.outcome == Server::Outcome::kAdmitted) {
      ++report.total.admitted;
      ++per.admitted;
    } else {
      ++report.total.shed;
      ++per.shed;
    }
  }
  server->Drain();

  double last_finish = 0.0;
  const std::vector<Server::Completion>& done = server->completions();
  for (size_t i = completions_before; i < done.size(); ++i) {
    const Server::Completion& c = done[i];
    if (c.id < first_id) continue;  // earlier traffic, not this run's
    Record(c, &report.total);
    Record(c, &report.by_tenant[tenant_at(c.id - first_id)]);
    last_finish = std::max(last_finish, c.finish_ms);
  }
  FinishReport(first_ms, last_finish, wall.Seconds(), &report.total);

  // Per-tenant goodput over the run's simulated makespan, and the
  // max/min ratio the fairness tests bound. A tenant that offered load
  // but got nothing through makes the ratio infinite (starvation).
  const double duration_s = report.total.duration_ms / 1000.0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  for (auto& [tenant, per] : report.by_tenant) {
    const double good =
        duration_s > 0.0
            ? static_cast<double>(per.completed - per.deadline_missed) /
                  duration_s
            : 0.0;
    report.goodput_rps[tenant] = good;
    per.duration_ms = report.total.duration_ms;
    if (per.offered > 0) {
      lo = std::min(lo, good);
      hi = std::max(hi, good);
    }
  }
  if (report.by_tenant.empty() || !std::isfinite(lo)) {
    report.max_min_goodput_ratio = 1.0;
  } else if (lo <= 0.0) {
    report.max_min_goodput_ratio = std::numeric_limits<double>::infinity();
  } else {
    report.max_min_goodput_ratio = hi / lo;
  }
  return report;
}

double TraceRateAt(const TraceLoadConfig& config, double t_ms) {
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  double rate = config.base_rps;
  if (config.diurnal_amplitude != 0.0 && config.diurnal_period_ms > 0.0) {
    rate *= 1.0 + config.diurnal_amplitude *
                      std::sin(kTwoPi * (t_ms - config.start_ms) /
                               config.diurnal_period_ms);
  }
  return std::max(0.0, CrowdProduct(config, t_ms, rate));
}

double TracePeakRate(const TraceLoadConfig& config) {
  // The diurnal peak is analytic; flash crowds multiply on top. Assume
  // the worst case where every crowd interval sees the diurnal peak —
  // the envelope only needs to dominate, not be tight. The active set
  // only changes at a crowd's start or end, so the largest product of
  // overlapping crowds is one of the products taken there.
  double peak = config.base_rps * (1.0 + std::abs(config.diurnal_amplitude));
  double crowd_peak = 1.0;
  for (const FlashCrowd& crowd : config.crowds) {
    const double end = crowd.start_ms + crowd.duration_ms;
    for (const double t : {crowd.start_ms, end}) {
      crowd_peak = std::max(crowd_peak, CrowdProduct(config, t, 1.0));
    }
  }
  return peak * crowd_peak;
}

std::vector<double> GenerateTraceArrivals(const TraceLoadConfig& config) {
  std::vector<double> arrivals;
  const double peak = TracePeakRate(config);
  if (peak <= 0.0 || config.duration_ms <= 0.0) return arrivals;
  // Every rounding step of TraceRateAt is monotone in its operands, so
  // while no multiplier is negative, base * (1 + |amplitude|) times the
  // active multipliers (in TraceRateAt's order) is at least rate(t); a
  // draw at or above that bound is rejected without evaluating the
  // sinusoid. A NaN bound fails the test and falls through.
  const bool bounded = std::all_of(
      config.crowds.begin(), config.crowds.end(),
      [](const FlashCrowd& crowd) { return crowd.multiplier >= 0.0; });
  const double diurnal_bound =
      config.base_rps * (1.0 + std::abs(config.diurnal_amplitude));
  Rng rng(config.seed);
  Rng gaps = rng.Fork();
  Rng keep = rng.Fork();
  double t = config.start_ms;
  const double end = config.start_ms + config.duration_ms;
  while (true) {
    t += -std::log(1.0 - gaps.Uniform()) / peak * 1000.0;
    if (t >= end) break;
    // Thinning: the candidate survives with probability rate(t) / peak,
    // turning the homogeneous envelope into the shaped process.
    const double u = keep.Uniform() * peak;
    if (bounded && u >= CrowdProduct(config, t, diurnal_bound)) continue;
    if (u < TraceRateAt(config, t)) arrivals.push_back(t);
  }
  return arrivals;
}

LoadReport RunOpenLoop(Server* server, const OpenLoopConfig& config,
                       const std::function<void(int64_t)>& before_submit) {
  return RunTenantedOpenLoop(server, config, before_submit).total;
}

LoadReport RunClosedLoop(Server* server, const ClosedLoopConfig& config) {
  LoadReport report;
  Rng rng(config.seed);
  const Tensor example = SeededExample(server, config.model, &rng);

  struct Client {
    double next_ms = 0.0;   ///< earliest time of its next attempt
    int64_t sent = 0;       ///< attempts issued so far
    bool waiting = false;   ///< has a request in flight
  };
  std::vector<Client> clients(static_cast<size_t>(config.clients));
  // Submit numbers every offered request consecutively, and nothing else
  // submits during the run, so its requests are the ids from first_id on;
  // client_of[id - first_id] is the client that sent id.
  int64_t first_id = std::numeric_limits<int64_t>::max();
  std::vector<size_t> client_of;
  int64_t in_flight = 0;
  size_t seen = server->completions().size();
  const double start_ms = server->clock_ms();
  double last_finish = 0.0;

  Stopwatch wall;
  while (true) {
    // Fold the run's new completions and release their clients.
    const std::vector<Server::Completion>& done = server->completions();
    for (; seen < done.size(); ++seen) {
      const Server::Completion& fin = done[seen];
      if (fin.id < first_id) continue;  // earlier traffic, not ours
      Record(fin, &report);
      last_finish = std::max(last_finish, fin.finish_ms);
      Client& c = clients[client_of[static_cast<size_t>(fin.id - first_id)]];
      c.waiting = false;
      c.next_ms = fin.finish_ms + config.think_ms;
      --in_flight;
    }

    // Earliest client ready to send (lowest index breaks ties).
    int64_t who = -1;
    for (size_t i = 0; i < clients.size(); ++i) {
      const Client& c = clients[i];
      if (c.waiting || c.sent >= config.requests_per_client) continue;
      if (who < 0 || c.next_ms < clients[static_cast<size_t>(who)].next_ms) {
        who = static_cast<int64_t>(i);
      }
    }

    const double next_dispatch = server->NextActionableMs();
    if (who >= 0) {
      Client& c = clients[static_cast<size_t>(who)];
      const double t = std::max(c.next_ms, server->clock_ms());
      // Let the server reach any dispatch due before this send, so the
      // completion scan above can release other clients first.
      if (next_dispatch >= 0.0 && next_dispatch < t) {
        server->AdvanceTo(std::max(server->clock_ms(), next_dispatch));
        continue;
      }
      const Server::SubmitResult r =
          server->Submit(config.model, example, t, config.deadline_ms);
      first_id = std::min(first_id, r.id);
      client_of.push_back(static_cast<size_t>(who));
      ++c.sent;
      ++report.offered;
      if (r.outcome == Server::Outcome::kAdmitted) {
        ++report.admitted;
        c.waiting = true;
        ++in_flight;
      } else {
        ++report.shed;
        c.next_ms = t + config.think_ms;  // client-side backoff, then retry
      }
      continue;
    }
    if (next_dispatch >= 0.0) {
      server->AdvanceTo(std::max(server->clock_ms(), next_dispatch));
      continue;
    }
    if (in_flight == 0) break;  // every client finished its budget
    // In-flight requests but nothing actionable: drain whatever remains.
    server->Drain();
  }
  server->Drain();
  FinishReport(start_ms, last_finish, wall.Seconds(), &report);
  return report;
}

}  // namespace dlsys
