#include "src/serve/scheduler.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <tuple>
#include <utility>

#include "src/obs/counters.h"

namespace dlsys {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
/// A bucket within rounding distance of a full token counts as funded, so
/// the refill time QuotaReadyMs reports is always actionable (an event
/// loop advancing to it finds the quota open, never a hair short).
constexpr double kTokenSlack = 1e-9;
}  // namespace

void RequestFifo::push_back(SlotRequest request) {
  if (count_ == ring_.size()) {
    std::vector<SlotRequest> grown(std::max<size_t>(8, 2 * ring_.size()));
    for (size_t i = 0; i < count_; ++i) grown[i] = std::move(At(i));
    ring_ = std::move(grown);
    head_ = 0;
  }
  ++count_;
  At(count_ - 1) = std::move(request);
}

SlotRequest RequestFifo::Take(size_t i) {
  SlotRequest request = std::move(At(i));
  // Close the gap from the shorter side: the head of the queue, the usual
  // pick, moves nothing.
  if (i < count_ - 1 - i) {
    for (size_t j = i; j > 0; --j) At(j) = std::move(At(j - 1));
    head_ = (head_ + 1) & (ring_.size() - 1);
  } else {
    for (size_t j = i + 1; j < count_; ++j) At(j - 1) = std::move(At(j));
  }
  --count_;
  return request;
}

void RequestFifo::clear() {
  for (size_t i = 0; i < count_; ++i) At(i) = SlotRequest();
  head_ = 0;
  count_ = 0;
}

Tenant::Tenant(const std::string& tenant_name,
               const TenantPolicy& tenant_policy)
    : name(tenant_name), policy(tenant_policy), tokens(policy.burst) {
#if DLSYS_OBS
  // DLSYS_COUNTER_ADD caches one handle per call site, which cannot serve
  // a per-tenant name; each record resolves its own handles once instead.
  obs::CounterRegistry& registry = obs::CounterRegistry::Global();
  const std::string prefix = "serve.tenant." + name + ".";
  counters.offered = registry.counter(prefix + "offered");
  counters.admitted = registry.counter(prefix + "admitted");
  counters.completed = registry.counter(prefix + "completed");
  counters.deadline_missed = registry.counter(prefix + "deadline_missed");
  counters.shed_queue_full = registry.counter(prefix + "shed.queue_full");
  counters.shed_deadline =
      registry.counter(prefix + "shed.deadline_infeasible");
  counters.shed_draining = registry.counter(prefix + "shed.draining");
  counters.latency = registry.histogram(prefix + "latency_ms");
#endif
}

TenantScheduler::TenantScheduler(const SlotSchedulerConfig& config)
    : config_(config),
      cursor_(static_cast<size_t>(std::max(0, config.priority_classes)),
              tenants_.end()) {}

Tenant& TenantScheduler::Intern(const std::string& name) {
  auto it = tenants_.lower_bound(name);
  if (it == tenants_.end() || it->first != name) {
    const auto policy = config_.tenants.find(name);
    it = tenants_.emplace_hint(
        it, std::piecewise_construct, std::forward_as_tuple(name),
        std::forward_as_tuple(name, policy == config_.tenants.end()
                                        ? config_.default_policy
                                        : policy->second));
  }
  return it->second;
}

void TenantScheduler::Enqueue(SlotRequest request) {
  Tenant& state = *request.tenant;
  // Stamp the quota horizon the admission predictor already computes:
  // the earliest the bucket funds this request behind the tenant's
  // current backlog. Attribution reads it back as the quota/slot-wait
  // boundary (clamped to [arrival, dispatch] at completion, since DWFQ
  // rotation can serve slightly before or after the prediction).
  request.quota_open_ms =
      std::max(request.arrival_ms, QuotaBacklogMs(state, request.arrival_ms));
  state.queue.push_back(std::move(request));
  ++depth_;
}

double TenantScheduler::TokensAt(const Tenant& state,
                                 double now_ms) const {
  const double elapsed = std::max(0.0, now_ms - state.refill_ms);
  return std::min(state.policy.burst,
                  state.tokens + state.policy.rate_rps * elapsed / 1000.0);
}

void TenantScheduler::Refill(Tenant* state, double now_ms) const {
  state->tokens = TokensAt(*state, now_ms);
  state->refill_ms = std::max(state->refill_ms, now_ms);
}

bool TenantScheduler::QuotaOpen(const Tenant& state,
                                double now_ms) const {
  if (!config_.enforce_quotas || state.policy.rate_rps <= 0.0) return true;
  return TokensAt(state, now_ms) >= 1.0 - kTokenSlack;
}

int64_t TenantScheduler::FirstMatch(const Tenant& state,
                                    const ModelSnapshot* pin) {
  if (pin == nullptr) return state.queue.empty() ? -1 : 0;
  for (size_t i = 0; i < state.queue.size(); ++i) {
    if (state.queue[i].snap.get() == pin) return static_cast<int64_t>(i);
  }
  return -1;
}

SlotRequest TenantScheduler::Serve(Tenant* state, int64_t pos,
                                   double now_ms) {
  Refill(state, now_ms);
  if (config_.enforce_quotas && state->policy.rate_rps > 0.0) {
    state->tokens = std::max(0.0, state->tokens - 1.0);
  }
  ++state->served;
  --depth_;
  return state->queue.Take(static_cast<size_t>(pos));
}

std::optional<SlotRequest> TenantScheduler::PickFifo(
    double now_ms, const ModelSnapshot* pin) {
  // The control path: priority classes still order service, but inside a
  // class the pick is global FIFO by request id — exactly the policy
  // under which one hot tenant starves the rest.
  for (int cls = 0; cls < config_.priority_classes; ++cls) {
    Tenant* best = nullptr;
    int64_t best_pos = -1;
    int64_t best_id = std::numeric_limits<int64_t>::max();
    for (auto& [name, state] : tenants_) {
      if (state.policy.priority != cls || state.queue.empty()) continue;
      if (!QuotaOpen(state, now_ms)) continue;
      const int64_t pos = FirstMatch(state, pin);
      if (pos < 0) continue;
      const int64_t id = state.queue[static_cast<size_t>(pos)].id;
      if (id < best_id) {
        best_id = id;
        best = &state;
        best_pos = pos;
      }
    }
    if (best != nullptr) return Serve(best, best_pos, now_ms);
  }
  return std::nullopt;
}

TenantScheduler::TenantMap::iterator TenantScheduler::RingFrom(
    TenantMap::iterator it, int cls) {
  for (;; ++it) {
    if (it == tenants_.end()) it = tenants_.begin();
    const Tenant& state = it->second;
    if (state.policy.priority == cls && !state.queue.empty()) return it;
  }
}

std::optional<SlotRequest> TenantScheduler::PickNext(
    double now_ms, const ModelSnapshot* pin) {
  if (depth_ == 0) return std::nullopt;
  if (!config_.fair_queueing) return PickFifo(now_ms, pin);

  for (int cls = 0; cls < config_.priority_classes; ++cls) {
    // The class's scan ring is its backlogged tenants in name order,
    // walked in place over tenants_ by RingFrom, so a pick allocates
    // nothing.
    int64_t ring_size = 0;
    double min_weight = kInf;
    bool any_eligible = false;
    for (auto& [name, state] : tenants_) {
      if (state.policy.priority != cls || state.queue.empty()) continue;
      ++ring_size;
      min_weight = std::min(min_weight, state.policy.weight);
      if (QuotaOpen(state, now_ms) && FirstMatch(state, pin) >= 0) {
        any_eligible = true;
      }
    }
    if (!any_eligible) continue;  // strict priority is over *eligible* work

    TenantMap::iterator& cursor = cursor_[static_cast<size_t>(cls)];
    auto it = RingFrom(cursor, cls);
    // A tenant reaches a full unit of deficit after at most
    // ceil(1/min_weight) top-ups, so the scan is bounded.
    const int64_t max_visits =
        ring_size * (2 + static_cast<int64_t>(std::ceil(1.0 / min_weight)));
    for (int64_t visits = 0; visits < max_visits; ++visits) {
      Tenant& state = it->second;
      // Taken before Serve, which may empty this tenant's queue.
      const auto next = RingFrom(std::next(it), cls);
      const bool eligible =
          QuotaOpen(state, now_ms) && FirstMatch(state, pin) >= 0;
      if (!eligible) {
        state.deficit = 0.0;  // blocked tenants bank no credit
        it = next;
        continue;
      }
      if (state.deficit < 1.0) state.deficit += state.policy.weight;
      if (state.deficit < 1.0) {
        it = next;
        continue;
      }
      state.deficit -= 1.0;
      SlotRequest request = Serve(&state, FirstMatch(state, pin), now_ms);
      // The cursor stays while the tenant's credit and backlog last, so
      // a weight-w tenant takes ~w consecutive slots per rotation.
      const bool stay = state.deficit >= 1.0 && !state.queue.empty() &&
                        QuotaOpen(state, now_ms);
      cursor = stay ? it : next;
      return request;
    }
    DLSYS_CHECK(false, "DWFQ scan failed to converge");
  }
  return std::nullopt;
}

double TenantScheduler::QuotaReadyMs(const Tenant& tenant,
                                     double now_ms) const {
  if (!config_.enforce_quotas || tenant.policy.rate_rps <= 0.0) return now_ms;
  const double tokens = TokensAt(tenant, now_ms);
  if (tokens >= 1.0 - kTokenSlack) return now_ms;
  return now_ms + (1.0 - tokens) * 1000.0 / tenant.policy.rate_rps;
}

double TenantScheduler::QuotaBacklogMs(const Tenant& tenant,
                                       double now_ms) const {
  if (!config_.enforce_quotas || tenant.policy.rate_rps <= 0.0) return now_ms;
  const double queued = static_cast<double>(tenant.queue.size());
  const double tokens = TokensAt(tenant, now_ms);
  const double needed = queued + 1.0;
  if (tokens >= needed - kTokenSlack) return now_ms;
  return now_ms + (needed - tokens) * 1000.0 / tenant.policy.rate_rps;
}

double TenantScheduler::NextEligibleMs(double now_ms) const {
  if (depth_ == 0) return -1.0;
  double best = kInf;
  for (const auto& [name, state] : tenants_) {
    if (state.queue.empty()) continue;
    best = std::min(best, QuotaReadyMs(state, now_ms));
    if (best <= now_ms) return now_ms;
  }
  return best == kInf ? -1.0 : best;
}

int64_t TenantScheduler::DropAll() {
  int64_t dropped = 0;
  for (auto& [name, state] : tenants_) {
    dropped += static_cast<int64_t>(state.queue.size());
    state.queue.clear();
  }
  depth_ -= dropped;
  return dropped;
}

}  // namespace dlsys
