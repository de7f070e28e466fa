#include "src/serve/scheduler.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <utility>

namespace dlsys {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
/// A bucket within rounding distance of a full token counts as funded, so
/// the refill time QuotaReadyMs reports is always actionable (an event
/// loop advancing to it finds the quota open, never a hair short).
constexpr double kTokenSlack = 1e-9;
}  // namespace

TenantScheduler::TenantScheduler(const SlotSchedulerConfig& config)
    : config_(config),
      cursor_(static_cast<size_t>(std::max(0, config.priority_classes))) {}

const TenantPolicy& TenantScheduler::PolicyFor(
    const std::string& tenant) const {
  auto it = config_.tenants.find(tenant);
  return it == config_.tenants.end() ? config_.default_policy : it->second;
}

TenantScheduler::TenantState& TenantScheduler::StateFor(
    const std::string& tenant) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    TenantState state;
    state.policy = PolicyFor(tenant);
    state.tokens = state.policy.burst;  // buckets start full
    it = tenants_.emplace(tenant, std::move(state)).first;
  }
  return it->second;
}

void TenantScheduler::Enqueue(SlotRequest request) {
  TenantState& state = StateFor(request.tenant);
  // Stamp the quota horizon the admission predictor already computes:
  // the earliest the bucket funds this request behind the tenant's
  // current backlog. Attribution reads it back as the quota/slot-wait
  // boundary (clamped to [arrival, dispatch] at completion, since DWFQ
  // rotation can serve slightly before or after the prediction).
  request.quota_open_ms =
      std::max(request.arrival_ms,
               QuotaBacklogMs(request.tenant, request.arrival_ms));
  state.queue.push_back(std::move(request));
  ++depth_;
}

double TenantScheduler::TokensAt(const TenantState& state,
                                 double now_ms) const {
  const double elapsed = std::max(0.0, now_ms - state.refill_ms);
  return std::min(state.policy.burst,
                  state.tokens + state.policy.rate_rps * elapsed / 1000.0);
}

void TenantScheduler::Refill(TenantState* state, double now_ms) const {
  state->tokens = TokensAt(*state, now_ms);
  state->refill_ms = std::max(state->refill_ms, now_ms);
}

bool TenantScheduler::QuotaOpen(const TenantState& state,
                                double now_ms) const {
  if (!config_.enforce_quotas || state.policy.rate_rps <= 0.0) return true;
  return TokensAt(state, now_ms) >= 1.0 - kTokenSlack;
}

int64_t TenantScheduler::FirstMatch(const TenantState& state,
                                    const ModelSnapshot* pin) {
  if (pin == nullptr) return state.queue.empty() ? -1 : 0;
  for (size_t i = 0; i < state.queue.size(); ++i) {
    if (state.queue[i].snap.get() == pin) return static_cast<int64_t>(i);
  }
  return -1;
}

SlotRequest TenantScheduler::Serve(TenantState* state, int64_t pos,
                                   double now_ms) {
  Refill(state, now_ms);
  if (config_.enforce_quotas && state->policy.rate_rps > 0.0) {
    state->tokens = std::max(0.0, state->tokens - 1.0);
  }
  ++state->served;
  --depth_;
  SlotRequest request =
      std::move(state->queue[static_cast<size_t>(pos)]);
  state->queue.erase(state->queue.begin() + pos);
  return request;
}

std::optional<SlotRequest> TenantScheduler::PickFifo(
    double now_ms, const ModelSnapshot* pin) {
  // The control path: priority classes still order service, but inside a
  // class the pick is global FIFO by request id — exactly the policy
  // under which one hot tenant starves the rest.
  for (int cls = 0; cls < config_.priority_classes; ++cls) {
    TenantState* best = nullptr;
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
    const TenantState& state = it->second;
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

    std::string& cursor = cursor_[static_cast<size_t>(cls)];
    auto it = RingFrom(tenants_.lower_bound(cursor), cls);
    // A tenant reaches a full unit of deficit after at most
    // ceil(1/min_weight) top-ups, so the scan is bounded.
    const int64_t max_visits =
        ring_size * (2 + static_cast<int64_t>(std::ceil(1.0 / min_weight)));
    for (int64_t visits = 0; visits < max_visits; ++visits) {
      TenantState& state = it->second;
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
      cursor = stay ? it->first : next->first;
      return request;
    }
    DLSYS_CHECK(false, "DWFQ scan failed to converge");
  }
  return std::nullopt;
}

double TenantScheduler::QuotaReadyMs(const std::string& tenant,
                                     double now_ms) const {
  if (!config_.enforce_quotas) return now_ms;
  const TenantPolicy& policy = PolicyFor(tenant);
  if (policy.rate_rps <= 0.0) return now_ms;
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return now_ms;  // untouched bucket starts full
  const double tokens = TokensAt(it->second, now_ms);
  if (tokens >= 1.0 - kTokenSlack) return now_ms;
  return now_ms + (1.0 - tokens) * 1000.0 / policy.rate_rps;
}

double TenantScheduler::QuotaBacklogMs(const std::string& tenant,
                                       double now_ms) const {
  if (!config_.enforce_quotas) return now_ms;
  const TenantPolicy& policy = PolicyFor(tenant);
  if (policy.rate_rps <= 0.0) return now_ms;
  auto it = tenants_.find(tenant);
  const double queued =
      it == tenants_.end() ? 0.0 : static_cast<double>(it->second.queue.size());
  const double tokens =
      it == tenants_.end() ? policy.burst : TokensAt(it->second, now_ms);
  const double needed = queued + 1.0;
  if (tokens >= needed - kTokenSlack) return now_ms;
  return now_ms + (needed - tokens) * 1000.0 / policy.rate_rps;
}

double TenantScheduler::NextEligibleMs(double now_ms) const {
  if (depth_ == 0) return -1.0;
  double best = kInf;
  for (const auto& [name, state] : tenants_) {
    if (state.queue.empty()) continue;
    best = std::min(best, QuotaReadyMs(name, now_ms));
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

int64_t TenantScheduler::served(const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.served;
}

}  // namespace dlsys
