#include "src/serve/slots.h"

#include "src/core/status.h"
#include "src/obs/counters.h"

namespace dlsys {

const char* SlotStateName(SlotState state) {
  switch (state) {
    case SlotState::kFree:
      return "free";
    case SlotState::kLoaded:
      return "loaded";
    case SlotState::kExecuting:
      return "executing";
  }
  return "unknown";
}

SlotPool::SlotPool(int workers, int lanes_per_worker)
    : workers_(workers),
      lanes_(lanes_per_worker),
      counts_(static_cast<size_t>(workers)) {
  DLSYS_CHECK(workers >= 1, "slot pool needs at least one worker");
  DLSYS_CHECK(lanes_per_worker >= 1, "slot pool needs at least one lane");
  slots_.resize(static_cast<size_t>(workers) *
                static_cast<size_t>(lanes_per_worker));
  for (int w = 0; w < workers; ++w) {
    for (int l = 0; l < lanes_per_worker; ++l) {
      Slot& slot = At(w, l);
      slot.index = w * lanes_per_worker + l;
      slot.worker = w;
    }
  }
}

Slot& SlotPool::At(int worker, int lane) {
  return slots_[static_cast<size_t>(worker) * static_cast<size_t>(lanes_) +
                static_cast<size_t>(lane)];
}

const Slot& SlotPool::At(int worker, int lane) const {
  return slots_[static_cast<size_t>(worker) * static_cast<size_t>(lanes_) +
                static_cast<size_t>(lane)];
}

void SlotPool::Note(double now_ms) {
  if (occupied_ > peak_occupancy_) peak_occupancy_ = occupied_;
  if (!timeline_.empty() && timeline_.back().first == now_ms) {
    timeline_.back().second = occupied_;  // coalesce same-instant churn
  } else {
    timeline_.emplace_back(now_ms, occupied_);
  }
  DLSYS_GAUGE_SET("serve.slots.occupied", occupied_);
}

int SlotPool::Load(int worker, int64_t request_id, double now_ms) {
  for (int l = 0; l < lanes_; ++l) {
    Slot& slot = At(worker, l);
    if (slot.state != SlotState::kFree) continue;
    slot.state = SlotState::kLoaded;
    slot.request_id = request_id;
    slot.since_ms = now_ms;
    ++counts_[static_cast<size_t>(worker)].loaded;
    ++total_loaded_;
    ++occupied_;
    ++total_loads_;
    DLSYS_COUNTER_ADD("serve.slots.loads", 1);
    Note(now_ms);
    return slot.index;
  }
  DLSYS_CHECK(false, "Load called on a worker with no free lane");
  return -1;
}

int SlotPool::BeginStep(int worker, double now_ms) {
  int joined = 0;
  for (int l = 0; l < lanes_; ++l) {
    Slot& slot = At(worker, l);
    if (slot.state != SlotState::kLoaded) continue;
    slot.state = SlotState::kExecuting;
    slot.since_ms = now_ms;
    ++joined;
  }
  WorkerCounts& c = counts_[static_cast<size_t>(worker)];
  c.loaded -= joined;
  c.executing += joined;
  total_loaded_ -= joined;
  if (joined > 0) Note(now_ms);
  return joined;
}

int SlotPool::CompleteStep(int worker, double now_ms) {
  int completed = 0;
  for (int l = 0; l < lanes_; ++l) {
    Slot& slot = At(worker, l);
    if (slot.state != SlotState::kExecuting) continue;
    slot.state = SlotState::kFree;
    slot.request_id = -1;
    slot.since_ms = now_ms;
    --occupied_;
    ++completed;
  }
  counts_[static_cast<size_t>(worker)].executing -= completed;
  if (completed > 0) Note(now_ms);
  return completed;
}

int64_t SlotPool::DropLoaded(double now_ms) {
  int64_t dropped = 0;
  for (Slot& slot : slots_) {
    if (slot.state != SlotState::kLoaded) continue;
    slot.state = SlotState::kFree;
    slot.request_id = -1;
    slot.since_ms = now_ms;
    --counts_[static_cast<size_t>(slot.worker)].loaded;
    --occupied_;
    ++dropped;
  }
  total_loaded_ -= dropped;
  if (dropped > 0) Note(now_ms);
  return dropped;
}

}  // namespace dlsys
