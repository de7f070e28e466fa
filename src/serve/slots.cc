#include "src/serve/slots.h"

#include "src/core/status.h"
#include "src/obs/counters.h"

namespace dlsys {

SlotPool::SlotPool(int workers, int lanes_per_worker)
    : lanes_(lanes_per_worker) {
  DLSYS_CHECK(workers >= 1, "slot pool needs at least one worker");
  DLSYS_CHECK(lanes_per_worker >= 1, "slot pool needs at least one lane");
  states_.assign(static_cast<size_t>(workers) *
                     static_cast<size_t>(lanes_per_worker),
                 SlotState::kFree);
  counts_.resize(static_cast<size_t>(workers));
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

int SlotPool::Transition(int worker, SlotState from, SlotState to) {
  int moved = 0;
  const size_t first = static_cast<size_t>(worker) * static_cast<size_t>(lanes_);
  for (size_t i = first; i < first + static_cast<size_t>(lanes_); ++i) {
    if (states_[i] != from) continue;
    states_[i] = to;
    ++moved;
  }
  return moved;
}

int SlotPool::Load(int worker, double now_ms) {
  const int first = worker * lanes_;
  for (int index = first; index < first + lanes_; ++index) {
    SlotState& state = states_[static_cast<size_t>(index)];
    if (state != SlotState::kFree) continue;
    state = SlotState::kLoaded;
    ++counts_[static_cast<size_t>(worker)].loaded;
    ++total_loaded_;
    ++occupied_;
    DLSYS_COUNTER_ADD("serve.slots.loads", 1);
    Note(now_ms);
    return index;
  }
  DLSYS_CHECK(false, "Load called on a worker with no free lane");
  return -1;
}

int SlotPool::BeginStep(int worker, double now_ms) {
  const int joined = Transition(worker, SlotState::kLoaded,
                                SlotState::kExecuting);
  WorkerCounts& c = counts_[static_cast<size_t>(worker)];
  c.loaded -= joined;
  c.executing += joined;
  total_loaded_ -= joined;
  if (joined > 0) Note(now_ms);
  return joined;
}

int SlotPool::CompleteStep(int worker, double now_ms) {
  const int completed =
      Transition(worker, SlotState::kExecuting, SlotState::kFree);
  counts_[static_cast<size_t>(worker)].executing -= completed;
  occupied_ -= completed;
  if (completed > 0) Note(now_ms);
  return completed;
}

int64_t SlotPool::DropLoaded(double now_ms) {
  int64_t dropped = 0;
  for (int w = 0; w < static_cast<int>(counts_.size()); ++w) {
    const int lost = Transition(w, SlotState::kLoaded, SlotState::kFree);
    counts_[static_cast<size_t>(w)].loaded -= lost;
    dropped += lost;
  }
  total_loaded_ -= dropped;
  occupied_ -= static_cast<int>(dropped);
  if (dropped > 0) Note(now_ms);
  return dropped;
}

}  // namespace dlsys
