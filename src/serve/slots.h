#ifndef DLSYS_SERVE_SLOTS_H_
#define DLSYS_SERVE_SLOTS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

/// \file slots.h
/// \brief The slot pool of the continuous-batching scheduler: a fixed
/// set of persistent request lanes that requests join and leave while
/// neighboring lanes keep executing.
///
/// ## Model
///
/// Each serving worker owns `lanes_per_worker` slots. A request the
/// TenantScheduler selects is *loaded* into a free slot of some worker;
/// when that worker is idle and has loaded slots, all of them *begin a
/// step* together (one real engine batch); when the step's modeled finish
/// time passes, its slots free and refill immediately from the scheduler.
/// Because loading is decoupled from stepping, a request arriving while a
/// worker is mid-step joins one of its free lanes right away and rides
/// the next step the instant the current one finishes — continuous
/// batching, with no drain barrier between batches.
///
/// Per-request lifecycle (the state machine the slot states realize):
///
///     queued (TenantScheduler) -> admitted-to-slot (kLoaded)
///       -> executing (kExecuting) -> complete (slot kFree again)
///
/// ## Determinism
///
/// The pool is pure bookkeeping over the *simulated* clock: every
/// transition is stamped with a caller-provided simulated time and the
/// pool never reads wall time, so the occupancy timeline replays
/// bit-for-bit at any DLSYS_THREADS alongside the rest of the schedule.

namespace dlsys {

/// \brief Lifecycle of one slot lane.
enum class SlotState {
  kFree,       ///< no request bound
  kLoaded,     ///< request bound, waiting for its worker's next step
  kExecuting,  ///< request riding the worker's in-flight step
};

/// \brief Stable lowercase name ("free", "loaded", "executing").
const char* SlotStateName(SlotState state);

/// \brief One persistent request lane.
struct Slot {
  int index = 0;                      ///< global slot id
  int worker = 0;                     ///< owning worker
  SlotState state = SlotState::kFree;
  int64_t request_id = -1;            ///< bound request; -1 when free
  double since_ms = 0.0;              ///< simulated time of last transition
};

/// \brief Fixed pool of `workers * lanes_per_worker` slots with
/// deterministic lowest-index-first allocation and an occupancy timeline.
class SlotPool {
 public:
  /// \brief Builds the pool; both arguments must be >= 1 (checked).
  SlotPool(int workers, int lanes_per_worker);

  int workers() const { return workers_; }
  int lanes_per_worker() const { return lanes_; }
  int size() const { return static_cast<int>(slots_.size()); }

  /// \brief Free lanes of \p worker.
  int FreeLanes(int worker) const {
    const WorkerCounts& c = counts_[static_cast<size_t>(worker)];
    return lanes_ - c.loaded - c.executing;
  }
  /// \brief Loaded (bound, not yet stepping) lanes of \p worker.
  int LoadedCount(int worker) const {
    return counts_[static_cast<size_t>(worker)].loaded;
  }
  /// \brief Lanes riding \p worker's in-flight step.
  int ExecutingCount(int worker) const {
    return counts_[static_cast<size_t>(worker)].executing;
  }
  /// \brief Loaded lanes across the pool.
  int64_t TotalLoaded() const { return total_loaded_; }
  /// \brief Loaded + executing lanes across the pool.
  int occupancy() const { return occupied_; }

  /// \brief Binds \p request_id to the lowest-index free slot of
  /// \p worker (checked: one must exist) and returns the slot index.
  int Load(int worker, int64_t request_id, double now_ms);

  /// \brief Moves every loaded slot of \p worker to kExecuting (the
  /// worker's next step departs) and returns how many joined it.
  int BeginStep(int worker, double now_ms);

  /// \brief Frees every executing slot of \p worker (its step's modeled
  /// finish time passed) and returns how many requests completed.
  int CompleteStep(int worker, double now_ms);

  /// \brief Frees every *loaded* slot pool-wide (a crash loses requests
  /// that never dispatched) and returns how many died. Executing slots
  /// are untouched: their batches already left.
  int64_t DropLoaded(double now_ms);

  /// \brief Every slot, by index.
  const std::vector<Slot>& slots() const { return slots_; }

  /// \brief (t_ms, occupied) after all transitions at each distinct
  /// simulated time — same-time entries coalesce to the final value, so
  /// a zero here means the pool was actually empty at that instant. The
  /// continuous-batching test asserts this never hits zero under
  /// sustained load.
  const std::vector<std::pair<double, int>>& occupancy_timeline() const {
    return timeline_;
  }

  /// \brief Total Load() calls over the pool's lifetime.
  int64_t total_loads() const { return total_loads_; }
  /// \brief Highest occupancy ever observed.
  int peak_occupancy() const { return peak_occupancy_; }

 private:
  Slot& At(int worker, int lane);
  const Slot& At(int worker, int lane) const;
  /// Records the post-transition occupancy at \p now_ms.
  void Note(double now_ms);

  /// Per-worker lane tallies, kept in step with the slot states so the
  /// scheduler's per-event queries are O(1).
  struct WorkerCounts {
    int loaded = 0;
    int executing = 0;
  };

  int workers_;
  int lanes_;
  std::vector<Slot> slots_;  ///< slot (w, l) lives at index w * lanes_ + l
  std::vector<WorkerCounts> counts_;  ///< by worker
  int64_t total_loaded_ = 0;
  int occupied_ = 0;
  int peak_occupancy_ = 0;
  int64_t total_loads_ = 0;
  std::vector<std::pair<double, int>> timeline_;
};

}  // namespace dlsys

#endif  // DLSYS_SERVE_SLOTS_H_
