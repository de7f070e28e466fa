#ifndef DLSYS_SERVE_REGISTRY_H_
#define DLSYS_SERVE_REGISTRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/status.h"
#include "src/infer/engine.h"
#include "src/nn/sequential.h"
#include "src/tensor/tensor.h"

/// \file registry.h
/// \brief Named, versioned model snapshots with RCU-style atomic hot-swap.
///
/// A serving system must replace the deployed model without stalling
/// traffic: the tutorial's deployment discussion calls freshness of the
/// served model one axis of the serving tradeoff space. The mechanism
/// here is read-copy-update over `std::shared_ptr`: publishing compiles a
/// complete new ModelSnapshot off to the side, then swaps it in with one
/// atomic pointer exchange. Requests that already acquired the old
/// snapshot keep a reference and finish on the version they were admitted
/// under; the old snapshot's memory is reclaimed when its last in-flight
/// request drops the reference. Readers never wait on publishers and
/// publishers never wait for readers to drain.

namespace dlsys {

/// \brief One immutable published version of one model.
///
/// Logically immutable after Publish: name, version and shapes never
/// change. Its one replica holds the compiled InferenceEngine plus its
/// batch staging buffers — scratch workspace that PredictInto mutates,
/// so at most one thread at a time may drive it (the Server's event
/// loop).
struct ModelSnapshot {
  std::string model;    ///< registry name
  int64_t version = 0;  ///< assigned by ModelRegistry::Publish, from 1
  EngineConfig engine_config;
  Shape example_input_shape;
  Shape example_output_shape;
  int64_t in_elems = 0;   ///< flat input elements per example
  int64_t out_elems = 0;  ///< flat output elements per example

  /// The execution slot: engine + preallocated batch staging.
  struct Replica {
    std::unique_ptr<InferenceEngine> engine;
    Tensor in_staging;   ///< (max_batch, in_elems)
    Tensor out_staging;  ///< (max_batch, out_elems)
  };
  std::array<Replica, 1> replicas;
};

/// \brief Compiles \p net into a snapshot holding one engine and its
/// preallocated staging.
///
/// Returns the engine compiler's InvalidArgument/Unimplemented errors
/// unchanged. The returned snapshot has no name or version yet —
/// ModelRegistry::Publish assigns both.
Result<std::shared_ptr<ModelSnapshot>> CompileSnapshot(
    const Sequential& net, const Shape& example_shape,
    const EngineConfig& config = {});

/// \brief Thread-safe map from model name to its latest snapshot.
///
/// Publish and Acquire may be called concurrently from any threads. The
/// per-model slot holds the live snapshot behind an atomic pointer swap:
/// Acquire copies the shared_ptr (plus a short map lookup), Publish
/// replaces it. An acquired snapshot stays valid for as long as the
/// caller holds the shared_ptr, however many swaps happen meanwhile.
class ModelRegistry {
 public:
  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// \brief Publishes \p snap as the next version of \p model (versions
  /// count from 1 per model) and atomically swaps it in. Returns the
  /// assigned version. InvalidArgument when \p snap is null, its engine
  /// is null, it was already published (under any name), or \p model is
  /// empty.
  Result<int64_t> Publish(const std::string& model,
                          std::shared_ptr<ModelSnapshot> snap);

  /// \brief The latest snapshot of \p model, or nullptr if never
  /// published. Lock-free with respect to concurrent Publish calls on
  /// the same model.
  std::shared_ptr<ModelSnapshot> Acquire(const std::string& model) const;

  /// \brief Latest published version of \p model; 0 if absent.
  int64_t LatestVersion(const std::string& model) const;

  /// \brief All model names, sorted.
  std::vector<std::string> ModelNames() const;

  /// \brief Total number of Publish calls that replaced an existing
  /// snapshot (i.e. hot swaps, not first publications).
  int64_t swap_count() const { return swap_count_.load(); }

 private:
  /// The live-snapshot cell: a shared_ptr behind a mutex whose critical
  /// section is a single pointer copy/swap. This is deliberately not
  /// `std::atomic<std::shared_ptr<...>>`: libstdc++ implements that as a
  /// spin lock over the same pointer pair anyway (it is not lock-free),
  /// and its load() path releases the spin bit with memory_order_relaxed,
  /// which ThreadSanitizer's happens-before model reports as a data race
  /// against the next store. A real mutex has identical cost here and is
  /// fully visible to the sanitizers. Store destroys the displaced
  /// snapshot outside the critical section so a publisher never runs an
  /// engine teardown while readers wait.
  class SnapshotCell {
   public:
    std::shared_ptr<ModelSnapshot> Load() const {
      std::lock_guard<std::mutex> lock(mu_);
      return ptr_;
    }
    void Store(std::shared_ptr<ModelSnapshot> next) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ptr_.swap(next);
      }
      // `next` (the old snapshot, if this was its last reference) dies
      // here, after the lock is released.
    }

   private:
    mutable std::mutex mu_;
    std::shared_ptr<ModelSnapshot> ptr_;
  };

  /// Per-model slot; allocated once, never removed, so Acquire can hold
  /// a raw pointer to it briefly outside the map lock if ever needed.
  struct Slot {
    SnapshotCell current;
    int64_t version = 0;  ///< guarded by mu_ (Publish is serialized)
  };

  mutable std::mutex mu_;  ///< guards the map shape and version counters
  std::map<std::string, std::unique_ptr<Slot>> models_;
  std::atomic<int64_t> swap_count_{0};
};

}  // namespace dlsys

#endif  // DLSYS_SERVE_REGISTRY_H_
