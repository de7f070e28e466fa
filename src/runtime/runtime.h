#ifndef DLSYS_RUNTIME_RUNTIME_H_
#define DLSYS_RUNTIME_RUNTIME_H_

#include <cstdint>

#include "src/core/status.h"

/// \file runtime.h
/// \brief The CPU execution runtime: process-wide thread configuration and
/// the deterministic ParallelFor primitive every hot kernel dispatches
/// through.
///
/// ## Determinism contract
///
/// ParallelFor splits [begin, end) into *contiguous, disjoint* index
/// ranges and hands each range to exactly one worker. Kernels built on it
/// obey one rule: the computation of any single output element happens
/// entirely inside one range, with a loop order that does not depend on
/// the partition. Because no accumulation ever crosses a range boundary,
/// the floating-point operation sequence per output element is identical
/// for every thread count — outputs are *bitwise identical* whether
/// DLSYS_THREADS is 1, 2, or 64. Parallelism changes only which core runs
/// a range, never the arithmetic inside it.
///
/// ## Configuration
///
/// The worker count comes from, in priority order: RuntimeConfig::SetThreads
/// (API), the DLSYS_THREADS environment variable read at first use, and
/// std::thread::hardware_concurrency() as the default. A value of 1
/// disables the pool entirely: ParallelFor then invokes the body inline on
/// the calling thread, byte-for-byte the legacy single-threaded path.
///
/// DLSYS_THREADS must be a whole decimal integer in [1, kMaxThreads]. Any
/// other value never aborts and never falls back silently: the runtime
/// keeps the hardware default and names the value in one stderr line, and
/// RuntimeConfig::ThreadsEnvStatus() turns it into an InvalidArgument that
/// InferenceEngine::Compile (and so Server::Publish) returns.

namespace dlsys {

/// \brief The largest DLSYS_THREADS value accepted. The pool starts one
/// OS thread per worker, so a larger value is refused rather than run.
inline constexpr int kMaxThreads = 1024;

/// \brief Process-wide runtime configuration (thread count).
///
/// Thread-safe. Changing the thread count tears down and rebuilds the
/// worker pool; call it between kernels, not inside a ParallelFor body.
class RuntimeConfig {
 public:
  /// \brief Current worker count (>= 1). First call resolves the
  /// DLSYS_THREADS environment variable, else hardware_concurrency().
  static int Threads();

  /// \brief Sets the worker count (clamped to >= 1) and resizes the pool.
  static void SetThreads(int n);

  /// \brief The default the process started with (env or hardware).
  static int DefaultThreads();

  /// \brief Checks DLSYS_THREADS as it reads now: OK when unset, empty, or
  /// a whole decimal integer in [1, kMaxThreads]; otherwise InvalidArgument
  /// naming the value. Never aborts and never starts a thread.
  static Status ThreadsEnvStatus();
};

/// \brief Non-owning reference to a `void(int64_t, int64_t)` callable.
///
/// ParallelFor takes its body by ParallelBody instead of std::function so
/// that dispatching a kernel never heap-allocates: a lambda with captures
/// larger than std::function's small-buffer would otherwise cost one
/// allocation per kernel launch, which both slows the hot path and breaks
/// the inference engine's zero-steady-state-allocation contract. The
/// referenced callable must outlive the ParallelFor call (always true for
/// a lambda argument, which lives to the end of the full expression).
class ParallelBody {
 public:
  template <typename F>
  ParallelBody(const F& f)  // NOLINT(runtime/explicit): adapter by design
      : obj_(&f), invoke_([](const void* o, int64_t lo, int64_t hi) {
          (*static_cast<const F*>(o))(lo, hi);
        }) {}

  void operator()(int64_t lo, int64_t hi) const { invoke_(obj_, lo, hi); }

 private:
  const void* obj_;
  void (*invoke_)(const void*, int64_t, int64_t);
};

/// \brief Runs \p body over [begin, end) with static contiguous
/// partitioning across the configured workers.
///
/// \p body receives half-open sub-ranges [lo, hi) that together cover
/// [begin, end) exactly once, with no overlap. \p grain is the minimum
/// range size worth shipping to a worker: when (end - begin) <= grain, or
/// the configured thread count is 1, the body runs inline on the caller —
/// the exact legacy code path. Nested calls from inside a worker also run
/// inline, so kernels may compose without deadlock.
///
/// The partition is static: ranges are computed up front from the total
/// extent alone and never stolen or re-split, which is what makes every
/// kernel built on this primitive bitwise deterministic across thread
/// counts (see file comment). Dispatch is allocation-free: the body is
/// passed by reference and the worker pool hands out ranges through a
/// generation-stamped fork-join protocol rather than a task queue.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 ParallelBody body);

}  // namespace dlsys

#endif  // DLSYS_RUNTIME_RUNTIME_H_
