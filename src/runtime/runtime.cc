#include "src/runtime/runtime.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "src/obs/trace.h"
#include "src/runtime/thread_pool.h"

namespace dlsys {
namespace {

/// True while the current thread is executing a ParallelFor range; nested
/// parallel calls then run inline instead of deadlocking on the pool.
thread_local bool t_in_parallel_region = false;

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

/// Parses DLSYS_THREADS into \p threads (0 when unset or empty). Only a
/// whole decimal integer in [1, kMaxThreads] is accepted; anything else
/// is an InvalidArgument naming the value.
Status ReadEnvThreads(int* threads) {
  *threads = 0;
  const char* env = std::getenv("DLSYS_THREADS");
  if (env == nullptr || env[0] == '\0') return Status::OK();
  int64_t value = 0;
  for (const char* c = env; *c != '\0' && value <= kMaxThreads; ++c) {
    if (*c < '0' || *c > '9') {
      value = -1;
      break;
    }
    value = value * 10 + (*c - '0');
  }
  if (value < 1 || value > kMaxThreads) {
    return Status::InvalidArgument(std::string("DLSYS_THREADS=") + env +
                                   " is not a whole number in [1, " +
                                   std::to_string(kMaxThreads) + "]");
  }
  *threads = static_cast<int>(value);
  return Status::OK();
}

/// Pool state guarded by a mutex; the pool is rebuilt on SetThreads.
struct Runtime {
  std::mutex mu;
  int threads = 0;                  // 0 = not yet resolved
  int default_threads = 0;
  std::unique_ptr<ThreadPool> pool;

  static Runtime& Get() {
    static Runtime* r = new Runtime;  // leaked: workers may outlive main
    return *r;
  }

  /// Resolves the env/hardware default on first use. A rejected
  /// DLSYS_THREADS keeps the hardware default and says so once; Compile
  /// reports it as a Status.
  void EnsureResolved() {
    if (threads == 0) {
      int env_threads = 0;
      const Status env = ReadEnvThreads(&env_threads);
      default_threads = env_threads > 0 ? env_threads : HardwareThreads();
      if (!env.ok()) {
        std::fprintf(stderr, "dlsys: %s; using %d threads\n",
                     env.message().c_str(), default_threads);
      }
      threads = default_threads;
    }
  }

  ThreadPool* EnsurePool() {
    EnsureResolved();
    if (!pool && threads > 1) {
      pool = std::make_unique<ThreadPool>(threads - 1);
    }
    return pool.get();
  }
};

}  // namespace

int RuntimeConfig::Threads() {
  Runtime& rt = Runtime::Get();
  std::lock_guard<std::mutex> lock(rt.mu);
  rt.EnsureResolved();
  return rt.threads;
}

void RuntimeConfig::SetThreads(int n) {
  Runtime& rt = Runtime::Get();
  std::lock_guard<std::mutex> lock(rt.mu);
  rt.EnsureResolved();
  const int clamped = std::max(1, n);
  if (clamped == rt.threads) return;
  rt.pool.reset();  // join existing workers before resizing
  rt.threads = clamped;
}

int RuntimeConfig::DefaultThreads() {
  Runtime& rt = Runtime::Get();
  std::lock_guard<std::mutex> lock(rt.mu);
  rt.EnsureResolved();
  return rt.default_threads;
}

Status RuntimeConfig::ThreadsEnvStatus() {
  int threads = 0;
  return ReadEnvThreads(&threads);
}

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 ParallelBody body) {
  const int64_t total = end - begin;
  if (total <= 0) return;
  if (grain < 1) grain = 1;

  ThreadPool* pool = nullptr;
  int threads = 1;
  {
    Runtime& rt = Runtime::Get();
    std::lock_guard<std::mutex> lock(rt.mu);
    rt.EnsureResolved();
    threads = rt.threads;
    if (threads > 1 && total > grain && !t_in_parallel_region) {
      pool = rt.EnsurePool();
    }
  }

  if (pool == nullptr || threads == 1 || total <= grain ||
      t_in_parallel_region) {
    body(begin, end);  // exact legacy single-threaded path
    return;
  }

  // Static contiguous partition: chunk c covers [begin + c*base + min(c,rem),
  // ...) with the first `rem` chunks one element longer. The partition is a
  // pure function of (total, chunks); chunk contents never migrate or split.
  // The pool derives each worker's chunk from the same closed form, so
  // dispatch builds no task objects and performs no heap allocation.
  const int64_t chunks =
      std::min<int64_t>(threads, (total + grain - 1) / grain);
  // The extent rides in the bytes slot (there is no dedicated arg).
  DLSYS_TRACE_SPAN_COST("runtime.parallel_for", "runtime", 0, total);
  const auto guarded = [&body](int64_t lo, int64_t hi) {
    t_in_parallel_region = true;
    // One span per partition: the range extent rides in the bytes slot so
    // load imbalance across workers is visible in the trace.
    DLSYS_TRACE_SPAN_COST("runtime.range", "runtime", 0, hi - lo);
    body(lo, hi);
    t_in_parallel_region = false;
  };
  const ParallelBody guarded_body(guarded);
  pool->RunParallel(guarded_body, begin, total, chunks);
}

}  // namespace dlsys
