#ifndef DLSYS_OBS_COUNTERS_H_
#define DLSYS_OBS_COUNTERS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/core/metrics.h"
#include "src/obs/trace.h"  // DLSYS_OBS kill switch + macro helpers

/// \file counters.h
/// \brief Process-wide counters, gauges, and latency histograms behind
/// one name-interned registry with snapshot/diff semantics.
///
/// The registry replaces the pattern of every subsystem keeping its own
/// scalar tallies and stitching them into a MetricsReport at the end:
/// counters are registered once by name, incremented through sharded
/// atomics from any thread without contention, and read out as a
/// Snapshot. Tests assert *deltas* (Diff of two snapshots) so they stay
/// correct no matter what ran before them in the process. Exporters
/// render the whole registry as aligned text or JSON, which is where
/// benches now pull their p50/p99 from instead of building local
/// LatencyHistogram plumbing.
///
/// Counter* / Gauge* / SharedHistogram* handles returned by the registry
/// are valid for the process lifetime (Reset zeroes values, never
/// invalidates handles), so hot sites resolve a name once and keep the
/// handle: fixed names in the function-local static of DLSYS_COUNTER_ADD,
/// names built at runtime in whatever record owns them (a serving
/// Tenant holds its "serve.tenant.<name>.*" handles). Resolving a name
/// takes the registry mutex, so never do it per event.

namespace dlsys {
namespace obs {

/// \brief Monotone counter with cacheline-sharded atomics: concurrent
/// Add()s from different threads touch different shards.
class Counter {
 public:
  static constexpr int kShards = 16;

  void Add(int64_t delta) {
    shards_[ThisThreadShard()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  /// \brief Sum over shards. Concurrent adds may or may not be included.
  int64_t Value() const {
    int64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }
  /// \brief Zeroes every shard (registry Reset; not for concurrent use).
  void Clear() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<int64_t> v{0};
  };
  static int ThisThreadShard();
  Shard shards_[kShards];
};

/// \brief Last-writer-wins gauge (e.g. live workers, queue depth).
class Gauge {
 public:
  void Set(int64_t value) { v_.store(value, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// \brief Mutex-guarded LatencyHistogram safe to record from any thread;
/// the registry's unit of latency aggregation.
class SharedHistogram {
 public:
  void Record(double ms) {
    std::lock_guard<std::mutex> lock(mu_);
    h_.Record(ms);
  }
  /// \brief Consistent copy for quantile reads.
  LatencyHistogram Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return h_;
  }
  double Quantile(double q) const { return Snapshot().Quantile(q); }
  int64_t Count() const { return Snapshot().count(); }
  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    h_ = LatencyHistogram();
  }

 private:
  mutable std::mutex mu_;
  LatencyHistogram h_;
};

/// \brief The process-wide metric directory.
class CounterRegistry {
 public:
  /// \brief Counter values by name at one point in time.
  using Snapshot = std::map<std::string, int64_t>;

  static CounterRegistry& Global();

  /// \brief Interns \p name on first use; the handle lives forever.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  SharedHistogram* histogram(const std::string& name);

  /// \brief All counter and gauge values (gauges keyed as registered).
  Snapshot SnapshotCounters() const;

  /// \brief Per-key now - base, dropping keys absent from \p now. Keys
  /// new since \p base diff against 0, so tests created mid-process see
  /// exactly what ran between their two snapshots.
  static Snapshot Diff(const Snapshot& now, const Snapshot& base);

  /// \brief Quantile of a registered histogram; 0 when absent/empty.
  double HistogramQuantile(const std::string& name, double q) const;

  /// \brief Aligned "name = value" lines: counters, gauges, then
  /// histogram count/mean/p50/p95/p99/max rows.
  std::string ExportText() const;

  /// \brief One JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {"<name>": {"count":..., "p50_ms":..., ...}}}.
  std::string ExportJson() const;

  /// \brief Zeroes every counter, gauge, and histogram. Handles stay
  /// valid. Benches call this between measurement sections; avoid
  /// racing it against hot-path Add()s you intend to keep.
  void Reset();

 private:
  CounterRegistry() = default;

  mutable std::mutex mu_;  ///< guards the maps, not the values
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<SharedHistogram>> histograms_;
};

}  // namespace obs
}  // namespace dlsys

// ---------------------------------------------------------------- macros

#if DLSYS_OBS
/// Bumps a process-wide counter; the handle resolves once per site.
#define DLSYS_COUNTER_ADD(name, delta)                             \
  do {                                                             \
    static ::dlsys::obs::Counter* _dlsys_counter =                 \
        ::dlsys::obs::CounterRegistry::Global().counter(name);     \
    _dlsys_counter->Add(delta);                                    \
  } while (0)
#define DLSYS_GAUGE_SET(name, value)                               \
  do {                                                             \
    static ::dlsys::obs::Gauge* _dlsys_gauge =                     \
        ::dlsys::obs::CounterRegistry::Global().gauge(name);       \
    _dlsys_gauge->Set(value);                                      \
  } while (0)
#define DLSYS_HISTOGRAM_RECORD(name, ms)                           \
  do {                                                             \
    static ::dlsys::obs::SharedHistogram* _dlsys_hist =            \
        ::dlsys::obs::CounterRegistry::Global().histogram(name);   \
    _dlsys_hist->Record(ms);                                       \
  } while (0)
#else
#define DLSYS_COUNTER_ADD(name, delta) ((void)0)
#define DLSYS_GAUGE_SET(name, value) ((void)0)
#define DLSYS_HISTOGRAM_RECORD(name, ms) ((void)0)
#endif

#endif  // DLSYS_OBS_COUNTERS_H_
