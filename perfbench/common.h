#ifndef DLSYS_PERFBENCH_COMMON_H_
#define DLSYS_PERFBENCH_COMMON_H_

// Shared plumbing of the repository benchmark: command-line options, the
// result every workload fills, order statistics with the
// ten-samples-beyond rule, the heap-allocation hook, and aggregation of
// drained trace spans.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< working files (saved model parameters)
};

/// What one run reports: the verdict line plus notes printed above it
/// (thread counts, sample counts, check verdicts).
struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;

  void Note(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  /// Records a failed output check: the run is not correct.
  void Fail(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
};

/// Thrown for a malformed invocation or a program call that returned an
/// error; main() turns it into a non-zero exit without a result line.
struct BenchError {
  std::string message;
};
[[noreturn]] void Die(const std::string& message);

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double Us() const { return Seconds() * 1e6; }
  double Ms() const { return Seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Spreads side measurements evenly over a run of \p seconds: Due(done,
/// total) holds while fewer than total * elapsed / seconds of them have
/// run, so they sample the whole run instead of its first moment.
class Pacer {
 public:
  explicit Pacer(double seconds) : seconds_(seconds) {}
  bool Due(int64_t done, int64_t total) const {
    const double share = std::min(1.0, clock_.Seconds() / seconds_);
    return done < total && static_cast<double>(done) <= share * static_cast<double>(total);
  }
  bool Expired() const { return clock_.Seconds() >= seconds_; }

 private:
  Stopwatch clock_;
  double seconds_;
};

/// Moves the calling thread to the next group of \p width cores of the
/// process's CPU set at most once every \p period_s seconds. On a shared
/// host each core's neighbours load it differently and for minutes at a
/// time, so a run that stayed on the core it started on would read faster
/// or slower than the next by chance; rotating samples every core. Threads
/// created after a move inherit its core group.
class CoreRotation {
 public:
  CoreRotation(double period_s, int width);
  /// Call between timed calls, never inside one.
  void MaybeRotate();

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
  int width_;
  double period_s_;
  Stopwatch since_;
};

double Median(std::vector<double> values);
double Sum(const std::vector<double>& values);

/// Nearest-rank percentile \p q of \p values. Dies unless at least ten
/// samples lie beyond the reported rank, so every printed tail is backed
/// by data. Adds a note naming \p label with the sample count.
double Tail(std::vector<double> values, double q, const std::string& label,
            Result* out);

/// Nearest-rank percentile \p q within each run of \p window consecutive
/// samples (a short last run joins the one before), then the median over
/// those windows, so a burst of host noise decides one window, not the
/// run. \p window must leave ten samples beyond the percentile.
double WindowedTail(const std::vector<double>& values, size_t window, double q,
                    const std::string& label, Result* out);

/// ru_maxrss of this process, MiB.
double PeakRssMb();

/// Global operator-new hook: counts allocations while enabled.
void SetAllocCounting(bool on);
int64_t AllocCount();

/// True when the two float ranges are bit-equal.
bool BitEqual(const float* a, const float* b, int64_t n);

/// FNV-1a over raw bytes, for replay fingerprints.
uint64_t Fnv(uint64_t h, const void* data, size_t bytes);

/// Runs \p fn under a benchmark-owned wall span \p name (TraceBegin /
/// TraceEnd), which is a no-op while tracing is off.
template <typename Fn>
auto Spanned(const char* name, Fn&& fn) {
  const int64_t start = dlsys::obs::TraceBegin();
  struct End {
    const char* name;
    int64_t start;
    ~End() { dlsys::obs::TraceEnd(name, "bench", start); }
  } end{name, start};
  return fn();
}

/// Per-name aggregate of drained wall-track spans: count, inclusive and
/// self time (SelfTimeByName), and the FLOPs their cost tags carry.
struct SpanAgg {
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  double flops = 0.0;
};

/// Wall-track ring capacity per thread (src/obs/trace.cc). A ring that
/// never filled between two resets never dropped.
inline constexpr int64_t kWallRingCapacity = 1 << 14;

class SpanLedger {
 public:
  /// Folds one drained buffer (wall track only) into the ledger. Call
  /// ResetTrace() after each drain so every buffer covers one ring fill.
  void Add(const dlsys::obs::TraceBuffer& buffer);
  const SpanAgg& Get(const std::string& name) const;
  /// Sum over every name starting with \p prefix.
  SpanAgg Prefix(const std::string& prefix) const;
  /// Durations (us) of every engine.predict span, in drain order.
  const std::vector<double>& predict_us() const { return predict_us_; }
  /// Length (ms) of the union of engine.predict intervals over threads.
  double predict_union_ms() const { return predict_union_ms_; }
  /// True when some thread's wall ring filled, so spans may be lost.
  bool wall_ring_filled() const { return max_per_thread_ >= kWallRingCapacity; }
  /// Events the rings dropped, both tracks.
  double dropped() const { return static_cast<double>(dropped_); }
  /// "name=count" for every span name, for the notes.
  std::string Counts() const;

 private:
  std::map<std::string, SpanAgg> by_name_;
  std::vector<double> predict_us_;
  double predict_union_ms_ = 0.0;
  int64_t max_per_thread_ = 0;
  int64_t dropped_ = 0;
};

/// The declared metrics, in BENCHMARK.json order: name and unit.
using MetricList = std::vector<std::pair<const char*, const char*>>;
const MetricList& EndToEndMetrics();
const MetricList& PerLayerMetrics();

/// Fills every per-layer metric this workload does not exercise with 0.
void ZeroBypassedLayers(Result* out);

/// The workloads. Each measures for opt.seconds and saves its model
/// files under opt.workdir.
Result RunOfflineBatch(const Options& opt);
Result RunOnlineServe(const Options& opt);
Result RunFleetChaos(const Options& opt);

/// Restarts timed per run: setup_s (and recover_ms where it is a
/// restart) report their median.
inline constexpr int kRestarts = 21;

/// Samples per window of WindowedTail: eleven beyond the p99.
inline constexpr size_t kTailWindow = 1100;

}  // namespace perfbench

#endif  // DLSYS_PERFBENCH_COMMON_H_
