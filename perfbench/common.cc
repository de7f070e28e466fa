#include "perfbench/common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

std::string Format(const char* fmt, va_list args) {
  char buf[1024];
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  return buf;
}

}  // namespace

void Result::Note(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  notes.push_back(Format(fmt, args));
  va_end(args);
}

void Result::Fail(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  notes.push_back("CHECK FAILED: " + Format(fmt, args));
  va_end(args);
  correct = false;
}

void Die(const std::string& message) { throw BenchError{message}; }

CoreRotation::CoreRotation(double period_s, int width)
    : width_(width), period_s_(period_s) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

void CoreRotation::MaybeRotate() {
  if (cpus_.size() <= static_cast<size_t>(width_) || since_.Seconds() < period_s_) {
    return;
  }
  since_ = Stopwatch();
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int k = 0; k < width_; ++k) CPU_SET(cpus_[(next_ + k) % cpus_.size()], &set);
  next_ = (next_ + 1) % cpus_.size();
  sched_setaffinity(0, sizeof(set), &set);
}

double Median(std::vector<double> values) {
  if (values.empty()) Die("median of an empty series");
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum;
}

double Tail(std::vector<double> values, double q, const std::string& label,
            Result* out) {
  const int64_t n = static_cast<int64_t>(values.size());
  const int64_t rank =
      static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
  if (n == 0 || n - rank < 10) {
    Die(label + ": " + std::to_string(n) +
        " samples leave fewer than ten beyond the percentile");
  }
  out->Note("%s: n=%lld, %lld beyond", label.c_str(),
            static_cast<long long>(n), static_cast<long long>(n - rank));
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[static_cast<size_t>(rank - 1)];
}

double WindowedTail(const std::vector<double>& values, size_t window, double q,
                    const std::string& label, Result* out) {
  const size_t windows = values.size() / window;
  if (windows == 0) {
    Die(label + ": " + std::to_string(values.size()) + " samples fill no window of " +
        std::to_string(window));
  }
  std::vector<double> tails;
  for (size_t w = 0; w < windows; ++w) {
    const size_t end = w + 1 == windows ? values.size() : (w + 1) * window;
    std::vector<double> part(values.begin() + static_cast<ptrdiff_t>(w * window),
                             values.begin() + static_cast<ptrdiff_t>(end));
    const int64_t n = static_cast<int64_t>(part.size());
    const int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
    if (n - rank < 10) Die(label + ": a window leaves fewer than ten beyond");
    std::nth_element(part.begin(), part.begin() + (rank - 1), part.end());
    tails.push_back(part[static_cast<size_t>(rank - 1)]);
  }
  out->Note("%s: median of %zu windows of >= %zu samples (n=%zu)", label.c_str(),
            windows, window, values.size());
  return Median(tails);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool BitEqual(const float* a, const float* b, int64_t n) {
  return std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)) == 0;
}

uint64_t Fnv(uint64_t h, const void* data, size_t bytes) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

void SpanLedger::Add(const dlsys::obs::TraceBuffer& buffer) {
  dropped_ += buffer.dropped;
  std::map<uint32_t, int64_t> per_thread;
  std::vector<std::pair<int64_t, int64_t>> predicts;
  for (const dlsys::obs::TraceEvent& ev : buffer.events) {
    if (ev.pid == dlsys::obs::kSimTrack) continue;
    ++per_thread[ev.tid];
    if (ev.dur_ns < 0 || ev.name == nullptr) continue;
    SpanAgg& agg = by_name_[ev.name];
    agg.count += 1;
    agg.total_ms += static_cast<double>(ev.dur_ns) / 1e6;
    agg.flops += static_cast<double>(ev.flops);
    if (std::strcmp(ev.name, "engine.predict") == 0) {
      predict_us_.push_back(static_cast<double>(ev.dur_ns) / 1e3);
      predicts.push_back({ev.ts_ns, ev.ts_ns + ev.dur_ns});
    }
  }
  for (const auto& [tid, n] : per_thread) {
    max_per_thread_ = std::max(max_per_thread_, n);
  }
  for (const dlsys::obs::SpanStat& stat : dlsys::obs::SelfTimeByName(buffer)) {
    by_name_[stat.name].self_ms += stat.self_ms;
  }
  // Union of the engine-call intervals: calls of one fork-join wave
  // overlap on the two threads and count once.
  std::sort(predicts.begin(), predicts.end());
  int64_t covered = 0, lo = 0, hi = -1;
  for (const auto& [start, end] : predicts) {
    if (start > hi) {
      covered += std::max<int64_t>(0, hi - lo);
      lo = start;
      hi = end;
    } else {
      hi = std::max(hi, end);
    }
  }
  covered += std::max<int64_t>(0, hi - lo);
  predict_union_ms_ += static_cast<double>(covered) / 1e6;
}

const SpanAgg& SpanLedger::Get(const std::string& name) const {
  static const SpanAgg kEmpty;
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kEmpty : it->second;
}

SpanAgg SpanLedger::Prefix(const std::string& prefix) const {
  SpanAgg sum;
  for (auto it = by_name_.lower_bound(prefix);
       it != by_name_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    sum.count += it->second.count;
    sum.total_ms += it->second.total_ms;
    sum.self_ms += it->second.self_ms;
    sum.flops += it->second.flops;
  }
  return sum;
}

std::string SpanLedger::Counts() const {
  std::string s;
  for (const auto& [name, agg] : by_name_) {
    s += (s.empty() ? "" : " ") + name + "=" + std::to_string(agg.count);
  }
  return s;
}

const MetricList& EndToEndMetrics() {
  static const MetricList kMetrics = {
      {"setup_s", "s"},
      {"throughput_per_s", "1/s"},
      {"call_p50_us", "us"},
      {"call_p99_us", "us"},
      {"ok_fraction", "fraction"},
      {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},
      {"tenant_skew", "ratio"},
      {"recover_ms", "ms"},
      {"peak_rss_mb", "MiB"},
  };
  return kMetrics;
}

const MetricList& PerLayerMetrics() {
  static const MetricList kMetrics = {
      {"simd.conv_gemm.share", "fraction"},
      {"simd.conv_gemm.gflops", "GFLOP/s"},
      {"simd.dense_gemm.gflops", "GFLOP/s"},
      {"simd.q8_gemm.share", "fraction"},
      {"simd.q8_gemm.gflops", "GFLOP/s"},
      {"simd.calls_per_predict", "count"},
      {"infer.conv.self_share", "fraction"},
      {"infer.pool.self_share", "fraction"},
      {"infer.dense.self_share", "fraction"},
      {"infer.predict.p50_us", "us"},
      {"infer.predict.p99_us", "us"},
      {"infer.dispatch_us", "us"},
      {"infer.heap_allocs_per_call", "count"},
      {"infer.compile_ms", "ms"},
      {"infer.workspace_bytes", "bytes"},
      {"nn.load_ms", "ms"},
      {"serve.submit.p50_us", "us"},
      {"serve.submit.p99_us", "us"},
      {"serve.overhead_share", "fraction"},
      {"serve.mean_batch", "count"},
      {"serve.slot_occupancy", "fraction"},
      {"serve.publish_ms", "ms"},
      {"serve.lost", "count"},
      {"serve.quota_wait.p99_ms", "ms"},
      {"serve.slot_wait.p99_ms", "ms"},
      {"serve.execute.p99_ms", "ms"},
      {"serve.shed.queue_full", "fraction"},
      {"serve.shed.deadline", "fraction"},
      {"fleet.driver_share", "fraction"},
      {"fleet.wall_per_tick_us", "us"},
      {"fleet.route_hop.p99_ms", "ms"},
      {"fleet.admission.p99_ms", "ms"},
      {"fleet.quota_delay.p99_ms", "ms"},
      {"fleet.slot_wait.p99_ms", "ms"},
      {"fleet.execute.p99_ms", "ms"},
      {"fleet.return_hop.p99_ms", "ms"},
      {"fleet.failed_dead_replica", "fraction"},
      {"fleet.shed", "fraction"},
      {"fleet.crashes", "count"},
      {"fleet.restarts", "count"},
      {"fleet.rollbacks", "count"},
      {"fleet.scale_ups", "count"},
      {"fleet.alerts", "count"},
      {"fleet.deploy_ms", "ms"},
      {"obs.trace_overhead", "fraction"},
      {"obs.dropped_spans", "count"},
  };
  return kMetrics;
}

void ZeroBypassedLayers(Result* out) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    out->metrics.emplace(name, 0.0);
  }
}

}  // namespace perfbench
