#include "src/core/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/core/status.h"

namespace dlsys {

namespace {

/// Smallest geometric bucket edge: 1 microsecond.
constexpr double kMinMs = 1e-3;

/// edges[i] = kMinMs * 2^(i/4): the fixed log-scale bucket boundaries.
const std::array<double, LatencyHistogram::kBuckets + 1>& BucketEdges() {
  static const auto edges = [] {
    std::array<double, LatencyHistogram::kBuckets + 1> e{};
    for (int i = 0; i <= LatencyHistogram::kBuckets; ++i) {
      e[static_cast<size_t>(i)] = kMinMs * std::exp2(static_cast<double>(i) / 4.0);
    }
    return e;
  }();
  return edges;
}

/// Index of the bucket covering \p ms: 0 for [0, kMinMs), kBuckets + 1
/// for the overflow range. The guess reads the binary exponent (the
/// bucket of the octave's first quarter); the edge fix-up that follows
/// walks it to the bucket BucketEdges() puts \p ms in, whatever the guess.
int BucketIndex(double ms) {
  const auto& edges = BucketEdges();
  if (ms < edges[0]) return 0;
  if (ms >= edges[LatencyHistogram::kBuckets]) {
    return LatencyHistogram::kBuckets + 1;
  }
  int i = 4 * std::ilogb(ms / kMinMs);
  i = std::clamp(i, 0, LatencyHistogram::kBuckets - 1);
  while (i > 0 && ms < edges[static_cast<size_t>(i)]) --i;
  while (i < LatencyHistogram::kBuckets - 1 &&
         ms >= edges[static_cast<size_t>(i + 1)]) {
    ++i;
  }
  return i + 1;  // counts_[0] is the underflow bucket
}

}  // namespace

void LatencyHistogram::Record(double ms) {
  DLSYS_CHECK(std::isfinite(ms) && ms >= 0.0,
              "LatencyHistogram::Record requires a finite non-negative value");
  counts_[static_cast<size_t>(BucketIndex(ms))] += 1;
  if (count_ == 0) {
    min_ms_ = ms;
    max_ms_ = ms;
  } else {
    min_ms_ = std::min(min_ms_, ms);
    max_ms_ = std::max(max_ms_, ms);
  }
  ++count_;
  sum_ms_ += ms;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  min_ms_ = count_ == 0 ? other.min_ms_ : std::min(min_ms_, other.min_ms_);
  max_ms_ = count_ == 0 ? other.max_ms_ : std::max(max_ms_, other.max_ms_);
  count_ += other.count_;
  sum_ms_ += other.sum_ms_;
}

double LatencyHistogram::Quantile(double q) const {
  DLSYS_CHECK(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
  if (count_ == 0) return 0.0;
  const int64_t rank = std::clamp<int64_t>(
      static_cast<int64_t>(std::ceil(q * static_cast<double>(count_))),
      int64_t{1}, count_);
  // The extreme ranks are tracked exactly, so q=0 and q=1 have no
  // bucket-resolution error.
  if (rank == 1) return min_ms_;
  if (rank == count_) return max_ms_;
  const auto& edges = BucketEdges();
  int64_t seen = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      // Upper edge of bucket i; the overflow bucket reports the exact max.
      const double upper = i <= kBuckets ? edges[i] : max_ms_;
      return std::clamp(upper, min_ms_, max_ms_);
    }
  }
  return max_ms_;  // unreachable: seen == count_ after the loop
}

void LatencyHistogram::ReportInto(MetricsReport* report,
                                  const std::string& prefix) const {
  report->Set(prefix + ".count", static_cast<double>(count_));
  report->Set(prefix + ".mean_ms", mean_ms());
  report->Set(prefix + ".p50_ms", Quantile(0.50));
  report->Set(prefix + ".p95_ms", Quantile(0.95));
  report->Set(prefix + ".p99_ms", Quantile(0.99));
  report->Set(prefix + ".max_ms", max_ms());
}

void MetricsReport::Merge(const MetricsReport& other,
                          const std::string& prefix) {
  for (const auto& [key, value] : other.values_) {
    if (prefix.empty()) {
      values_[key] = value;
    } else {
      // A prefixed merge namespaces a sub-report; two sources mapping to
      // the same prefixed key means the namespace failed to separate them,
      // and one report would silently shadow the other.
      const std::string prefixed = prefix + "." + key;
      DLSYS_CHECK(values_.count(prefixed) == 0,
                  "MetricsReport::Merge: prefixed key collision");
      values_[prefixed] = value;
    }
  }
}

std::string MetricsReport::ToString() const {
  std::string out;
  char line[256];
  for (const auto& [key, value] : values_) {
    std::snprintf(line, sizeof(line), "%-32s = %.6g\n", key.c_str(), value);
    out += line;
  }
  return out;
}

}  // namespace dlsys
