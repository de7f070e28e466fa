#ifndef DLSYS_OBS_TRACE_H_
#define DLSYS_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/status.h"

/// \file trace.h
/// \brief Always-on tracing: thread-local lock-free span rings drained
/// into Chrome trace_event JSON (loadable in Perfetto / chrome://tracing).
///
/// ## Design
///
/// Every instrumented site costs **one predicted-taken branch** while
/// tracing is disabled (a relaxed atomic load of the global enable flag).
/// When enabled, a span is two steady_clock reads plus one store into a
/// thread-local ring of POD events — no locks, no allocation after the
/// ring's one-time lazy construction, and no effect on any computed
/// value, which is what keeps traced and untraced runs bitwise identical
/// (test-enforced by test_obs at DLSYS_THREADS 1/2/8).
///
/// ## Ring-buffer drain protocol
///
/// Each thread owns up to two append-only rings registered in a global
/// list: one for wall-clock events and a larger one, lazily created only
/// on threads that emit them, for simulated-clock events. Splitting the
/// tracks matters for determinism: wall-event volume on the driver
/// thread varies with DLSYS_THREADS (inline ParallelFor chunks), so if
/// both tracks shared a ring, overflow would drop a thread-count-
/// dependent *sim* suffix and break the byte-compared sim slice. With
/// split rings, sim drops depend only on sim volume. The writer
/// publishes an event by storing the slot then releasing the head index;
/// DrainTrace() acquires the head and copies `[drained, head)`, so every
/// drained event is happens-before ordered and the protocol is race-free
/// under TSan even while other threads keep tracing. Slots are never
/// recycled between resets: a full ring *drops* new events — counted in
/// TraceBuffer::dropped and in the `obs.trace.dropped_spans` registry
/// counter — instead of overwriting, and ResetTrace() — which rewinds
/// the rings — must only run at quiescent points (no concurrent
/// instrumented work), the same discipline benches already need for
/// timing sections.
///
/// ## Two time tracks
///
/// Wall-clock spans (kernels, engine steps, ParallelFor ranges) record
/// real nanoseconds on pid 1. The serving layer additionally emits its
/// request lifecycle (admit → queue → batch-execute → respond) on pid 2
/// in **simulated** milliseconds with the request id attached, so a
/// single request's path is reconstructable from the exported trace by
/// `rid` even though scheduling ran on the simulated clock.
///
/// ## Kill switch
///
/// Compiling with -DDLSYS_OBS=0 (CMake option DLSYS_OBS=OFF) expands all
/// DLSYS_TRACE_* / DLSYS_COUNTER_* / DLSYS_COST_* macros to nothing; the
/// obs library itself still builds so explicit API users keep linking.

#ifndef DLSYS_OBS
#define DLSYS_OBS 1
#endif

namespace dlsys {
namespace obs {

/// \brief One completed span or instant event (POD; rings store these).
struct TraceEvent {
  const char* name = nullptr;  ///< interned: string literal lifetime
  const char* cat = nullptr;
  int64_t ts_ns = 0;    ///< start; wall track: ns since process trace epoch
  int64_t dur_ns = -1;  ///< -1 encodes an instant event
  int64_t rid = -1;     ///< request id, -1 when not request-scoped
  int64_t span = -1;    ///< causal span id, -1 when unlinked
  int64_t parent = -1;  ///< parent span id, -1 for roots / unlinked
  int64_t flops = 0;    ///< attributed floating-point work (0 = untagged)
  int64_t bytes = 0;    ///< attributed bytes moved (0 = untagged)
  int32_t pid = 1;      ///< 1 = wall-clock track, 2 = simulated-clock track
  uint32_t tid = 0;     ///< stable per-thread index
};

/// Simulated-clock track id for TraceEvent::pid.
inline constexpr int32_t kSimTrack = 2;

namespace internal {
extern std::atomic<bool> g_enabled;
extern std::atomic<int32_t> g_sample_every;
int64_t NowNs();
/// Records \p ev into the calling thread's ring (drop-on-full).
void Record(const TraceEvent& ev);
/// True when this thread's 1-in-N sampling counter elects the next span.
bool SampleThisSpan();
}  // namespace internal

/// \brief Turns span recording on or off process-wide. Off (the default)
/// costs instrumented sites one predicted branch.
void SetTracingEnabled(bool enabled);

/// \brief True when spans are being recorded.
inline bool TracingEnabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// \brief Runtime sampling knob: record one span in \p every (clamped to
/// >= 1; 1 = record all). Sampling is per-thread and affects only trace
/// volume, never computed results.
void SetTraceSampling(int32_t every);

/// \brief Current sampling divisor.
int32_t TraceSampling();

/// \brief RAII span on the wall-clock track: records [construction,
/// destruction) under \p name when tracing is enabled and the sampler
/// elects it. \p name and \p cat must point to string literals (interned
/// by pointer); \p cat may be selected at run time, like the dispatched
/// ISA's category from src/simd/dispatch.h. Cost tags \p flops / \p bytes
/// land in the event's args.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* cat, int64_t rid = -1,
                     int64_t flops = 0, int64_t bytes = 0) {
    if (TracingEnabled() && internal::SampleThisSpan()) {
      name_ = name;
      cat_ = cat;
      rid_ = rid;
      flops_ = flops;
      bytes_ = bytes;
      start_ns_ = internal::NowNs();
    }
  }
  ~TraceSpan() {
    if (start_ns_ < 0) return;
    TraceEvent ev;
    ev.name = name_;
    ev.cat = cat_;
    ev.ts_ns = start_ns_;
    ev.dur_ns = internal::NowNs() - start_ns_;
    ev.rid = rid_;
    ev.flops = flops_;
    ev.bytes = bytes_;
    internal::Record(ev);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  int64_t rid_ = -1;
  int64_t flops_ = 0;
  int64_t bytes_ = 0;
  int64_t start_ns_ = -1;  ///< -1: disabled or not sampled
};

/// \brief Explicit begin for spans that cannot use RAII scoping. Returns
/// the start timestamp, or -1 when tracing is off / not sampled; pass the
/// value to TraceEnd, which is a no-op for -1.
int64_t TraceBegin();

/// \brief Explicit end paired with TraceBegin.
void TraceEnd(const char* name, const char* cat, int64_t start_ns,
              int64_t rid = -1, int64_t flops = 0, int64_t bytes = 0);

/// \brief Emits an instant event on the **simulated**-clock track (pid 2)
/// at simulated \p ts_ms. Not sampled: when tracing is enabled every
/// lifecycle event is recorded, so a request's path is always complete.
void TraceInstantSim(const char* name, const char* cat, double ts_ms,
                     int64_t rid);

/// \brief Emits a causally-linked complete span on the simulated-clock
/// track with timestamps in **integer simulated nanoseconds** — the
/// exact quantization the critical-path decomposer works in, so a
/// span's rendered duration equals its attribution component bitwise.
/// \p span / \p parent link the request's spans into a tree (use the
/// span-id helpers in attribution.h); pass -1 for unlinked/root.
void TraceEmitSimSpanNs(const char* name, const char* cat, int64_t ts_ns,
                        int64_t dur_ns, int64_t rid, int64_t span,
                        int64_t parent);

/// \brief Everything drained from the rings so far.
struct TraceBuffer {
  std::vector<TraceEvent> events;
  int64_t dropped = 0;  ///< events lost to full rings since last reset
};

/// \brief Copies all not-yet-drained events out of every thread ring
/// (without rewinding them). Safe to call while other threads trace.
TraceBuffer DrainTrace();

/// \brief Rewinds every ring and the dropped counter. Only call at
/// quiescent points: no instrumented work may run concurrently.
void ResetTrace();

/// \brief The subset of \p buffer on the simulated-clock track (pid 2).
/// Sim-track events carry simulated timestamps and are emitted by
/// single-threaded event loops (the serving front door, the fleet
/// driver), so this slice — unlike the wall-clock track — is
/// byte-reproducible across runs and DLSYS_THREADS settings; the fleet
/// determinism tests ChromeTraceJson this filtered buffer and compare.
TraceBuffer SimTrackOnly(const TraceBuffer& buffer);

/// \brief Renders \p buffer as a Chrome trace_event JSON document, one
/// event per line, sim-track events converted to microseconds.
std::string ChromeTraceJson(const TraceBuffer& buffer);

/// \brief Writes ChromeTraceJson(buffer) to \p path.
Status WriteChromeTrace(const std::string& path, const TraceBuffer& buffer);

/// \brief Per-name aggregate with self-time (duration minus time spent in
/// spans nested inside it on the same thread's wall track).
struct SpanStat {
  std::string name;
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// \brief Aggregates wall-track spans by name, computing self-time from
/// per-thread nesting, sorted by descending self_ms.
std::vector<SpanStat> SelfTimeByName(const TraceBuffer& buffer);

}  // namespace obs
}  // namespace dlsys

// ---------------------------------------------------------------- macros
// Instrumentation sites use these so -DDLSYS_OBS=0 compiles them out
// entirely (argument expressions included).

#define DLSYS_OBS_CONCAT_INNER(a, b) a##b
#define DLSYS_OBS_CONCAT(a, b) DLSYS_OBS_CONCAT_INNER(a, b)

#if DLSYS_OBS
#define DLSYS_TRACE_SPAN(name, cat) \
  ::dlsys::obs::TraceSpan DLSYS_OBS_CONCAT(_dlsys_span_, __LINE__)(name, cat)
#define DLSYS_TRACE_SPAN_COST(name, cat, flops, bytes)                     \
  ::dlsys::obs::TraceSpan DLSYS_OBS_CONCAT(_dlsys_span_, __LINE__)(        \
      name, cat, -1, static_cast<int64_t>(flops), static_cast<int64_t>(bytes))
// The sim-track macros test TracingEnabled() before evaluating their
// arguments, so an untraced event loop pays one relaxed load per site.
#define DLSYS_TRACE_INSTANT_SIM(name, cat, ts_ms, rid)                  \
  (::dlsys::obs::TracingEnabled()                                       \
       ? ::dlsys::obs::TraceInstantSim(name, cat, ts_ms, rid)           \
       : (void)0)
#define DLSYS_TRACE_EMIT_SIM_NS(name, cat, ts_ns, dur_ns, rid, span, parent) \
  (::dlsys::obs::TracingEnabled()                                            \
       ? ::dlsys::obs::TraceEmitSimSpanNs(name, cat, ts_ns, dur_ns, rid,     \
                                          span, parent)                      \
       : (void)0)
#else
#define DLSYS_TRACE_SPAN(name, cat) ((void)0)
#define DLSYS_TRACE_SPAN_COST(name, cat, flops, bytes) ((void)0)
#define DLSYS_TRACE_INSTANT_SIM(name, cat, ts_ms, rid) ((void)0)
#define DLSYS_TRACE_EMIT_SIM_NS(name, cat, ts_ns, dur_ns, rid, span, parent) \
  ((void)0)
#endif

#endif  // DLSYS_OBS_TRACE_H_
