#include "src/obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/obs/counters.h"

namespace dlsys {
namespace obs {

namespace internal {

std::atomic<bool> g_enabled{false};
std::atomic<int32_t> g_sample_every{1};

int64_t NowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

namespace {

/// Wall-clock ring capacity per thread.
constexpr uint64_t kWallCapacity = 1 << 14;  ///< 16384 events
/// Simulated-clock ring capacity per emitting thread. Larger: sim events
/// are one lifecycle record per request (not per kernel), and their drop
/// horizon must not move with wall-event volume, which varies with
/// DLSYS_THREADS.
constexpr uint64_t kSimCapacity = 1 << 17;  ///< 131072 events

/// One thread's append-only event ring. Slots are written exactly once
/// per reset epoch (drop-on-full), then published by a release store of
/// head_, so drains that acquire head_ read fully-constructed events.
struct Ring {
  explicit Ring(uint64_t capacity) : events(capacity) {}
  std::vector<TraceEvent> events;
  std::atomic<uint64_t> head{0};
  std::atomic<int64_t> dropped{0};
  uint64_t drained = 0;  ///< guarded by Rings::mu (drain side only)
  uint32_t tid = 0;
};

/// Global ring directory. Rings are owned here and outlive their threads
/// so late drains still see their events.
struct Rings {
  std::mutex mu;
  std::vector<std::unique_ptr<Ring>> all;
  uint32_t next_tid = 0;

  static Rings& Get() {
    static Rings* r = new Rings;  // leaked: threads may outlive main
    return *r;
  }
};

/// This thread's rings: the wall ring is made on first record; the sim
/// ring only on threads that emit sim events (driver threads), so worker
/// threads pay nothing for the split.
struct ThreadRings {
  Ring* wall = nullptr;
  Ring* sim = nullptr;
  uint32_t tid = 0;
  bool has_tid = false;
};

Ring* ThisThreadRing(bool sim_track) {
  thread_local ThreadRings tr;
  Ring*& slot = sim_track ? tr.sim : tr.wall;
  if (slot == nullptr) {
    Rings& rings = Rings::Get();
    std::lock_guard<std::mutex> lock(rings.mu);
    if (!tr.has_tid) {
      tr.tid = rings.next_tid++;
      tr.has_tid = true;
    }
    rings.all.push_back(
        std::make_unique<Ring>(sim_track ? kSimCapacity : kWallCapacity));
    rings.all.back()->tid = tr.tid;
    slot = rings.all.back().get();
  }
  return slot;
}

}  // namespace

void Record(const TraceEvent& ev) {
  Ring* ring = ThisThreadRing(ev.pid == kSimTrack);
  const uint64_t h = ring->head.load(std::memory_order_relaxed);
  if (h >= ring->events.size()) {
    ring->dropped.fetch_add(1, std::memory_order_relaxed);
    DLSYS_COUNTER_ADD("obs.trace.dropped_spans", 1);
    return;
  }
  ring->events[h] = ev;
  ring->events[h].tid = ring->tid;
  ring->head.store(h + 1, std::memory_order_release);
}

bool SampleThisSpan() {
  const int32_t every = g_sample_every.load(std::memory_order_relaxed);
  if (every <= 1) return true;
  thread_local int32_t tick = 0;
  if (++tick < every) return false;
  tick = 0;
  return true;
}

}  // namespace internal

void SetTracingEnabled(bool enabled) {
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

void SetTraceSampling(int32_t every) {
  internal::g_sample_every.store(std::max<int32_t>(1, every),
                                 std::memory_order_relaxed);
}

int32_t TraceSampling() {
  return internal::g_sample_every.load(std::memory_order_relaxed);
}

int64_t TraceBegin() {
  if (!TracingEnabled() || !internal::SampleThisSpan()) return -1;
  return internal::NowNs();
}

void TraceEnd(const char* name, const char* cat, int64_t start_ns,
              int64_t rid, int64_t flops, int64_t bytes) {
  if (start_ns < 0) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.ts_ns = start_ns;
  ev.dur_ns = internal::NowNs() - start_ns;
  ev.rid = rid;
  ev.flops = flops;
  ev.bytes = bytes;
  internal::Record(ev);
}

void TraceEmitSimSpanNs(const char* name, const char* cat, int64_t ts_ns,
                        int64_t dur_ns, int64_t rid, int64_t span,
                        int64_t parent) {
  if (!TracingEnabled()) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.ts_ns = ts_ns;
  ev.dur_ns = dur_ns;
  ev.rid = rid;
  ev.span = span;
  ev.parent = parent;
  ev.pid = kSimTrack;
  internal::Record(ev);
}

void TraceInstantSim(const char* name, const char* cat, double ts_ms,
                     int64_t rid) {
  if (!TracingEnabled()) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.ts_ns = static_cast<int64_t>(ts_ms * 1e6);
  ev.dur_ns = -1;
  ev.rid = rid;
  ev.pid = kSimTrack;
  internal::Record(ev);
}

TraceBuffer DrainTrace() {
  TraceBuffer out;
  internal::Rings& rings = internal::Rings::Get();
  std::lock_guard<std::mutex> lock(rings.mu);
  for (auto& ring : rings.all) {
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    for (uint64_t i = ring->drained; i < head; ++i) {
      out.events.push_back(ring->events[i]);
    }
    ring->drained = head;
    out.dropped += ring->dropped.load(std::memory_order_relaxed);
  }
  return out;
}

void ResetTrace() {
  internal::Rings& rings = internal::Rings::Get();
  std::lock_guard<std::mutex> lock(rings.mu);
  for (auto& ring : rings.all) {
    ring->head.store(0, std::memory_order_release);
    ring->dropped.store(0, std::memory_order_relaxed);
    ring->drained = 0;
  }
}

TraceBuffer SimTrackOnly(const TraceBuffer& buffer) {
  TraceBuffer out;
  for (const TraceEvent& ev : buffer.events) {
    if (ev.pid != kSimTrack) continue;
    TraceEvent copy = ev;
    // Sim-track emitters run on one driver thread; normalizing the tid
    // erases ring-registration order, which is the only run-to-run
    // variance left in this slice.
    copy.tid = 0;
    out.events.push_back(copy);
  }
  return out;
}

std::string ChromeTraceJson(const TraceBuffer& buffer) {
  // Rendered in (pid, tid, ts, -dur) order: drains interleave rings in
  // registration order, so sorting both makes timestamps monotone per
  // track (viewer- and test-friendly) and erases ring-registration
  // nondeterminism from the rendered document. stable_sort keeps
  // emission order among equal keys, which single-threaded sim emitters
  // make deterministic.
  std::vector<const TraceEvent*> order;
  order.reserve(buffer.events.size());
  for (const TraceEvent& ev : buffer.events) {
    if (ev.name == nullptr) continue;
    order.push_back(&ev);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     if (a->pid != b->pid) return a->pid < b->pid;
                     if (a->tid != b->tid) return a->tid < b->tid;
                     if (a->ts_ns != b->ts_ns) return a->ts_ns < b->ts_ns;
                     return a->dur_ns > b->dur_ns;
                   });
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char line[640];
  bool first = true;
  for (const TraceEvent* evp : order) {
    const TraceEvent& ev = *evp;
    std::string args;
    char argbuf[96];
    if (ev.rid >= 0) {
      std::snprintf(argbuf, sizeof(argbuf), "\"rid\": %lld",
                    static_cast<long long>(ev.rid));
      args += argbuf;
    }
    if (ev.span >= 0) {
      std::snprintf(argbuf, sizeof(argbuf), "%s\"id\": %lld",
                    args.empty() ? "" : ", ",
                    static_cast<long long>(ev.span));
      args += argbuf;
    }
    if (ev.parent >= 0) {
      std::snprintf(argbuf, sizeof(argbuf), "%s\"parent\": %lld",
                    args.empty() ? "" : ", ",
                    static_cast<long long>(ev.parent));
      args += argbuf;
    }
    if (ev.flops > 0) {
      std::snprintf(argbuf, sizeof(argbuf), "%s\"flops\": %lld",
                    args.empty() ? "" : ", ",
                    static_cast<long long>(ev.flops));
      args += argbuf;
    }
    if (ev.bytes > 0) {
      std::snprintf(argbuf, sizeof(argbuf), "%s\"bytes\": %lld",
                    args.empty() ? "" : ", ",
                    static_cast<long long>(ev.bytes));
      args += argbuf;
    }
    const double ts_us = static_cast<double>(ev.ts_ns) / 1e3;
    if (ev.dur_ns < 0) {
      std::snprintf(line, sizeof(line),
                    "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"i\", "
                    "\"s\": \"t\", \"pid\": %d, \"tid\": %u, \"ts\": %.3f, "
                    "\"args\": {%s}}",
                    first ? "" : ",\n", ev.name, ev.cat, ev.pid, ev.tid,
                    ts_us, args.c_str());
    } else {
      std::snprintf(line, sizeof(line),
                    "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                    "\"pid\": %d, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                    "\"args\": {%s}}",
                    first ? "" : ",\n", ev.name, ev.cat, ev.pid, ev.tid,
                    ts_us, static_cast<double>(ev.dur_ns) / 1e3,
                    args.c_str());
    }
    out += line;
    first = false;
  }
  out += "\n]}\n";
  return out;
}

Status WriteChromeTrace(const std::string& path, const TraceBuffer& buffer) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open trace file '" + path + "'");
  }
  const std::string json = ChromeTraceJson(buffer);
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = written == json.size() && std::fclose(f) == 0;
  if (!ok) return Status::IOError("short write to trace file '" + path + "'");
  return Status::OK();
}

std::vector<SpanStat> SelfTimeByName(const TraceBuffer& buffer) {
  // Wall-track spans nest properly per thread (RAII scoping), so a
  // parent's self-time is its duration minus the durations of spans
  // fully contained in it on the same tid, computed with a per-thread
  // interval stack over events sorted by (tid, start, -dur).
  struct Indexed {
    const TraceEvent* ev;
  };
  std::vector<Indexed> spans;
  for (const TraceEvent& ev : buffer.events) {
    if (ev.pid == kSimTrack || ev.dur_ns < 0 || ev.name == nullptr) continue;
    spans.push_back({&ev});
  }
  std::sort(spans.begin(), spans.end(), [](const Indexed& a, const Indexed& b) {
    if (a.ev->tid != b.ev->tid) return a.ev->tid < b.ev->tid;
    if (a.ev->ts_ns != b.ev->ts_ns) return a.ev->ts_ns < b.ev->ts_ns;
    return a.ev->dur_ns > b.ev->dur_ns;
  });

  std::map<std::string, SpanStat> by_name;
  struct Open {
    const TraceEvent* ev;
    int64_t child_ns = 0;
  };
  std::vector<Open> stack;
  uint32_t cur_tid = 0;
  auto close_down_to = [&](size_t depth) {
    while (stack.size() > depth) {
      const Open open = stack.back();
      stack.pop_back();
      SpanStat& stat = by_name[open.ev->name];
      stat.name = open.ev->name;
      stat.count += 1;
      stat.total_ms += static_cast<double>(open.ev->dur_ns) / 1e6;
      stat.self_ms +=
          static_cast<double>(open.ev->dur_ns - open.child_ns) / 1e6;
      if (!stack.empty()) stack.back().child_ns += open.ev->dur_ns;
    }
  };
  for (const Indexed& item : spans) {
    const TraceEvent* ev = item.ev;
    if (ev->tid != cur_tid) {
      close_down_to(0);
      cur_tid = ev->tid;
    }
    while (!stack.empty() &&
           ev->ts_ns >= stack.back().ev->ts_ns + stack.back().ev->dur_ns) {
      close_down_to(stack.size() - 1);
    }
    stack.push_back({ev, 0});
  }
  close_down_to(0);

  std::vector<SpanStat> out;
  out.reserve(by_name.size());
  for (auto& [name, stat] : by_name) out.push_back(stat);
  std::sort(out.begin(), out.end(), [](const SpanStat& a, const SpanStat& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

}  // namespace obs
}  // namespace dlsys
