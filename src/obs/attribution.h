#ifndef DLSYS_OBS_ATTRIBUTION_H_
#define DLSYS_OBS_ATTRIBUTION_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/trace.h"

/// \file attribution.h
/// \brief Request-scoped critical-path attribution: decompose every
/// request's client-observed latency into the stage that spent it.
///
/// ## The RequestTrace context
///
/// A fleet request crosses router -> admission -> quota -> slot ->
/// execute -> return hop, and until this layer each stage logged under
/// its own id space (the fleet's arrival index vs the server's per-
/// instance completion id). `RequestTrace` is the context the fleet
/// threads through `Server::Submit`: the fleet-global rid plus the
/// serving replica's incarnation. Every simulated-clock span a request
/// leaves behind then carries the *same* rid, and spans are causally
/// linked by explicit span/parent ids (see span-id scheme below), so one
/// request's whole path is a tree in the Perfetto export.
///
/// ## Exact decomposition
///
/// Components are differences of adjacent boundary timestamps quantized
/// to integer simulated nanoseconds with SimNs — the same quantizer the
/// sim-track trace emitters use. Integer telescoping makes the identity
///
///   route + admission + quota + slot + execute + return == deliver-send
///
/// hold *bitwise* for every completed request (test-enforced at
/// DLSYS_THREADS 1/2/8), with no float-reassociation slop. Admission is
/// currently a zero-width component: the cost model prices the
/// admission decision at zero simulated time, and keeping the slot in
/// the schema means a future admission cost lands attributed instead of
/// smeared into its neighbors.
///
/// ## Windowed series and exemplars
///
/// `AttributionAggregator` folds per-request components into fixed
/// windows keyed by delivery time, scoped fleet-wide, per tenant, and
/// per replica, and captures the k slowest rids per window as exemplars
/// — aggregate numbers say *that* the tail moved, the exemplar rids link
/// back to full per-request span trees in the trace export and say
/// *which requests* moved it. The report JSON is fixed-format and
/// byte-stable under replay at any DLSYS_THREADS (CI-diffed).

namespace dlsys {
namespace obs {

/// \brief Request context threaded from the fleet router through the
/// serving stack (the tenant rides Submit's existing tenant parameter).
struct RequestTrace {
  int64_t rid = -1;         ///< fleet-global request id
  int64_t incarnation = 0;  ///< serving replica incarnation
};

/// \brief The critical-path stages of one served request, in path order.
enum class PathComponent {
  kRouteHop = 0,   ///< client send -> replica arrival (forward hop)
  kAdmission = 1,  ///< admission decision (zero-width in this cost model)
  kQuotaDelay = 2, ///< arrival -> tenant token-bucket opens
  kSlotWait = 3,   ///< quota open -> step dispatch (lane + step wait)
  kExecute = 4,    ///< dispatch -> modeled finish
  kReturnHop = 5,  ///< finish -> client delivery (return hop)
};
inline constexpr int kPathComponents = 6;

/// \brief Stable lowercase component name ("route_hop", ...).
const char* PathComponentName(PathComponent component);

/// \brief Simulated milliseconds -> integer simulated nanoseconds, the
/// shared quantizer of the sim-track trace emitters and the decomposer
/// (truncating cast, monotone over the non-negative sim clock).
inline int64_t SimNs(double ms) { return static_cast<int64_t>(ms * 1e6); }

/// \brief Span-id scheme for a request's causally-linked sim spans:
/// ids are rid * 8 + k, so they never collide across requests and the
/// decomposer can recover (rid, stage) from an id alone.
inline constexpr int64_t kSpanStride = 8;
/// Root span id ("fleet.request", parent -1).
inline int64_t RequestSpanId(int64_t rid) { return rid * kSpanStride; }
/// Component span id (k = 1 + component index).
inline int64_t ComponentSpanId(int64_t rid, PathComponent component) {
  return rid * kSpanStride + 1 + static_cast<int64_t>(component);
}
/// The "serve.queue" umbrella span (admission -> dispatch; parent of the
/// quota and slot-wait children).
inline int64_t QueueSpanId(int64_t rid) { return rid * kSpanStride + 7; }

/// \brief Boundary timestamps of one completed request, in simulated
/// integer nanoseconds (SimNs of the sim-clock instants), monotone in
/// path order. Standalone-server records set send == admit and
/// deliver == finish (no network hops).
struct RequestPathRecord {
  int64_t rid = -1;
  std::string tenant;       ///< normalized ("default" when untenanted)
  int replica = -1;         ///< fleet replica slot; -1 standalone
  int64_t incarnation = 0;  ///< replica incarnation that served it
  int slot = -1;            ///< slot-pool lane that carried the request
  int64_t send_ns = 0;      ///< client handed the request to the router
  int64_t admit_ns = 0;     ///< arrived + admitted at the replica
  int64_t quota_open_ns = 0;  ///< tenant bucket funded it (clamped to
                              ///< [admit, dispatch])
  int64_t dispatch_ns = 0;  ///< step/batch departure
  int64_t finish_ns = 0;    ///< modeled service completion
  int64_t deliver_ns = 0;   ///< response landed back at the client
  bool deadline_ok = false; ///< delivered within the end-to-end deadline
};

/// \brief One request's latency split by stage, integer sim-ns.
struct PathComponents {
  int64_t ns[kPathComponents] = {0, 0, 0, 0, 0, 0};

  int64_t& operator[](PathComponent c) {
    return ns[static_cast<int>(c)];
  }
  int64_t operator[](PathComponent c) const {
    return ns[static_cast<int>(c)];
  }
  /// \brief Sum of the components; equals end-to-end latency bitwise.
  int64_t total_ns() const;
};

/// \brief Splits \p record into components by telescoping adjacent
/// boundary differences. Checks boundary monotonicity (a record that
/// violates path order is a bug, not data).
PathComponents DecomposePath(const RequestPathRecord& record);

/// \brief Rebuilds per-rid components from the sim-track spans of
/// \p buffer (fleet.route / serve.quota_wait / serve.slot_wait /
/// serve.execute / fleet.return durations). The trace-derived
/// decomposition matches DecomposePath of the corresponding records
/// bitwise — both sides quantize with SimNs (test-enforced).
std::map<int64_t, PathComponents> ComponentsFromTrace(
    const TraceBuffer& buffer);

/// \brief Aggregation knobs for the windowed component series.
struct AttributionConfig {
  double window_ms = 500.0;      ///< series bucket width (delivery time)
  int exemplars_per_window = 3;  ///< k slowest rids kept per window
};

/// \brief One of the k slowest requests of a window; the rid links back
/// to the request's span tree in the Perfetto export.
struct PathExemplar {
  int64_t rid = -1;
  int64_t total_ns = 0;
  PathComponents components;
};

/// \brief One window of one scope's component series.
struct AttributionWindow {
  int64_t count = 0;             ///< requests delivered in the window
  int64_t violations = 0;        ///< of those, deadline_ok == false
  PathComponents sums;           ///< per-component ns totals
  std::vector<PathExemplar> exemplars;  ///< fleet scope only; slowest
                                        ///< first, ties by rid
};

/// \brief The finished windowed series: fleet-wide plus per-tenant and
/// per-replica slices (map order keeps the JSON byte-stable).
struct AttributionReport {
  double window_ms = 500.0;
  std::vector<AttributionWindow> fleet;
  std::map<std::string, std::vector<AttributionWindow>> tenants;
  std::map<int, std::vector<AttributionWindow>> replicas;
};

/// \brief Renders \p report as deterministic JSON (fixed field order and
/// float formatting; integer component sums) — byte-comparable across
/// runs and DLSYS_THREADS; the CI determinism step diffs it.
std::string AttributionReportJson(const AttributionReport& report);

/// \brief Folds RequestPathRecords into the windowed component series.
/// Single-threaded (driven by the fleet's event loop); deterministic
/// given the same record sequence.
class AttributionAggregator {
 public:
  explicit AttributionAggregator(const AttributionConfig& config);

  /// \brief Accounts one completed request (window = delivery time).
  /// Returns the decomposition so callers feed alerting without
  /// decomposing twice.
  PathComponents Record(const RequestPathRecord& record);

  /// \brief The series so far (windows up to the latest delivery).
  const AttributionReport& report() const { return report_; }

 private:
  AttributionWindow& WindowAt(std::vector<AttributionWindow>* series,
                              size_t index);

  AttributionConfig config_;
  AttributionReport report_;
};

}  // namespace obs
}  // namespace dlsys

#endif  // DLSYS_OBS_ATTRIBUTION_H_
