#ifndef DLSYS_SERVE_SCHEDULER_H_
#define DLSYS_SERVE_SCHEDULER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/metrics.h"
#include "src/serve/admission.h"
#include "src/serve/registry.h"

/// \file scheduler.h
/// \brief Multi-tenant QoS scheduler: which queued request fills a freed
/// slot, decided by priority class, token-bucket quota, and deficit-
/// weighted-fair queueing (DWFQ).
///
/// ## Selection order
///
/// 1. **Priority classes** are strict: while any class-0 tenant has an
///    eligible request, no class-1 request is served.
/// 2. **Token buckets** gate eligibility inside a class: a tenant whose
///    bucket holds < 1 token waits for the refill (rate_rps tokens per
///    simulated second, capped at burst). Quotas delay, never shed —
///    the deadline-feasibility test at admission converts a hopeless
///    quota wait into a deadline shed charged to that tenant.
/// 3. **DWFQ** picks among eligible tenants: each tenant carries a
///    deficit counter; a visit tops it up by the tenant's weight, one
///    service costs one unit, and the scan cursor stays on a tenant
///    while its deficit lasts. Backlogged tenants therefore share slots
///    in proportion to their weights, and an idle tenant's unused share
///    redistributes instead of accumulating (its deficit resets).
///    With fair_queueing off the scan degenerates to global FIFO by
///    request id — the starvation control the fairness test pins.
///
/// ## Determinism
///
/// All state (tokens, deficits, cursors) is a pure function of the
/// simulated clock and the arrival sequence: refills are computed from
/// declared rates, ties break by tenant name (map order) and request id,
/// and nothing reads wall time. Scans run in name order whatever order
/// tenants first arrive in. The same arrivals replay to the same picks
/// bit for bit at any DLSYS_THREADS.

namespace dlsys {

namespace obs {
class Counter;
class SharedHistogram;
}  // namespace obs

struct Tenant;

/// \brief One admitted request: queued in its tenant's FIFO, then loaded
/// into a slot lane, then carried by the step that executes it.
struct SlotRequest {
  int64_t id = 0;
  int64_t trace_rid = -1;    ///< fleet rid from RequestTrace, -1 local
  Tenant* tenant = nullptr;  ///< interned at Submit; owned by the scheduler
  double arrival_ms = 0.0;
  double deadline_ms = 0.0;  ///< absolute
  /// Predicted simulated time the tenant's token bucket funds this
  /// request behind its existing backlog (stamped by Enqueue; equals
  /// arrival_ms when quotas are off/unlimited). The critical-path
  /// decomposer splits queue wait into quota delay [arrival, quota_open]
  /// vs slot wait [quota_open, dispatch] along this boundary.
  double quota_open_ms = 0.0;
  int slot = -1;             ///< lane it was loaded into; -1 while queued
  std::shared_ptr<ModelSnapshot> snap;  ///< version bound at admission
  /// Flat copy of the example, in_elems floats: a row from the server's
  /// free list, returned to it once the step has staged it.
  std::vector<float> input;
};

/// \brief A tenant's FIFO of queued requests: a ring over storage it
/// keeps, so queueing allocates only when a backlog outgrows every
/// earlier one.
class RequestFifo {
 public:
  bool empty() const { return count_ == 0; }
  size_t size() const { return count_; }
  /// The \p i-th oldest request.
  const SlotRequest& operator[](size_t i) const { return At(i); }

  void push_back(SlotRequest request);
  /// Removes and returns the \p i-th oldest request; the rest keep their
  /// order.
  SlotRequest Take(size_t i);
  /// Releases every queued request (and the snapshot each one pins).
  void clear();

 private:
  SlotRequest& At(size_t i) { return ring_[(head_ + i) & (ring_.size() - 1)]; }
  const SlotRequest& At(size_t i) const {
    return ring_[(head_ + i) & (ring_.size() - 1)];
  }

  std::vector<SlotRequest> ring_;  ///< a power-of-two size, or empty
  size_t head_ = 0;                ///< ring index of the oldest request
  size_t count_ = 0;
};

/// \brief Per-tenant serving tallies (the fairness bound and the E37
/// bench read goodput from these).
struct TenantStats {
  int64_t offered = 0;
  int64_t admitted = 0;
  int64_t completed = 0;
  int64_t deadline_missed = 0;
  int64_t shed_queue_full = 0;
  int64_t shed_deadline = 0;
  int64_t shed_draining = 0;
  LatencyHistogram latency;  ///< simulated finish - arrival
};

/// \brief Everything serving keeps about one tenant: its policy, its
/// queue and quota/DWFQ state, its tallies, and its registry handles.
/// Server::Submit interns the tenant name into this record once, at the
/// tenant's first request; every later step of a request reaches it
/// through SlotRequest::tenant.
struct Tenant {
  /// Resolves the tenant's "serve.tenant.<name>.*" registry entries
  /// (left null under DLSYS_OBS=OFF); the bucket starts full.
  Tenant(const std::string& tenant_name, const TenantPolicy& tenant_policy);
  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  const std::string name;     ///< normalized ("default" when none given)
  const TenantPolicy policy;  ///< the override for name, else the default

  RequestFifo queue;              ///< admitted, not yet loaded
  double tokens;                  ///< token bucket, in requests
  double refill_ms = 0.0;  ///< simulated time tokens was last settled
  double deficit = 0.0;    ///< DWFQ credit, in requests
  int64_t served = 0;      ///< requests picked so far

  TenantStats stats;

  /// Registry mirrors of stats, one per tally.
  struct Counters {
    obs::Counter* offered = nullptr;
    obs::Counter* admitted = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* deadline_missed = nullptr;
    obs::Counter* shed_queue_full = nullptr;
    obs::Counter* shed_deadline = nullptr;
    obs::Counter* shed_draining = nullptr;
    obs::SharedHistogram* latency = nullptr;
  } counters;
};

/// \brief Priority + quota + DWFQ selection over per-tenant FIFO queues.
///
/// Owns every Tenant record. Requests and DWFQ cursors point into the
/// record map, so the scheduler is neither copyable nor movable.
class TenantScheduler {
 public:
  /// Tenant records by name. Map nodes never move, so a Tenant* stays
  /// valid for the scheduler's lifetime; map order is the scan order.
  using TenantMap = std::map<std::string, Tenant>;

  explicit TenantScheduler(const SlotSchedulerConfig& config);
  TenantScheduler(const TenantScheduler&) = delete;
  TenantScheduler& operator=(const TenantScheduler&) = delete;

  /// \brief The record of tenant \p name, created with its resolved
  /// policy on first use. One map lookup.
  Tenant& Intern(const std::string& name);

  /// \brief Every tenant interned so far, in name order.
  const TenantMap& tenants() const { return tenants_; }

  /// \brief Queues \p request behind its tenant's earlier requests;
  /// request.tenant must be a record of this scheduler.
  void Enqueue(SlotRequest request);

  /// \brief Requests queued across all tenants.
  int64_t depth() const { return depth_; }

  /// \brief Picks the next request to serve at simulated \p now_ms under
  /// priority -> quota -> DWFQ; nullopt when nothing is eligible. A
  /// non-null \p pin restricts the pick to requests bound to that
  /// snapshot (the version already loaded on the worker being filled).
  /// Charges the winner's token bucket and deficit. Deterministic; state
  /// mutations on a failed scan (deficit resets, cursor advances) are
  /// themselves pure functions of simulated state, so replay is
  /// unaffected.
  std::optional<SlotRequest> PickNext(double now_ms,
                                      const ModelSnapshot* pin = nullptr);

  /// \brief Earliest simulated time >= \p now_ms at which \p tenant's
  /// bucket holds a full token (now_ms when unlimited or already funded).
  /// Pure: nothing is charged.
  double QuotaReadyMs(const Tenant& tenant, double now_ms) const;

  /// \brief Earliest simulated time >= \p now_ms at which \p tenant's
  /// bucket could have funded one more request *behind everything the
  /// tenant already has queued* (token arrivals at rate_rps). Pure. The
  /// admission path folds this into the deadline-feasibility prediction,
  /// so a tenant flooding past its quota converts into deadline sheds
  /// charged to itself instead of queueing delay charged to everyone.
  double QuotaBacklogMs(const Tenant& tenant, double now_ms) const;

  /// \brief Earliest simulated time >= \p now_ms at which *some* queued
  /// request becomes quota-eligible, or -1 when nothing is queued. Pure.
  /// Feeds Server::NextActionableMs so event loops sleep precisely until
  /// a blocked tenant refills.
  double NextEligibleMs(double now_ms) const;

  /// \brief Discards every queued request (crash path); returns count.
  int64_t DropAll();

 private:
  /// Settles \p state's bucket forward to \p now_ms.
  void Refill(Tenant* state, double now_ms) const;
  /// Tokens the bucket would hold at \p now_ms without settling it.
  double TokensAt(const Tenant& state, double now_ms) const;
  /// True when quota allows a service at \p now_ms.
  bool QuotaOpen(const Tenant& state, double now_ms) const;
  /// Index of the first queued request of \p state bound to \p pin (any
  /// snapshot when null), or -1.
  static int64_t FirstMatch(const Tenant& state, const ModelSnapshot* pin);
  /// Serves entry \p pos of \p state: charges quota, pops, returns it.
  SlotRequest Serve(Tenant* state, int64_t pos, double now_ms);

  /// The first tenant at or after \p it, wrapping past the end, that
  /// is backlogged in class \p cls; one must exist.
  TenantMap::iterator RingFrom(TenantMap::iterator it, int cls);

  std::optional<SlotRequest> PickFifo(double now_ms, const ModelSnapshot* pin);

  SlotSchedulerConfig config_;
  TenantMap tenants_;
  /// Per-priority-class DWFQ cursor: the tenant the next scan starts at;
  /// end() starts at the first tenant.
  std::vector<TenantMap::iterator> cursor_;
  int64_t depth_ = 0;
};

}  // namespace dlsys

#endif  // DLSYS_SERVE_SCHEDULER_H_
