#ifndef STREAMWORKS_SERVICE_QUERY_SERVICE_H_
#define STREAMWORKS_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "streamworks/common/thread_annotations.h"
#include "streamworks/obs/stage_trace.h"
#include "streamworks/service/backend.h"
#include "streamworks/service/metrics.h"
#include "streamworks/service/result_queue.h"

namespace streamworks {

/// Lifecycle of one subscription (a continuous query owned by a session):
///
///   Submit --> kActive <--> kPaused        (Pause / Resume)
///                 |            |
///                 +--> kDetached <--+      (Detach; terminal)
///
/// While paused the engine keeps maintaining the query's partial matches
/// (so a resume sees matches spanning the pause), but completions are
/// suppressed at the delivery boundary instead of entering the result
/// queue. Detach unregisters the query from the backend and closes the
/// queue; already-queued matches stay drainable.
enum class SubscriptionState { kActive, kPaused, kDetached };

std::string_view SubscriptionStateName(SubscriptionState state);

/// Admission-control and defaulting knobs of a QueryService.
struct ServiceLimits {
  /// Live (non-detached) subscriptions allowed per session.
  int max_queries_per_session = 8;
  /// Service-wide budget of live partial matches across all live
  /// subscriptions; a Submit that finds the budget already exhausted is
  /// rejected. 0 = unlimited.
  size_t live_partial_match_budget = 1u << 20;
  /// Age-based reclamation of detached-and-drained subscriptions in
  /// still-open sessions, in *control epochs* (each Feed/FeedBatch call
  /// advances the epoch by one). A long-lived tenant that detaches a
  /// subscription, drains it, and never touches it again would otherwise
  /// pin its DeliveryState until the session closes. 0 disables; the
  /// sweep itself runs every aged_sweep_interval epochs on the control
  /// path (no clock, no extra thread).
  uint64_t detached_reclaim_age = 0;
  uint64_t aged_sweep_interval = 256;
};

/// Per-submission knobs.
struct SubmitOptions {
  Timestamp window = kMaxTimestamp;
  DecompositionStrategy strategy = DecompositionStrategy::kSelectivityLeftDeep;
  size_t queue_capacity = 0;  ///< 0 = the service default, 1024.
  std::optional<OverflowPolicy> policy;  ///< Unset = drop oldest.
  /// Client-visible subscription name, persisted with the subscription so
  /// a recovered session can be re-attached by name (the interpreter
  /// passes its "<sub>" token). Optional; "" stays anonymous.
  std::string tag;
};

/// Durable image of one live subscription: everything Submit needs to
/// recreate it (the query pattern itself rides along — recovery cannot
/// re-parse what a remote tenant defined in a dead connection).
struct PersistedSubscription {
  std::string tag;
  QueryGraph query;
  Timestamp window = kMaxTimestamp;
  DecompositionStrategy strategy = DecompositionStrategy::kSelectivityLeftDeep;
  size_t queue_capacity = 0;
  OverflowPolicy policy = OverflowPolicy::kDropOldest;
  bool paused = false;
};

/// Durable image of one open session.
struct PersistedSession {
  std::string name;
  std::vector<PersistedSubscription> subscriptions;
};

/// What a snapshot persists of the service control plane: every open
/// session and its live subscriptions. Detached subscriptions and closed
/// sessions are deliberately absent — their only remaining value is
/// undrained queue contents, and queues do not survive a crash
/// (delivery is at-most-once across process death; see README).
struct ServicePersistState {
  std::vector<PersistedSession> sessions;
};

/// One live query's runtime detail as the observability layer exports it
/// (/queries.json): backend runtime info — including per-SJ-Tree-node
/// counters — plus the session/subscription identity it belongs to.
struct QueryObsSnapshot {
  int session_id = -1;
  int subscription_id = -1;
  std::string session_name;
  std::string query_name;
  std::string tag;    ///< Client-visible subscription name ("" anonymous).
  std::string state;  ///< "active" | "paused".
  QueryRuntimeInfo info;
};

/// Result of re-attaching a recovered session by name: the live ids a
/// frontend needs to rebind its name maps.
struct AttachedSubscription {
  std::string tag;
  int subscription_id = -1;
  SubscriptionState state = SubscriptionState::kActive;
};
struct AttachedSession {
  int session_id = -1;
  std::vector<AttachedSubscription> subscriptions;
};

/// Multi-tenant continuous-query front door: sessions own subscriptions,
/// subscriptions own result queues, and the service mediates between them
/// and one QueryBackend — admission control on the way in (per-session
/// quota, service-wide partial-match budget), per-subscription flow control
/// on the way out (bounded queues with selectable overflow policy), and a
/// lifecycle (pause / resume / detach) the raw engine doesn't have.
///
/// Threading: control-plane calls (Open/Close/Submit/Pause/Resume/Detach/
/// Feed/Snapshot) are serialized by the caller or an internal mutex —
/// serialized control is the expected shape, matching the backend
/// contract. The multi-loop socket frontend honors it by funneling every
/// loop's interpreter calls through one control mutex (see net/server.h);
/// in-process embedders usually just call from one thread. Match delivery
/// runs on backend threads and only touches each subscription's queue and
/// atomics, so consumers may drain queues from any thread at any time.
class QueryService {
 public:
  /// `backend` must outlive the service.
  explicit QueryService(QueryBackend* backend, ServiceLimits limits = {});

  /// Detaches every live subscription.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // --- Sessions ------------------------------------------------------------
  /// Opens a session and returns its id. Names must be unique among open
  /// sessions (they address sessions in the line protocol).
  StatusOr<int> OpenSession(std::string name);

  /// Detaches all of the session's live subscriptions and closes it.
  Status CloseSession(int session_id);

  /// Re-binds an *unbound* open session by name (the recovery flow: a
  /// tenant reconnecting after a crash re-claims the session a snapshot
  /// restored, instead of colliding with its own name on OpenSession).
  /// Returns the session id plus every non-detached subscription's tag
  /// and id so the frontend can rebuild its name maps. NotFound when no
  /// open session has that name; FailedPrecondition when it is already
  /// bound — sessions opened live (OpenSession) are born bound to their
  /// creator, and an attach claims the session exactly once, so one
  /// tenant can never adopt (and, via its own disconnect, close) another
  /// tenant's live session by guessing its name.
  StatusOr<AttachedSession> AttachSession(std::string_view name);

  // --- Subscription lifecycle ----------------------------------------------
  /// Admission control, then registers `query` on the backend and wires
  /// its completions into a fresh ResultQueue. Returns the subscription
  /// id. ResourceExhausted when the session's quota or the service's
  /// partial-match budget is exceeded.
  StatusOr<int> Submit(int session_id, const QueryGraph& query,
                       SubmitOptions options = {});

  /// Suppresses delivery (matches completing while paused are counted,
  /// not queued). FailedPrecondition unless the subscription is active.
  Status Pause(int session_id, int subscription_id);

  /// Re-enables delivery. FailedPrecondition unless paused.
  Status Resume(int session_id, int subscription_id);

  /// Unregisters the query from the backend and closes the queue
  /// (queued matches stay drainable). Terminal; idempotent calls fail
  /// with FailedPrecondition.
  Status Detach(int session_id, int subscription_id);

  // --- Streaming -----------------------------------------------------------
  /// Forwards one edge to the backend.
  Status Feed(const StreamEdge& edge);
  /// Forwards a whole batch on the backend's batched fast path; when
  /// `rejected_out` is non-null it receives the count of malformed edges
  /// the backend skipped (0 for asynchronous backends).
  Status FeedBatch(const EdgeBatch& batch, size_t* rejected_out = nullptr);
  /// Blocks until the backend has processed everything fed so far.
  void Flush();

  // --- Reclamation ---------------------------------------------------------
  /// Compacts the subscription and session tables: every detached
  /// subscription whose results nobody can still want is dropped from the
  /// tables, and its DeliveryState is released (the delivery callback's
  /// shared_ptr is the refcount: the backend dropped its copy at
  /// Unregister, so the state frees as soon as the last queue_handle
  /// holder lets go). Closed sessions whose last subscription was
  /// reclaimed are erased too, so a connection-churning frontend doesn't
  /// accumulate tombstone sessions in every STATS walk. Returns how many
  /// subscriptions were reclaimed. After reclamation the ids answer
  /// NotFound and queue() returns nullptr — callers who need the queue
  /// across a reclaim hold a queue_handle.
  ///
  /// A closed session's detached subscriptions always qualify. With
  /// `drained_in_open_sessions` (the explicit-compaction default), a
  /// fully-drained detached subscription in a still-open session
  /// qualifies as well; the socket frontend's disconnect path passes
  /// false so one tenant's disconnect never changes what another tenant's
  /// open session observes (a drained POLL stays "n=0", it doesn't flip
  /// to NotFound because an unrelated connection went away).
  size_t ReclaimDetached(bool drained_in_open_sessions = true);

  /// Age-based sweep (the other half of reclamation): reclaims every
  /// detached subscription in a still-open session whose queue is fully
  /// drained and whose detach happened at least
  /// limits().detached_reclaim_age control epochs ago. Runs
  /// automatically from the Feed/FeedBatch control path every
  /// aged_sweep_interval epochs when the age limit is configured; also
  /// callable directly. Returns how many were reclaimed.
  size_t ReclaimAged();

  // --- Durability -----------------------------------------------------------
  /// Durable image of the control plane (open sessions + live
  /// subscriptions), for the snapshot writer.
  ServicePersistState ExportPersistState() const;

  /// Recreates sessions and subscriptions from a snapshot image through
  /// the ordinary Submit path — the backend backfills each query's
  /// SJ-Tree from the (already restored) window, paused subscriptions
  /// come back paused, and kBlock subscriptions come back paused too
  /// (blocking needs a live consumer; none exists until the owner
  /// re-attaches and resumes). Restored sessions are unbound until one
  /// AttachSession claims each. Call on a freshly constructed service,
  /// before any tenant traffic.
  Status RestorePersistState(const ServicePersistState& state);

  /// Installs the durability layer's counter probe; Snapshot() folds its
  /// result into ServiceStatsSnapshot::persist (STATS). The installed
  /// probe reads the durability layer's control-thread state without
  /// synchronization, so a durable deployment must call Snapshot() from
  /// the control thread (which every in-tree caller — the interpreter's
  /// STATS on the poll thread, tests on the main thread — already does).
  void set_persist_probe(std::function<PersistCounters()> probe) {
    persist_probe_ = std::move(probe);
  }

  /// Installs the network frontend's counter probe; Snapshot() folds its
  /// result into ServiceStatsSnapshot::frontend so STATS shows live wire
  /// activity. The probe reads the socket server's atomics, so it is safe
  /// from any thread. The server clears it (nullptr) on Stop.
  void set_frontend_probe(std::function<FrontendStatsSnapshot()> probe) {
    frontend_probe_ = std::move(probe);
  }

  /// Installs the always-on pipeline instrumentation sink. The service
  /// records kAdmission and kEngineApply around Feed/FeedBatch and
  /// kEnqueue inside the delivery callback of every subscription
  /// submitted *after* this call — install at deployment setup, before
  /// tenant traffic. Null (the default) costs one branch per call.
  void set_pipeline_metrics(PipelineMetrics* pipeline) {
    pipeline_ = pipeline;
  }

  // --- Introspection -------------------------------------------------------
  /// The subscription's result queue, or nullptr if the ids are unknown
  /// (including reclaimed). Valid until the subscription is reclaimed or
  /// the service is destroyed (detach alone keeps the queue).
  ResultQueue* queue(int session_id, int subscription_id);

  /// Like queue(), but the returned aliasing shared_ptr keeps the whole
  /// DeliveryState alive while held, so a concurrent ReclaimDetached can
  /// never free it out from under the holder (the socket server's stream
  /// pump drains through this). Null when the ids are unknown.
  std::shared_ptr<ResultQueue> queue_handle(int session_id,
                                            int subscription_id);

  /// Closes every subscription's result queue — blocked kBlock producers
  /// wake (their pushes count as drops) and queued matches stay
  /// drainable. Runs off a dedicated registry mutex, NOT mu_, so it is
  /// callable from any thread even while the control thread is wedged
  /// inside a backend call behind a full kBlock queue; the socket
  /// server's shutdown leans on exactly that to guarantee SIGTERM always
  /// lands. This is a point of no return for deliveries: use only when
  /// tearing the service (or its frontend) down.
  void CloseAllQueues();

  StatusOr<SubscriptionState> state(int session_id,
                                    int subscription_id) const;

  /// One call aggregating every admission / delivery / lag counter, per
  /// subscription, per session, and service-wide.
  ServiceStatsSnapshot Snapshot() const;

  /// Per-query runtime detail for every non-detached subscription: the
  /// backend's QueryRuntimeInfo (completions, live/peak partials, and the
  /// per-SJ-Tree-node match/selectivity counters) joined with the owning
  /// session/subscription identity. Control-thread only — the cluster
  /// drains its pending epochs per Info call.
  std::vector<QueryObsSnapshot> QueryInfos();

  const ServiceLimits& limits() const { return limits_; }

 private:
  /// State shared with the backend's callback; outlives detach via
  /// shared_ptr so a callback racing a detach stays safe.
  struct DeliveryState {
    DeliveryState(size_t capacity, OverflowPolicy policy)
        : queue(capacity, policy) {}
    ResultQueue queue;
    std::atomic<bool> paused{false};
    std::atomic<uint64_t> suppressed_while_paused{0};
  };

  struct Subscription {
    int id = -1;
    int session_id = -1;
    int backend_query_id = -1;
    std::string query_name;
    Timestamp window = 0;
    SubscriptionState state = SubscriptionState::kActive;
    std::shared_ptr<DeliveryState> delivery;
    /// Durable identity + the inputs needed to resubmit after recovery.
    std::string tag;
    QueryGraph query;
    DecompositionStrategy strategy =
        DecompositionStrategy::kSelectivityLeftDeep;
    /// Control epoch at Detach; the aged sweep measures staleness from it.
    uint64_t detached_epoch = 0;
  };

  struct Session {
    int id = -1;
    std::string name;
    bool open = true;
    /// False only for recovery-restored sessions nobody has attached
    /// yet; AttachSession claims exactly the unbound ones.
    bool bound = true;
    uint64_t submissions = 0;
    uint64_t admitted = 0;
    uint64_t rejected = 0;
    uint64_t detaches = 0;
    std::vector<int> subscription_ids;
  };

  Session* FindOpenSession(int session_id);
  Subscription* FindSubscription(int session_id, int subscription_id);
  const Subscription* FindSubscription(int session_id,
                                       int subscription_id) const;

  /// Live partial matches across every live subscription (admission
  /// control's budget probe).
  size_t TotalLivePartialMatches();

  /// Detach with mu_ already held.
  Status DetachLocked(Session& session, Subscription& sub);

  /// Folds a subscription's delivery history into the persistent
  /// baselines (Snapshot totals stay monotonic across any reclamation)
  /// — the shared half of ReclaimDetached and the aged sweep. mu_ held.
  void FoldReclaimedLocked(const Subscription& sub);

  /// The aged sweep's body; mu_ held. Returns subscriptions reclaimed.
  size_t ReclaimAgedLocked();

  /// Ticks the control-path clock and runs the periodic aged sweep when
  /// it is due; mu_ held.
  void AdvanceEpochLocked();

  QueryBackend* backend_;
  ServiceLimits limits_;

  /// Guards sessions_/subscriptions_ and the counters below. Never held
  /// while delivering matches (callbacks bypass the control plane).
  mutable std::mutex mu_;
  /// Both tables are keyed by id; ReclaimDetached erases entries, so ids
  /// are not dense and lookups go through the maps.
  std::map<int, Session> sessions_ SW_GUARDED_BY(mu_);
  std::map<int, Subscription> subscriptions_ SW_GUARDED_BY(mu_);
  int next_session_id_ = 0;
  int next_subscription_id_ = 0;

  uint64_t sessions_opened_ = 0;
  uint64_t submissions_ = 0;
  uint64_t admitted_ = 0;
  uint64_t rejected_session_quota_ = 0;
  uint64_t rejected_partial_budget_ = 0;
  uint64_t rejected_other_ = 0;
  uint64_t pauses_ = 0;
  uint64_t resumes_ = 0;
  uint64_t detaches_ = 0;
  uint64_t reclaimed_ = 0;
  uint64_t reclaimed_aged_ = 0;
  uint64_t edges_fed_ = 0;
  /// Advances once per Feed/FeedBatch call — the control-path clock the
  /// aged sweep measures detachment staleness against.
  uint64_t control_epoch_ = 0;

  std::function<PersistCounters()> persist_probe_;
  std::function<FrontendStatsSnapshot()> frontend_probe_;
  PipelineMetrics* pipeline_ = nullptr;

  /// Folded-in history of reclaimed subscriptions, so the service-wide
  /// match counters and lag percentiles in Snapshot stay monotonic across
  /// compaction (a scrape must never see delivered= go backward because a
  /// tenant disconnected).
  uint64_t reclaimed_enqueued_ = 0;
  uint64_t reclaimed_delivered_ = 0;
  uint64_t reclaimed_dropped_ = 0;
  uint64_t reclaimed_suppressed_ = 0;
  LagHistogram reclaimed_lag_;

  /// Every queue ever created, as weak aliasing handles; guarded by its
  /// own mutex (never mu_) so CloseAllQueues can run while mu_ is held by
  /// a wedged control-plane call. Expired entries are pruned on insert.
  mutable std::mutex queue_registry_mu_;
  std::vector<std::weak_ptr<ResultQueue>> queue_registry_
      SW_GUARDED_BY(queue_registry_mu_);
};

}  // namespace streamworks

#endif  // STREAMWORKS_SERVICE_QUERY_SERVICE_H_
