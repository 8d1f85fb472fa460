#include "streamworks/service/query_service.h"

#include "streamworks/common/logging.h"

namespace streamworks {

namespace {

/// Result-queue capacity and overflow policy when SubmitOptions doesn't
/// pick them.
constexpr size_t kDefaultQueueCapacity = 1024;
constexpr OverflowPolicy kDefaultOverflowPolicy = OverflowPolicy::kDropOldest;

}  // namespace

std::string_view SubscriptionStateName(SubscriptionState state) {
  switch (state) {
    case SubscriptionState::kActive:
      return "active";
    case SubscriptionState::kPaused:
      return "paused";
    case SubscriptionState::kDetached:
      return "detached";
  }
  return "unknown";
}

QueryService::QueryService(QueryBackend* backend, ServiceLimits limits)
    : backend_(backend), limits_(limits) {
  SW_CHECK_GT(limits_.max_queries_per_session, 0);
}

QueryService::~QueryService() {
  std::lock_guard<std::mutex> lock(mu_);
  // Close every queue first so no backend worker is left blocked in a
  // kBlock Push (which would wedge the unregisters below).
  for (auto& [id, sub] : subscriptions_) {
    if (sub.state != SubscriptionState::kDetached) {
      sub.delivery->queue.Close();
    }
  }
  for (auto& [id, sub] : subscriptions_) {
    if (sub.state == SubscriptionState::kDetached) continue;
    backend_->Unregister(sub.backend_query_id).ok();
    sub.state = SubscriptionState::kDetached;
  }
}

StatusOr<int> QueryService::OpenSession(std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, s] : sessions_) {
    if (s.open && s.name == name) {
      return Status::AlreadyExists("session name already open: " + name);
    }
  }
  Session session;
  session.id = next_session_id_++;
  session.name = std::move(name);
  const int id = session.id;
  sessions_.emplace(id, std::move(session));
  ++sessions_opened_;
  return id;
}

QueryService::Session* QueryService::FindOpenSession(int session_id) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return nullptr;
  return it->second.open ? &it->second : nullptr;
}

QueryService::Subscription* QueryService::FindSubscription(
    int session_id, int subscription_id) {
  auto it = subscriptions_.find(subscription_id);
  if (it == subscriptions_.end()) return nullptr;
  return it->second.session_id == session_id ? &it->second : nullptr;
}

const QueryService::Subscription* QueryService::FindSubscription(
    int session_id, int subscription_id) const {
  return const_cast<QueryService*>(this)->FindSubscription(session_id,
                                                           subscription_id);
}

size_t QueryService::TotalLivePartialMatches() {
  size_t total = 0;
  for (const auto& [id, sub] : subscriptions_) {
    if (sub.state == SubscriptionState::kDetached) continue;
    auto info = backend_->Info(sub.backend_query_id);
    if (info.ok()) total += info->live_partial_matches;
  }
  return total;
}

StatusOr<int> QueryService::Submit(int session_id, const QueryGraph& query,
                                   SubmitOptions options) {
  std::lock_guard<std::mutex> lock(mu_);
  Session* session = FindOpenSession(session_id);
  if (session == nullptr) {
    return Status::NotFound("unknown or closed session id");
  }
  ++submissions_;
  ++session->submissions;

  int live = 0;
  for (int sid : session->subscription_ids) {
    if (subscriptions_.at(sid).state != SubscriptionState::kDetached) ++live;
  }
  if (live >= limits_.max_queries_per_session) {
    ++rejected_session_quota_;
    ++session->rejected;
    return Status::ResourceExhausted(
        "session query quota exceeded (max " +
        std::to_string(limits_.max_queries_per_session) + ")");
  }
  if (limits_.live_partial_match_budget > 0 &&
      TotalLivePartialMatches() >= limits_.live_partial_match_budget) {
    ++rejected_partial_budget_;
    ++session->rejected;
    return Status::ResourceExhausted(
        "service live partial-match budget exhausted");
  }

  const size_t capacity = options.queue_capacity > 0
                              ? options.queue_capacity
                              : kDefaultQueueCapacity;
  const OverflowPolicy policy = options.policy.value_or(kDefaultOverflowPolicy);
  auto delivery = std::make_shared<DeliveryState>(capacity, policy);
  {
    std::lock_guard<std::mutex> registry_lock(queue_registry_mu_);
    std::erase_if(queue_registry_,
                  [](const std::weak_ptr<ResultQueue>& weak) {
                    return weak.expired();
                  });
    queue_registry_.push_back(
        std::shared_ptr<ResultQueue>(delivery, &delivery->queue));
  }

  // The callback owns a reference to the delivery state, so it stays valid
  // even if it races a detach on the cluster's pump thread.
  // The pipeline sink is captured by value at submit time (the sink is
  // wired once at deployment setup and outlives every subscription).
  PipelineMetrics* const pipeline = pipeline_;
  const int sub_id_hint = next_subscription_id_;
  auto callback = [delivery, pipeline, session_id,
                   sub_id_hint](const CompleteMatch& cm) {
    if (delivery->paused.load(std::memory_order_acquire)) {
      delivery->suppressed_while_paused.fetch_add(1,
                                                  std::memory_order_relaxed);
      return;
    }
    // Render here, on the delivering thread: the one point where cm.graph
    // is safe against concurrent ingest. Consumers (EVENT pump, POLL)
    // print the pre-rendered text instead of touching the graph.
    CompleteMatch queued = cm;
    queued.rendered = cm.match.ToExternalString(*cm.graph);
    if (pipeline == nullptr) {
      delivery->queue.Push(std::move(queued));
      return;
    }
    const uint64_t t0 = PipelineMetrics::NowMicros();
    delivery->queue.Push(std::move(queued));
    // kBlock queues make this stage the end-to-end throttling point, so a
    // slow consumer shows up here — exactly what the trace ring is for.
    pipeline->Record(PipelineStage::kEnqueue,
                     PipelineMetrics::NowMicros() - t0, session_id,
                     sub_id_hint);
  };

  auto registered = backend_->Register(query, options.strategy,
                                       options.window, std::move(callback));
  if (!registered.ok()) {
    ++rejected_other_;
    ++session->rejected;
    return registered.status();
  }

  Subscription sub;
  sub.id = next_subscription_id_++;
  sub.session_id = session_id;
  sub.backend_query_id = registered.value();
  sub.query_name = query.name();
  sub.window = options.window;
  sub.delivery = std::move(delivery);
  sub.tag = options.tag;
  sub.query = query;
  sub.strategy = options.strategy;
  session->subscription_ids.push_back(sub.id);
  const int id = sub.id;
  subscriptions_.emplace(id, std::move(sub));
  ++admitted_;
  ++session->admitted;
  return id;
}

Status QueryService::Pause(int session_id, int subscription_id) {
  std::lock_guard<std::mutex> lock(mu_);
  Subscription* sub = FindSubscription(session_id, subscription_id);
  if (sub == nullptr) return Status::NotFound("unknown subscription");
  if (sub->state != SubscriptionState::kActive) {
    return Status::FailedPrecondition(
        "can only pause an active subscription (state is " +
        std::string(SubscriptionStateName(sub->state)) + ")");
  }
  sub->state = SubscriptionState::kPaused;
  sub->delivery->paused.store(true, std::memory_order_release);
  ++pauses_;
  return OkStatus();
}

Status QueryService::Resume(int session_id, int subscription_id) {
  std::lock_guard<std::mutex> lock(mu_);
  Subscription* sub = FindSubscription(session_id, subscription_id);
  if (sub == nullptr) return Status::NotFound("unknown subscription");
  if (sub->state != SubscriptionState::kPaused) {
    return Status::FailedPrecondition(
        "can only resume a paused subscription (state is " +
        std::string(SubscriptionStateName(sub->state)) + ")");
  }
  sub->state = SubscriptionState::kActive;
  sub->delivery->paused.store(false, std::memory_order_release);
  ++resumes_;
  return OkStatus();
}

Status QueryService::DetachLocked(Session& session, Subscription& sub) {
  if (sub.state == SubscriptionState::kDetached) {
    return Status::FailedPrecondition("subscription already detached");
  }
  // Close the queue BEFORE unregistering: a kBlock producer stuck in
  // Push on the cluster's pump thread would otherwise hold the cluster
  // lock the unregister needs, deadlocking it. Post-close completions
  // racing the unregister are counted as drops — detach discards them by
  // definition; already-queued matches stay drainable.
  sub.delivery->queue.Close();
  SW_RETURN_IF_ERROR(backend_->Unregister(sub.backend_query_id));
  sub.state = SubscriptionState::kDetached;
  sub.detached_epoch = control_epoch_;
  ++detaches_;
  ++session.detaches;
  return OkStatus();
}

Status QueryService::Detach(int session_id, int subscription_id) {
  std::lock_guard<std::mutex> lock(mu_);
  Session* session = FindOpenSession(session_id);
  if (session == nullptr) {
    return Status::NotFound("unknown or closed session id");
  }
  Subscription* sub = FindSubscription(session_id, subscription_id);
  if (sub == nullptr) return Status::NotFound("unknown subscription");
  return DetachLocked(*session, *sub);
}

Status QueryService::CloseSession(int session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  Session* session = FindOpenSession(session_id);
  if (session == nullptr) {
    return Status::NotFound("unknown or closed session id");
  }
  for (int sid : session->subscription_ids) {
    Subscription& sub = subscriptions_.at(sid);
    if (sub.state != SubscriptionState::kDetached) {
      SW_RETURN_IF_ERROR(DetachLocked(*session, sub));
    }
  }
  session->open = false;
  return OkStatus();
}

void QueryService::FoldReclaimedLocked(const Subscription& sub) {
  // Fold the subscription's delivery history into the persistent
  // baselines before erasing it: service-wide totals are monotonic.
  const ResultQueueCounters counters = sub.delivery->queue.counters();
  reclaimed_enqueued_ += counters.enqueued;
  reclaimed_delivered_ += counters.delivered;
  // Matches still queued at reclaim time are being discarded right here —
  // count them as dropped so enqueued always reconciles against
  // delivered + dropped + live depth.
  reclaimed_dropped_ += counters.dropped + (counters.enqueued -
                                            counters.delivered -
                                            counters.dropped);
  reclaimed_suppressed_ += sub.delivery->suppressed_while_paused.load(
      std::memory_order_relaxed);
  reclaimed_lag_.Merge(sub.delivery->queue.lag_histogram());
}

size_t QueryService::ReclaimAgedLocked() {
  size_t reclaimed = 0;
  for (auto& [session_id, session] : sessions_) {
    if (!session.open) continue;  // closed sessions are ReclaimDetached's
    auto& ids = session.subscription_ids;
    for (size_t i = 0; i < ids.size();) {
      auto it = subscriptions_.find(ids[i]);
      SW_CHECK(it != subscriptions_.end());
      Subscription& sub = it->second;
      const bool aged =
          sub.state == SubscriptionState::kDetached &&
          sub.delivery->queue.size() == 0 &&
          control_epoch_ - sub.detached_epoch >=
              limits_.detached_reclaim_age;
      if (aged) {
        FoldReclaimedLocked(sub);
        subscriptions_.erase(it);
        ids.erase(ids.begin() + static_cast<ptrdiff_t>(i));
        ++reclaimed;
      } else {
        ++i;
      }
    }
  }
  reclaimed_ += reclaimed;
  reclaimed_aged_ += reclaimed;
  return reclaimed;
}

size_t QueryService::ReclaimAged() {
  std::lock_guard<std::mutex> lock(mu_);
  return ReclaimAgedLocked();
}

size_t QueryService::ReclaimDetached(bool drained_in_open_sessions) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t reclaimed = 0;
  for (auto session_it = sessions_.begin(); session_it != sessions_.end();) {
    Session& session = session_it->second;
    auto& ids = session.subscription_ids;
    for (size_t i = 0; i < ids.size();) {
      auto it = subscriptions_.find(ids[i]);
      SW_CHECK(it != subscriptions_.end());
      Subscription& sub = it->second;
      // Reclaimable = detached, and nobody can still legitimately drain
      // it: the session is gone, or (when the caller opted in) the queue
      // has nothing left. The backend dropped its callback (and its
      // DeliveryState ref) when Detach unregistered the query, so erasing
      // here releases the last service-held reference.
      const bool drained = drained_in_open_sessions &&
                           sub.delivery->queue.size() == 0;
      if (sub.state == SubscriptionState::kDetached &&
          (!session.open || drained)) {
        FoldReclaimedLocked(sub);
        subscriptions_.erase(it);
        ids.erase(ids.begin() + i);
        ++reclaimed;
      } else {
        ++i;
      }
    }
    // A closed session with nothing left to drain is itself a tombstone:
    // erase it so connection churn doesn't grow the STATS walk forever.
    if (!session.open && ids.empty()) {
      session_it = sessions_.erase(session_it);
    } else {
      ++session_it;
    }
  }
  reclaimed_ += reclaimed;
  return reclaimed;
}

void QueryService::AdvanceEpochLocked() {
  ++control_epoch_;
  if (limits_.detached_reclaim_age > 0 &&
      limits_.aged_sweep_interval > 0 &&
      control_epoch_ % limits_.aged_sweep_interval == 0) {
    ReclaimAgedLocked();
  }
}

Status QueryService::Feed(const StreamEdge& edge) {
  PipelineMetrics* pipeline = pipeline_;
  const uint64_t t0 = pipeline ? PipelineMetrics::NowMicros() : 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++edges_fed_;
    AdvanceEpochLocked();
  }
  if (pipeline == nullptr) return backend_->Feed(edge);
  const uint64_t t1 = PipelineMetrics::NowMicros();
  pipeline->Record(PipelineStage::kAdmission, t1 - t0);
  Status status = backend_->Feed(edge);
  pipeline->Record(PipelineStage::kEngineApply,
                   PipelineMetrics::NowMicros() - t1, -1, -1, /*detail=*/1);
  return status;
}

Status QueryService::FeedBatch(const EdgeBatch& batch,
                               size_t* rejected_out) {
  PipelineMetrics* pipeline = pipeline_;
  const uint64_t t0 = pipeline ? PipelineMetrics::NowMicros() : 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    edges_fed_ += batch.size();
    AdvanceEpochLocked();
  }
  if (pipeline == nullptr) return backend_->FeedBatch(batch, rejected_out);
  const uint64_t t1 = PipelineMetrics::NowMicros();
  pipeline->Record(PipelineStage::kAdmission, t1 - t0);
  Status status = backend_->FeedBatch(batch, rejected_out);
  pipeline->Record(PipelineStage::kEngineApply,
                   PipelineMetrics::NowMicros() - t1, -1, -1,
                   /*detail=*/batch.size());
  return status;
}

void QueryService::Flush() { backend_->Flush(); }

StatusOr<AttachedSession> QueryService::AttachSession(
    std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, session] : sessions_) {
    if (!session.open || session.name != name) continue;
    if (session.bound) {
      return Status::FailedPrecondition(
          "session '" + std::string(name) +
          "' is already bound to a frontend (only recovery-restored, "
          "not-yet-attached sessions can be adopted)");
    }
    session.bound = true;
    AttachedSession attached;
    attached.session_id = session.id;
    for (int sid : session.subscription_ids) {
      const Subscription& sub = subscriptions_.at(sid);
      if (sub.state == SubscriptionState::kDetached) continue;
      attached.subscriptions.push_back(
          AttachedSubscription{sub.tag, sub.id, sub.state});
    }
    return attached;
  }
  return Status::NotFound("no open session named: " + std::string(name));
}

ServicePersistState QueryService::ExportPersistState() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServicePersistState state;
  for (const auto& [id, session] : sessions_) {
    if (!session.open) continue;
    PersistedSession ps;
    ps.name = session.name;
    for (int sid : session.subscription_ids) {
      const Subscription& sub = subscriptions_.at(sid);
      if (sub.state == SubscriptionState::kDetached) continue;
      PersistedSubscription psub;
      psub.tag = sub.tag;
      psub.query = sub.query;
      psub.window = sub.window;
      psub.strategy = sub.strategy;
      psub.queue_capacity = sub.delivery->queue.capacity();
      psub.policy = sub.delivery->queue.policy();
      psub.paused = sub.state == SubscriptionState::kPaused;
      ps.subscriptions.push_back(std::move(psub));
    }
    state.sessions.push_back(std::move(ps));
  }
  return state;
}

Status QueryService::RestorePersistState(const ServicePersistState& state) {
  // Replays the ordinary control-plane calls: admission control applies
  // (a snapshot can only hold what was admitted before, so with the same
  // limits it re-admits), and each Submit backfills its SJ-Tree from the
  // already-restored window through the backend's suppressed-backfill
  // machinery.
  for (const PersistedSession& ps : state.sessions) {
    SW_ASSIGN_OR_RETURN(const int session_id, OpenSession(ps.name));
    {
      // Restored sessions are born unbound: their owner is whichever
      // tenant comes back and claims them with AttachSession — live
      // OpenSession callers stay bound from birth.
      std::lock_guard<std::mutex> lock(mu_);
      sessions_.at(session_id).bound = false;
    }
    for (const PersistedSubscription& psub : ps.subscriptions) {
      SubmitOptions options;
      options.window = psub.window;
      options.strategy = psub.strategy;
      options.queue_capacity = psub.queue_capacity;
      options.policy = psub.policy;
      options.tag = psub.tag;
      SW_ASSIGN_OR_RETURN(const int sub_id,
                          Submit(session_id, psub.query, options));
      // A kBlock queue's contract ("the producer waits for the
      // consumer") is only sound with a live consumer — which is why
      // the socket frontend auto-streams kBlock submissions. A restored
      // subscription has no consumer until its owner re-attaches, so an
      // active kBlock queue would let any other tenant's feed fill it
      // and block delivery on the control thread, wedging the daemon
      // before the owner can even ATTACH. Restore such subscriptions
      // paused: the attach response surfaces the state, and the owner
      // resumes once its delivery path (STREAM/POLL) is in place.
      if (psub.paused || psub.policy == OverflowPolicy::kBlock) {
        SW_RETURN_IF_ERROR(Pause(session_id, sub_id));
      }
    }
  }
  return OkStatus();
}

ResultQueue* QueryService::queue(int session_id, int subscription_id) {
  std::lock_guard<std::mutex> lock(mu_);
  Subscription* sub = FindSubscription(session_id, subscription_id);
  return sub == nullptr ? nullptr : &sub->delivery->queue;
}

std::shared_ptr<ResultQueue> QueryService::queue_handle(int session_id,
                                                        int subscription_id) {
  std::lock_guard<std::mutex> lock(mu_);
  Subscription* sub = FindSubscription(session_id, subscription_id);
  if (sub == nullptr) return nullptr;
  // Aliasing constructor: shares ownership of the DeliveryState, points at
  // its queue.
  return std::shared_ptr<ResultQueue>(sub->delivery, &sub->delivery->queue);
}

void QueryService::CloseAllQueues() {
  std::lock_guard<std::mutex> lock(queue_registry_mu_);
  for (const std::weak_ptr<ResultQueue>& weak : queue_registry_) {
    if (std::shared_ptr<ResultQueue> queue = weak.lock()) queue->Close();
  }
}

StatusOr<SubscriptionState> QueryService::state(int session_id,
                                                int subscription_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Subscription* sub = FindSubscription(session_id, subscription_id);
  if (sub == nullptr) return Status::NotFound("unknown subscription");
  return sub->state;
}

ServiceStatsSnapshot QueryService::Snapshot() const {
  // Shard gauges come first, before mu_ is taken: ShardLoads quiesces a
  // sharded backend, which waits on workers that may in turn be blocked
  // delivering into a full kBlock queue whose consumer needs mu_ to fetch
  // its queue pointer — holding mu_ across the quiesce would deadlock that
  // cycle (and stall every control-plane call behind the drain even
  // without it). ShardLoads touches no service state, so no lock is
  // needed.
  std::vector<ShardLoadSnapshot> shard_loads = backend_->ShardLoads();
  // The persist probe reads the durability layer's own counters; like
  // ShardLoads it must not run under mu_ (it is service-independent
  // state, and keeping the lock narrow keeps Snapshot cheap).
  PersistCounters persist;
  if (persist_probe_) persist = persist_probe_();
  // The frontend probe only loads atomics, but keep it outside mu_ for the
  // same narrow-lock reason.
  FrontendStatsSnapshot frontend;
  if (frontend_probe_) frontend = frontend_probe_();

  std::lock_guard<std::mutex> lock(mu_);
  ServiceStatsSnapshot snap;
  snap.shards = std::move(shard_loads);
  snap.persist = std::move(persist);
  snap.frontend = frontend;
  snap.sessions_opened = sessions_opened_;
  snap.submissions = submissions_;
  snap.admitted = admitted_;
  snap.rejected_session_quota = rejected_session_quota_;
  snap.rejected_partial_budget = rejected_partial_budget_;
  snap.rejected_other = rejected_other_;
  snap.pauses = pauses_;
  snap.resumes = resumes_;
  snap.detaches = detaches_;
  snap.reclaimed = reclaimed_;
  snap.reclaimed_aged = reclaimed_aged_;
  snap.edges_fed = edges_fed_;

  snap.matches_enqueued = reclaimed_enqueued_;
  snap.matches_delivered = reclaimed_delivered_;
  snap.matches_dropped = reclaimed_dropped_;
  snap.matches_suppressed = reclaimed_suppressed_;
  LagHistogram merged_lag = reclaimed_lag_;
  for (const auto& [session_id, session] : sessions_) {
    SessionStatsSnapshot ss;
    ss.session_id = session.id;
    ss.name = session.name;
    ss.open = session.open;
    ss.submissions = session.submissions;
    ss.admitted = session.admitted;
    ss.rejected = session.rejected;
    ss.detaches = session.detaches;
    for (int sid : session.subscription_ids) {
      const Subscription& sub = subscriptions_.at(sid);
      if (sub.state != SubscriptionState::kDetached) ++ss.live_queries;

      SubscriptionStatsSnapshot sub_snap;
      sub_snap.subscription_id = sub.id;
      sub_snap.session_id = sub.session_id;
      sub_snap.query_name = sub.query_name;
      sub_snap.state = std::string(SubscriptionStateName(sub.state));
      sub_snap.policy =
          std::string(OverflowPolicyName(sub.delivery->queue.policy()));
      sub_snap.window = sub.window;
      const ResultQueueCounters counters = sub.delivery->queue.counters();
      sub_snap.enqueued = counters.enqueued;
      sub_snap.delivered = counters.delivered;
      sub_snap.dropped = counters.dropped;
      sub_snap.suppressed_while_paused =
          sub.delivery->suppressed_while_paused.load(
              std::memory_order_relaxed);
      sub_snap.queue_depth = sub.delivery->queue.size();

      snap.matches_enqueued += sub_snap.enqueued;
      snap.matches_delivered += sub_snap.delivered;
      snap.matches_dropped += sub_snap.dropped;
      snap.matches_suppressed += sub_snap.suppressed_while_paused;
      merged_lag.Merge(sub.delivery->queue.lag_histogram());

      ss.subscriptions.push_back(std::move(sub_snap));
    }
    snap.sessions.push_back(std::move(ss));
  }
  snap.delivery_lag_p50_us = merged_lag.Quantile(0.5);
  snap.delivery_lag_p99_us = merged_lag.Quantile(0.99);
  snap.delivery_lag = merged_lag;
  return snap;
}

std::vector<QueryObsSnapshot> QueryService::QueryInfos() {
  // Phase 1: collect identity rows under mu_. Backend Info() calls quiesce
  // shards, so they happen after the lock is released (same contract as
  // Snapshot's ShardLoads ordering). This method is control-thread-only,
  // so no subscription can detach between the two phases.
  struct Row {
    QueryObsSnapshot snap;
    int backend_query_id = -1;
  };
  std::vector<Row> rows;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [sid, sub] : subscriptions_) {
      if (sub.state == SubscriptionState::kDetached) continue;
      Row row;
      row.snap.session_id = sub.session_id;
      row.snap.subscription_id = sub.id;
      auto session_it = sessions_.find(sub.session_id);
      if (session_it != sessions_.end()) {
        row.snap.session_name = session_it->second.name;
      }
      row.snap.query_name = sub.query_name;
      row.snap.tag = sub.tag;
      row.snap.state = std::string(SubscriptionStateName(sub.state));
      row.backend_query_id = sub.backend_query_id;
      rows.push_back(std::move(row));
    }
  }
  std::vector<QueryObsSnapshot> out;
  out.reserve(rows.size());
  for (Row& row : rows) {
    StatusOr<QueryRuntimeInfo> info = backend_->Info(row.backend_query_id);
    if (info.ok()) row.snap.info = std::move(info.value());
    out.push_back(std::move(row.snap));
  }
  return out;
}

}  // namespace streamworks
