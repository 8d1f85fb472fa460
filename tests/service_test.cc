// Tests for streamworks/service: ResultQueue overflow policies, engine
// query lifecycle (unregister, mid-stream register), the QueryService
// state machine with admission control and exactly-once delivery across
// detach/re-submit, the service over a cluster of worker daemons, metrics
// aggregation, and the command interpreter's scripted multi-tenant
// scenarios.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include "streamworks/common/interner.h"
#include "streamworks/core/engine.h"
#include "streamworks/service/backend.h"
#include "streamworks/service/interpreter.h"
#include "streamworks/service/metrics.h"
#include "streamworks/service/query_service.h"
#include "streamworks/service/result_queue.h"

#include "cluster_fixture.h"

namespace streamworks {
namespace {

StreamEdge MakeEdge(Interner* interner, uint64_t src, uint64_t dst,
                    std::string_view elabel, Timestamp ts,
                    std::string_view src_label = "V",
                    std::string_view dst_label = "V") {
  StreamEdge e;
  e.src = src;
  e.dst = dst;
  e.src_label = interner->Intern(src_label);
  e.dst_label = interner->Intern(dst_label);
  e.edge_label = interner->Intern(elabel);
  e.ts = ts;
  return e;
}

/// Single-edge query a -[ping]-> b over "V" vertices: every matching edge
/// completes one match immediately, which makes delivery counting exact.
QueryGraph PingQuery(Interner* interner, std::string_view name = "ping_q") {
  QueryGraphBuilder b(interner);
  const auto a = b.AddVertex("V");
  const auto c = b.AddVertex("V");
  b.AddEdge(a, c, "ping");
  auto built = b.Build(name);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return *built;
}

/// Two-edge path query: u -[login]-> h -[connect]-> x. Planned with
/// single-edge leaves (kLeftDeepEdgeOrder), its first edge parks a partial
/// match, which admission-budget tests lean on; the default strategy
/// plans it as one wedge leaf, which parks nothing.
QueryGraph PathQuery(Interner* interner, std::string_view name = "path_q") {
  QueryGraphBuilder b(interner);
  const auto u = b.AddVertex("V");
  const auto h = b.AddVertex("V");
  const auto x = b.AddVertex("V");
  b.AddEdge(u, h, "login");
  b.AddEdge(h, x, "connect");
  auto built = b.Build(name);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return *built;
}

CompleteMatch FakeMatch(Timestamp completed_at) {
  CompleteMatch cm;
  cm.query_id = 0;
  cm.completed_at = completed_at;
  return cm;
}

// --- LagHistogram ----------------------------------------------------------

TEST(LagHistogramTest, QuantilesOfEmptyAndSingleton) {
  LagHistogram h;
  EXPECT_EQ(h.Quantile(0.5), 0u);
  h.Record(100);
  EXPECT_EQ(h.total_count(), 1u);
  // 100us lands in bucket [64, 128); with one sample in the bucket the
  // interpolated quantile sits at the bucket lower bound (the old
  // upper-bound answer overestimated a lone 100us sample as 127us).
  EXPECT_EQ(h.Quantile(0.5), 64u);
  EXPECT_EQ(h.Quantile(0.99), 64u);
}

TEST(LagHistogramTest, MergeAndTailQuantile) {
  LagHistogram a;
  for (int i = 0; i < 90; ++i) a.Record(1);
  LagHistogram b;
  for (int i = 0; i < 10; ++i) b.Record(1 << 20);
  a.Merge(b);
  EXPECT_EQ(a.total_count(), 100u);
  EXPECT_EQ(a.Quantile(0.5), 1u);
  EXPECT_GE(a.Quantile(0.99), uint64_t{1} << 20);
}

// --- ResultQueue -----------------------------------------------------------

TEST(ResultQueueTest, DropOldestKeepsNewestMatches) {
  ResultQueue q(2, OverflowPolicy::kDropOldest);
  for (Timestamp ts = 1; ts <= 5; ++ts) q.Push(FakeMatch(ts));
  EXPECT_EQ(q.counters().enqueued, 5u);
  EXPECT_EQ(q.counters().dropped, 3u);
  std::vector<CompleteMatch> drained;
  EXPECT_EQ(q.Drain(&drained), 2u);
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].completed_at, 4);
  EXPECT_EQ(drained[1].completed_at, 5);
  EXPECT_EQ(q.counters().delivered, 2u);
}

TEST(ResultQueueTest, DropNewestKeepsOldestMatches) {
  ResultQueue q(2, OverflowPolicy::kDropNewest);
  for (Timestamp ts = 1; ts <= 5; ++ts) q.Push(FakeMatch(ts));
  EXPECT_EQ(q.counters().enqueued, 2u);
  EXPECT_EQ(q.counters().dropped, 3u);
  std::vector<CompleteMatch> drained;
  q.Drain(&drained);
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].completed_at, 1);
  EXPECT_EQ(drained[1].completed_at, 2);
}

TEST(ResultQueueTest, BlockPolicyStallsProducerUntilPop) {
  ResultQueue q(1, OverflowPolicy::kBlock);
  q.Push(FakeMatch(1));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    q.Push(FakeMatch(2));
    second_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_pushed.load());  // full queue blocks the producer

  CompleteMatch out;
  ASSERT_TRUE(q.TryPop(&out));
  EXPECT_EQ(out.completed_at, 1);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_EQ(q.counters().dropped, 0u);
  EXPECT_EQ(q.counters().enqueued, 2u);
}

TEST(ResultQueueTest, CloseUnblocksProducerAndKeepsQueueDrainable) {
  ResultQueue q(1, OverflowPolicy::kBlock);
  q.Push(FakeMatch(1));
  std::thread producer([&] { q.Push(FakeMatch(2)); });  // blocks: full
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  producer.join();  // close released it; the match was dropped
  EXPECT_EQ(q.counters().dropped, 1u);
  q.Push(FakeMatch(3));  // post-close pushes are drops too
  EXPECT_EQ(q.counters().dropped, 2u);

  CompleteMatch out;
  ASSERT_TRUE(q.TryPop(&out));  // pre-close match still drainable
  EXPECT_EQ(out.completed_at, 1);
  EXPECT_FALSE(q.TryPop(&out));
}

TEST(ResultQueueTest, WaitPopTimesOutOnEmptyAndWakesOnPush) {
  ResultQueue q(4, OverflowPolicy::kBlock);
  CompleteMatch out;
  EXPECT_FALSE(q.WaitPop(&out, std::chrono::milliseconds(10)));
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.Push(FakeMatch(7));
  });
  EXPECT_TRUE(q.WaitPop(&out, std::chrono::seconds(5)));
  EXPECT_EQ(out.completed_at, 7);
  producer.join();
  EXPECT_EQ(q.lag_histogram().total_count(), 1u);
}

// --- Engine lifecycle ------------------------------------------------------

TEST(EngineLifecycleTest, UnregisterStopsRoutingAndPreservesOthers) {
  Interner interner;
  StreamWorksEngine engine(&interner);
  int hits_a = 0, hits_b = 0;
  const QueryGraph q = PingQuery(&interner);
  const int qa = engine
                     .RegisterQuery(q, DecompositionStrategy::kLeftDeepEdgeOrder,
                                    1000, [&](const CompleteMatch&) { ++hits_a; })
                     .value();
  const int qb = engine
                     .RegisterQuery(q, DecompositionStrategy::kLeftDeepEdgeOrder,
                                    1000, [&](const CompleteMatch&) { ++hits_b; })
                     .value();
  EXPECT_EQ(engine.num_queries(), 2u);

  ASSERT_TRUE(engine.ProcessEdge(MakeEdge(&interner, 1, 2, "ping", 1)).ok());
  EXPECT_EQ(hits_a, 1);
  EXPECT_EQ(hits_b, 1);

  ASSERT_TRUE(engine.UnregisterQuery(qa).ok());
  EXPECT_EQ(engine.num_queries(), 1u);
  EXPECT_FALSE(engine.has_query(qa));
  EXPECT_TRUE(engine.has_query(qb));
  EXPECT_FALSE(engine.UnregisterQuery(qa).ok());  // double-unregister

  ASSERT_TRUE(engine.ProcessEdge(MakeEdge(&interner, 3, 4, "ping", 2)).ok());
  EXPECT_EQ(hits_a, 1);  // detached query got nothing
  EXPECT_EQ(hits_b, 2);

  // Ids are not recycled: a fresh registration gets a fresh id and routes.
  const int qc = engine
                     .RegisterQuery(q, DecompositionStrategy::kLeftDeepEdgeOrder,
                                    1000, [&](const CompleteMatch&) { ++hits_a; })
                     .value();
  EXPECT_NE(qc, qa);
  ASSERT_TRUE(engine.ProcessEdge(MakeEdge(&interner, 5, 6, "ping", 3)).ok());
  EXPECT_EQ(hits_a, 2);
  EXPECT_EQ(hits_b, 3);
}

TEST(EngineLifecycleTest, RetentionCanShrinkOnceAllQueriesUnregistered) {
  Interner interner;
  StreamWorksEngine engine(&interner);
  const QueryGraph q = PingQuery(&interner);
  const int qid = engine
                      .RegisterQuery(q, DecompositionStrategy::kLeftDeepEdgeOrder,
                                     kMaxTimestamp, nullptr)
                      .value();
  EXPECT_EQ(engine.graph().retention(), kMaxTimestamp);
  ASSERT_TRUE(engine.UnregisterQuery(qid).ok());
  // No live query pins the unbounded window, so a finite registration may
  // finally bound the graph's memory.
  ASSERT_TRUE(engine
                  .RegisterQuery(q, DecompositionStrategy::kLeftDeepEdgeOrder,
                                 500, nullptr)
                  .ok());
  EXPECT_EQ(engine.graph().retention(), 500);
}

TEST(EngineLifecycleTest, ReplanOfUnregisteredQueryFails) {
  Interner interner;
  StreamWorksEngine engine(&interner);
  const QueryGraph q = PingQuery(&interner);
  const int qid = engine
                      .RegisterQuery(q, DecompositionStrategy::kLeftDeepEdgeOrder,
                                     1000, nullptr)
                      .value();
  ASSERT_TRUE(engine.UnregisterQuery(qid).ok());
  EXPECT_FALSE(engine.ReplanQuery(qid).ok());
}

// --- QueryService ----------------------------------------------------------

class QueryServiceTest : public ::testing::Test {
 protected:
  QueryServiceTest() : engine_(&interner_), backend_(&engine_) {}

  Status FeedPing(uint64_t src, uint64_t dst, Timestamp ts,
                  QueryService& service) {
    return service.Feed(MakeEdge(&interner_, src, dst, "ping", ts));
  }

  Interner interner_;
  StreamWorksEngine engine_;
  SingleEngineBackend backend_;
};

TEST_F(QueryServiceTest, LifecycleStateMachine) {
  QueryService service(&backend_);
  const int session = service.OpenSession("alice").value();
  const int sub = service.Submit(session, PingQuery(&interner_)).value();

  EXPECT_EQ(service.state(session, sub).value(), SubscriptionState::kActive);
  EXPECT_FALSE(service.Resume(session, sub).ok());  // active -> resume: no

  ASSERT_TRUE(service.Pause(session, sub).ok());
  EXPECT_EQ(service.state(session, sub).value(), SubscriptionState::kPaused);
  EXPECT_FALSE(service.Pause(session, sub).ok());  // paused -> pause: no

  ASSERT_TRUE(service.Resume(session, sub).ok());
  EXPECT_EQ(service.state(session, sub).value(), SubscriptionState::kActive);

  ASSERT_TRUE(service.Detach(session, sub).ok());
  EXPECT_EQ(service.state(session, sub).value(),
            SubscriptionState::kDetached);
  EXPECT_FALSE(service.Detach(session, sub).ok());  // terminal
  EXPECT_FALSE(service.Pause(session, sub).ok());
  EXPECT_FALSE(service.Resume(session, sub).ok());

  // Unknown ids are NotFound, not crashes.
  EXPECT_FALSE(service.Pause(session, 999).ok());
  EXPECT_FALSE(service.Submit(77, PingQuery(&interner_)).ok());
}

TEST_F(QueryServiceTest, PauseSuppressesAndResumeRedelivers) {
  QueryService service(&backend_);
  const int session = service.OpenSession("alice").value();
  const int sub = service.Submit(session, PingQuery(&interner_)).value();
  ResultQueue* queue = service.queue(session, sub);
  ASSERT_NE(queue, nullptr);

  ASSERT_TRUE(FeedPing(1, 2, 1, service).ok());
  EXPECT_EQ(queue->size(), 1u);

  ASSERT_TRUE(service.Pause(session, sub).ok());
  ASSERT_TRUE(FeedPing(3, 4, 2, service).ok());
  ASSERT_TRUE(FeedPing(5, 6, 3, service).ok());
  EXPECT_EQ(queue->size(), 1u);  // nothing delivered while paused

  ASSERT_TRUE(service.Resume(session, sub).ok());
  ASSERT_TRUE(FeedPing(7, 8, 4, service).ok());
  EXPECT_EQ(queue->size(), 2u);

  const ServiceStatsSnapshot snap = service.Snapshot();
  EXPECT_EQ(snap.matches_suppressed, 2u);
  EXPECT_EQ(snap.matches_enqueued, 2u);
  ASSERT_EQ(snap.sessions.size(), 1u);
  ASSERT_EQ(snap.sessions[0].subscriptions.size(), 1u);
  EXPECT_EQ(snap.sessions[0].subscriptions[0].suppressed_while_paused, 2u);
}

TEST_F(QueryServiceTest, ExactlyOnceAcrossDetachAndResubmit) {
  QueryService service(&backend_);
  const int session = service.OpenSession("alice").value();
  const int sub1 = service.Submit(session, PingQuery(&interner_)).value();

  ASSERT_TRUE(FeedPing(1, 2, 1, service).ok());
  ASSERT_TRUE(FeedPing(3, 4, 2, service).ok());
  std::vector<CompleteMatch> first_batch;
  service.queue(session, sub1)->Drain(&first_batch);
  ASSERT_EQ(first_batch.size(), 2u);

  ASSERT_TRUE(service.Detach(session, sub1).ok());

  // Re-submit the same pattern. The engine backfills the live window with
  // completions suppressed, so the two already-delivered matches must NOT
  // reappear; only genuinely new completions flow.
  const int sub2 = service.Submit(session, PingQuery(&interner_)).value();
  EXPECT_NE(sub1, sub2);
  ASSERT_TRUE(FeedPing(5, 6, 3, service).ok());

  std::vector<CompleteMatch> second_batch;
  service.queue(session, sub2)->Drain(&second_batch);
  ASSERT_EQ(second_batch.size(), 1u);
  EXPECT_EQ(second_batch[0].completed_at, 3);

  // And the detached queue saw nothing further.
  std::vector<CompleteMatch> leftovers;
  EXPECT_EQ(service.queue(session, sub1)->Drain(&leftovers), 0u);

  const ServiceStatsSnapshot snap = service.Snapshot();
  EXPECT_EQ(snap.matches_enqueued, 3u);
  EXPECT_EQ(snap.matches_delivered, 3u);
  EXPECT_EQ(snap.matches_dropped, 0u);
}

TEST_F(QueryServiceTest, SessionQuotaAdmissionControl) {
  ServiceLimits limits;
  limits.max_queries_per_session = 2;
  QueryService service(&backend_, limits);
  const int session = service.OpenSession("alice").value();

  const int s1 = service.Submit(session, PingQuery(&interner_)).value();
  ASSERT_TRUE(service.Submit(session, PingQuery(&interner_)).ok());
  const auto rejected = service.Submit(session, PingQuery(&interner_));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  // Quota counts live queries: detaching frees a slot.
  ASSERT_TRUE(service.Detach(session, s1).ok());
  EXPECT_TRUE(service.Submit(session, PingQuery(&interner_)).ok());

  // Other sessions have their own quota.
  const int other = service.OpenSession("bob").value();
  EXPECT_TRUE(service.Submit(other, PingQuery(&interner_)).ok());

  const ServiceStatsSnapshot snap = service.Snapshot();
  EXPECT_EQ(snap.rejected_session_quota, 1u);
  EXPECT_EQ(snap.admitted, 4u);
  EXPECT_EQ(snap.submissions, 5u);
}

TEST_F(QueryServiceTest, PartialMatchBudgetAdmissionControl) {
  ServiceLimits limits;
  limits.live_partial_match_budget = 1;
  QueryService service(&backend_, limits);
  const int session = service.OpenSession("alice").value();
  SubmitOptions single_edge_leaves;
  single_edge_leaves.strategy = DecompositionStrategy::kLeftDeepEdgeOrder;
  ASSERT_TRUE(
      service.Submit(session, PathQuery(&interner_), single_edge_leaves)
          .ok());

  // No partial matches yet: still under budget.
  ASSERT_TRUE(
      service.Submit(session, PathQuery(&interner_), single_edge_leaves)
          .ok());

  // One login edge parks a partial match in each live tree; the budget (1)
  // is now met, so the next submission is rejected.
  ASSERT_TRUE(
      service.Feed(MakeEdge(&interner_, 1, 2, "login", 1)).ok());
  const auto rejected =
      service.Submit(session, PathQuery(&interner_), single_edge_leaves);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.Snapshot().rejected_partial_budget, 1u);
}

TEST_F(QueryServiceTest, CloseSessionDetachesEverything) {
  QueryService service(&backend_);
  const int alice = service.OpenSession("alice").value();
  const int bob = service.OpenSession("bob").value();
  const int a1 = service.Submit(alice, PingQuery(&interner_)).value();
  const int a2 = service.Submit(alice, PingQuery(&interner_)).value();
  const int b1 = service.Submit(bob, PingQuery(&interner_)).value();

  ASSERT_TRUE(service.CloseSession(alice).ok());
  EXPECT_EQ(service.state(alice, a1).value(), SubscriptionState::kDetached);
  EXPECT_EQ(service.state(alice, a2).value(), SubscriptionState::kDetached);
  EXPECT_FALSE(service.Submit(alice, PingQuery(&interner_)).ok());
  EXPECT_FALSE(service.CloseSession(alice).ok());  // already closed

  // Bob is untouched and still receives results.
  ASSERT_TRUE(FeedPing(1, 2, 1, service).ok());
  EXPECT_EQ(service.queue(bob, b1)->size(), 1u);
  EXPECT_EQ(engine_.num_queries(), 1u);

  // Duplicate open-session names are rejected; the name frees on close.
  EXPECT_FALSE(service.OpenSession("bob").ok());
  EXPECT_TRUE(service.OpenSession("alice").ok());
}

TEST_F(QueryServiceTest, ReclaimCompactsDetachedSubsOfClosedSessions) {
  QueryService service(&backend_);
  const int alice = service.OpenSession("alice").value();
  const int bob = service.OpenSession("bob").value();
  const int a1 = service.Submit(alice, PingQuery(&interner_)).value();
  const int a2 = service.Submit(alice, PingQuery(&interner_)).value();
  const int b1 = service.Submit(bob, PingQuery(&interner_)).value();
  ASSERT_TRUE(FeedPing(1, 2, 1, service).ok());  // a1/a2/b1 queue a match

  // Nothing is detached yet: nothing to reclaim.
  EXPECT_EQ(service.ReclaimDetached(), 0u);

  ASSERT_TRUE(service.CloseSession(alice).ok());
  // Closed-session subscriptions reclaim even with undrained queues (no
  // consumer can come back for them).
  EXPECT_EQ(service.ReclaimDetached(), 2u);

  // The ids are really gone — lookups answer NotFound/nullptr instead of
  // resolving to retained tombstones...
  EXPECT_FALSE(service.state(alice, a1).ok());
  EXPECT_FALSE(service.state(alice, a2).ok());
  EXPECT_EQ(service.queue(alice, a1), nullptr);
  EXPECT_EQ(service.queue_handle(alice, a2), nullptr);
  // ...the snapshot's tables compacted (alice's emptied closed session is
  // erased outright, not listed as a tombstone)...
  const ServiceStatsSnapshot snap = service.Snapshot();
  EXPECT_EQ(snap.reclaimed, 2u);
  EXPECT_EQ(snap.sessions_opened, 2u);  // history survives compaction
  ASSERT_EQ(snap.sessions.size(), 1u);
  EXPECT_EQ(snap.sessions[0].name, "bob");
  EXPECT_EQ(snap.sessions[0].subscriptions.size(), 1u);
  // Service-wide match totals are monotonic: the reclaimed subscriptions'
  // delivery history (one queued match each for a1/a2) is folded into the
  // baselines, not forgotten with the table entries.
  EXPECT_EQ(snap.matches_enqueued, 3u);
  // ...and bob is untouched.
  EXPECT_EQ(service.queue(bob, b1)->size(), 1u);
  // Ids stay unique across reclamation: a new submit never reuses a1/a2.
  const int b2 = service.Submit(bob, PingQuery(&interner_)).value();
  EXPECT_GT(b2, b1);
  EXPECT_NE(b2, a1);
  EXPECT_NE(b2, a2);
}

TEST_F(QueryServiceTest, ReclaimWaitsForOpenSessionQueuesToDrain) {
  QueryService service(&backend_);
  const int session = service.OpenSession("alice").value();
  const int sub = service.Submit(session, PingQuery(&interner_)).value();
  ASSERT_TRUE(FeedPing(1, 2, 1, service).ok());
  ASSERT_TRUE(service.Detach(session, sub).ok());

  // Detached but still drainable in an open session: the queued match
  // belongs to the consumer, so the subscription is NOT reclaimed...
  EXPECT_EQ(service.ReclaimDetached(), 0u);
  ResultQueue* queue = service.queue(session, sub);
  ASSERT_NE(queue, nullptr);
  std::vector<CompleteMatch> matches;
  EXPECT_EQ(queue->Drain(&matches), 1u);

  // ...and even drained it survives a closed-session-scoped pass (the
  // socket frontend's disconnect path: one tenant's disconnect must not
  // touch another tenant's open session)...
  EXPECT_EQ(service.ReclaimDetached(/*drained_in_open_sessions=*/false),
            0u);
  ASSERT_NE(service.queue(session, sub), nullptr);

  // ...but an explicit full compaction pass takes it.
  EXPECT_EQ(service.ReclaimDetached(), 1u);
  EXPECT_EQ(service.queue(session, sub), nullptr);
  EXPECT_FALSE(service.state(session, sub).ok());
  EXPECT_EQ(service.Snapshot().reclaimed, 1u);
}

TEST_F(QueryServiceTest, QueueHandleOutlivesReclaim) {
  QueryService service(&backend_);
  const int session = service.OpenSession("alice").value();
  const int sub = service.Submit(session, PingQuery(&interner_)).value();
  std::shared_ptr<ResultQueue> handle = service.queue_handle(session, sub);
  ASSERT_NE(handle, nullptr);
  ASSERT_TRUE(FeedPing(1, 2, 1, service).ok());
  ASSERT_TRUE(service.Detach(session, sub).ok());
  ASSERT_TRUE(service.CloseSession(session).ok());
  EXPECT_EQ(service.ReclaimDetached(), 1u);

  // The service forgot the subscription, but the handle (the epoch/
  // refcount holder) keeps the DeliveryState alive and drainable...
  EXPECT_EQ(service.queue(session, sub), nullptr);
  std::vector<CompleteMatch> matches;
  EXPECT_EQ(handle->Drain(&matches), 1u);
  EXPECT_TRUE(handle->closed());

  // ...and the state truly frees when the last holder lets go.
  std::weak_ptr<ResultQueue> weak = handle;
  handle.reset();
  EXPECT_TRUE(weak.expired());
}

TEST_F(QueryServiceTest, OverflowPolicyPerSubscription) {
  QueryService service(&backend_);
  const int session = service.OpenSession("alice").value();
  SubmitOptions oldest;
  oldest.queue_capacity = 2;
  oldest.policy = OverflowPolicy::kDropOldest;
  SubmitOptions newest;
  newest.queue_capacity = 2;
  newest.policy = OverflowPolicy::kDropNewest;
  const int s_old = service.Submit(session, PingQuery(&interner_), oldest)
                        .value();
  const int s_new = service.Submit(session, PingQuery(&interner_), newest)
                        .value();

  for (Timestamp ts = 1; ts <= 5; ++ts) {
    ASSERT_TRUE(FeedPing(10 + ts, 20 + ts, ts, service).ok());
  }

  std::vector<CompleteMatch> old_matches, new_matches;
  service.queue(session, s_old)->Drain(&old_matches);
  service.queue(session, s_new)->Drain(&new_matches);
  ASSERT_EQ(old_matches.size(), 2u);
  ASSERT_EQ(new_matches.size(), 2u);
  EXPECT_EQ(old_matches[0].completed_at, 4);  // oldest were evicted
  EXPECT_EQ(new_matches[1].completed_at, 2);  // newest were discarded
  EXPECT_EQ(service.queue(session, s_old)->counters().dropped, 3u);
  EXPECT_EQ(service.queue(session, s_new)->counters().dropped, 3u);
}

// --- QueryService over a cluster --------------------------------------------

TEST(QueryServiceClusterTest, MultiSessionIsolationAcrossShards) {
  ClusterFixture cluster(3);
  ASSERT_TRUE(cluster.ok);
  Interner& interner = cluster.interner;
  QueryService service(cluster.backend.get());

  const QueryGraph q = PingQuery(&interner);
  const int alice = service.OpenSession("alice").value();
  const int bob = service.OpenSession("bob").value();
  const int carol = service.OpenSession("carol").value();
  const int a = service.Submit(alice, q).value();
  const int b = service.Submit(bob, q).value();
  const int c = service.Submit(carol, q).value();

  auto feed = [&](uint64_t src, uint64_t dst, Timestamp ts) {
    ASSERT_TRUE(
        service.Feed(MakeEdge(&interner, src, dst, "ping", ts)).ok());
  };
  feed(1, 2, 1);
  service.Flush();
  EXPECT_EQ(service.queue(alice, a)->counters().enqueued, 1u);
  EXPECT_EQ(service.queue(bob, b)->counters().enqueued, 1u);
  EXPECT_EQ(service.queue(carol, c)->counters().enqueued, 1u);

  // Detach bob mid-stream; alice and carol keep flowing.
  ASSERT_TRUE(service.Detach(bob, b).ok());
  feed(3, 4, 2);
  feed(5, 6, 3);
  service.Flush();
  EXPECT_EQ(service.queue(alice, a)->counters().enqueued, 3u);
  EXPECT_EQ(service.queue(bob, b)->counters().enqueued, 1u);
  EXPECT_EQ(service.queue(carol, c)->counters().enqueued, 3u);

  const ServiceStatsSnapshot snap = service.Snapshot();
  EXPECT_EQ(snap.matches_enqueued, 7u);
  EXPECT_EQ(snap.detaches, 1u);
  ASSERT_EQ(snap.shards.size(), 3u);
  for (const ShardLoadSnapshot& shard : snap.shards) {
    EXPECT_EQ(shard.sharding, "distributed");
  }
  cluster.backend->Stop();
}

TEST(QueryServiceClusterTest, ClusterBackendServesTenantsWithLoads) {
  // The service's metrics pick up every worker's retained-memory and
  // exchange counters.
  ClusterFixture cluster(3);
  ASSERT_TRUE(cluster.ok);
  Interner& interner = cluster.interner;
  QueryService service(cluster.backend.get());

  const QueryGraph q = PingQuery(&interner);
  const int alice = service.OpenSession("alice").value();
  const int bob = service.OpenSession("bob").value();
  const int a = service.Submit(alice, q).value();
  const int b = service.Submit(bob, q).value();

  for (Timestamp ts = 1; ts <= 16; ++ts) {
    ASSERT_TRUE(service
                    .Feed(MakeEdge(&interner, 100 + ts, 200 + ts, "ping",
                                   ts))
                    .ok());
  }
  service.Flush();
  EXPECT_EQ(service.queue(alice, a)->counters().enqueued, 16u);
  EXPECT_EQ(service.queue(bob, b)->counters().enqueued, 16u);

  const ServiceStatsSnapshot snap = service.Snapshot();
  ASSERT_EQ(snap.shards.size(), 3u);
  uint64_t retained_total = 0;
  for (const ShardLoadSnapshot& shard : snap.shards) {
    EXPECT_EQ(shard.sharding, "distributed");
    retained_total += shard.retained_edges;
  }
  // Each edge lands on one or two owner workers — never on all three.
  EXPECT_GE(retained_total, 16u);
  EXPECT_LE(retained_total, 32u);
  EXPECT_NE(snap.ToString().find("shard 0 [distributed]"), std::string::npos);
  cluster.backend->Stop();
}

TEST(QueryServiceClusterTest, DetachUnwedgesABlockedSubscription) {
  ClusterFixture cluster(1);
  ASSERT_TRUE(cluster.ok);
  Interner& interner = cluster.interner;
  QueryService service(cluster.backend.get());

  const int session = service.OpenSession("alice").value();
  SubmitOptions options;
  options.queue_capacity = 1;
  options.policy = OverflowPolicy::kBlock;
  const int sub =
      service.Submit(session, PingQuery(&interner), options).value();

  // Two matches against a capacity-1 kBlock queue with no consumer: the
  // coordinator's pump thread blocks inside Push while it holds the
  // cluster lock Unregister needs. Detach must still complete (it closes
  // the queue before unregistering).
  ASSERT_TRUE(service.Feed(MakeEdge(&interner, 1, 2, "ping", 1)).ok());
  ASSERT_TRUE(service.Feed(MakeEdge(&interner, 3, 4, "ping", 2)).ok());
  while (service.queue(session, sub)->counters().enqueued < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(service.Detach(session, sub).ok());

  // The queued match survives the detach; the blocked one was dropped.
  std::vector<CompleteMatch> drained;
  EXPECT_EQ(service.queue(session, sub)->Drain(&drained), 1u);
  EXPECT_EQ(service.queue(session, sub)->counters().dropped, 1u);
  cluster.backend->Stop();
}

// --- CommandInterpreter ----------------------------------------------------

class InterpreterTest : public ::testing::Test {
 protected:
  InterpreterTest()
      : engine_(&interner_),
        backend_(&engine_),
        service_(&backend_, Limits()),
        interpreter_(&service_, &interner_, &out_) {}

  static ServiceLimits Limits() {
    ServiceLimits limits;
    limits.max_queries_per_session = 2;
    return limits;
  }

  bool OutputContains(std::string_view needle) const {
    return out_.str().find(needle) != std::string::npos;
  }

  Interner interner_;
  StreamWorksEngine engine_;
  SingleEngineBackend backend_;
  QueryService service_;
  std::ostringstream out_;
  CommandInterpreter interpreter_;
};

TEST_F(InterpreterTest, ScriptedMultiTenantScenario) {
  const Status status = interpreter_.ExecuteScript(R"(
    # Three tenants sharing one stream: different overflow policies and
    # lifecycles over the same single-edge pattern.
    DEFINE ping
      node a V
      node b V
      edge a b ping
      window 1000
    END
    SESSION alice
    SESSION bob
    SESSION carol
    SUBMIT alice fast ping CAP 2 POLICY drop_oldest
    SUBMIT bob slow ping CAP 2 POLICY drop_newest
    SUBMIT carol roomy ping CAP 64 POLICY block

    FEED 1 V 2 V ping 1
    FEED 3 V 4 V ping 2
    FEED 5 V 6 V ping 3
    FEED 7 V 8 V ping 4
    FEED 9 V 10 V ping 5
    FLUSH

    PAUSE bob slow
    FEED 11 V 12 V ping 6
    DETACH alice fast
    FEED 13 V 14 V ping 7
    FLUSH
    RESUME bob slow
    FEED 15 V 16 V ping 8
    STATS
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();

  const auto alice = interpreter_.ResolveSubscription("alice", "fast");
  const auto bob = interpreter_.ResolveSubscription("bob", "slow");
  const auto carol = interpreter_.ResolveSubscription("carol", "roomy");
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(bob.ok());
  ASSERT_TRUE(carol.ok());

  // Overflow policies demonstrably differ: both bounded queues dropped,
  // the roomy blocking queue dropped nothing.
  ResultQueue* alice_q = service_.queue(alice->first, alice->second);
  ResultQueue* bob_q = service_.queue(bob->first, bob->second);
  ResultQueue* carol_q = service_.queue(carol->first, carol->second);
  EXPECT_EQ(alice_q->counters().dropped, 4u);   // 6 offered, cap 2
  EXPECT_EQ(bob_q->counters().dropped, 4u);     // 6 offered around the pause
  EXPECT_EQ(carol_q->counters().dropped, 0u);   // all 8 delivered
  EXPECT_EQ(carol_q->counters().enqueued, 8u);

  // drop_oldest holds the newest matches, drop_newest the oldest.
  std::vector<CompleteMatch> alice_m, bob_m;
  alice_q->Drain(&alice_m);
  bob_q->Drain(&bob_m);
  ASSERT_EQ(alice_m.size(), 2u);
  EXPECT_EQ(alice_m[0].completed_at, 5);  // edges 6/7 arrived post-detach
  EXPECT_EQ(alice_m[1].completed_at, 6);
  ASSERT_EQ(bob_m.size(), 2u);
  EXPECT_EQ(bob_m[0].completed_at, 1);
  EXPECT_EQ(bob_m[1].completed_at, 2);

  // Detach stopped alice's deliveries (edge @7, @8 missing) while carol
  // kept all 8; bob's pause suppressed @6..@7 and resume let @8 through.
  EXPECT_EQ(service_.state(alice->first, alice->second).value(),
            SubscriptionState::kDetached);
  const ServiceStatsSnapshot snap = service_.Snapshot();
  EXPECT_EQ(snap.matches_suppressed, 2u);
  EXPECT_EQ(snap.detaches, 1u);
  EXPECT_EQ(snap.pauses, 1u);
  EXPECT_EQ(snap.resumes, 1u);

  EXPECT_TRUE(OutputContains("OK submit alice.fast"));
  EXPECT_TRUE(OutputContains("OK DETACH alice.fast"));
  EXPECT_TRUE(OutputContains("service: sessions=3"));
}

TEST_F(InterpreterTest, AdmissionRejectionIsAScenarioOutcome) {
  const Status status = interpreter_.ExecuteScript(R"(
    DEFINE ping
      node a V
      node b V
      edge a b ping
    END
    SESSION alice
    SUBMIT alice one ping
    SUBMIT alice two ping
    SUBMIT alice three ping
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();  // script keeps running
  EXPECT_TRUE(OutputContains("REJECTED alice.three"));
  EXPECT_FALSE(interpreter_.ResolveSubscription("alice", "three").ok());
  EXPECT_EQ(service_.Snapshot().rejected_session_quota, 1u);
}

TEST_F(InterpreterTest, PollDrainsAndReportsMatches) {
  ASSERT_TRUE(interpreter_
                  .ExecuteScript(R"(
    DEFINE ping
      node a V
      node b V
      edge a b ping
    END
    SESSION alice
    SUBMIT alice s ping
    FEED 1 V 2 V ping 1
    FEED 3 V 4 V ping 5
    POLL alice s
  )")
                  .ok());
  EXPECT_TRUE(OutputContains("MATCH alice.s completed_at=1"));
  EXPECT_TRUE(OutputContains("MATCH alice.s completed_at=5"));
  EXPECT_TRUE(OutputContains("POLLED alice.s n=2"));
}

TEST_F(InterpreterTest, SubNameReuseRejectedWhileLiveAllowedAfterDetach) {
  ASSERT_TRUE(interpreter_
                  .ExecuteScript(R"(
    DEFINE ping
      node a V
      node b V
      edge a b ping
    END
    SESSION alice
    SUBMIT alice s ping
  )")
                  .ok());
  // A live name must not be silently replaced...
  EXPECT_FALSE(interpreter_.ExecuteLine("SUBMIT alice s ping").ok());
  // ...but detaching frees it for the re-submit flow.
  ASSERT_TRUE(interpreter_.ExecuteLine("DETACH alice s").ok());
  EXPECT_TRUE(interpreter_.ExecuteLine("SUBMIT alice s ping").ok());
}

TEST_F(InterpreterTest, MalformedCommandsCarryLineNumbers) {
  EXPECT_FALSE(interpreter_.ExecuteLine("SUBMIT alice s nosuch").ok());
  EXPECT_FALSE(interpreter_.ExecuteLine("BOGUS").ok());
  EXPECT_FALSE(interpreter_.ExecuteLine("FEED 1 V").ok());
  const Status status = interpreter_.ExecuteScript("DEFINE dangling\n");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("missing END"), std::string::npos);
}

TEST_F(InterpreterTest, TokenizerHandlesTabsRepeatsAndOverflow) {
  ASSERT_TRUE(interpreter_
                  .ExecuteScript(
                      "DEFINE ping\nnode a V\nnode b V\nedge a b ping\n"
                      "window 1000\nEND\nSESSION tabby\n"
                      "SUBMIT tabby live ping")
                  .ok());
  // Tabs and collapsed runs of whitespace tokenize like single spaces.
  ASSERT_TRUE(
      interpreter_.ExecuteLine("FEED\t1  V \t 2   V\tping\t5").ok());
  ASSERT_TRUE(interpreter_.ExecuteLine("FLUSH").ok());
  ASSERT_TRUE(interpreter_.ExecuteLine("POLL tabby live").ok());
  EXPECT_TRUE(OutputContains("POLLED tabby.live n=1"));
  // More tokens than any command can take is refused, not truncated.
  std::string runaway = "FEED";
  for (int i = 0; i < 20; ++i) runaway += " x";
  const Status status = interpreter_.ExecuteLine(runaway);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("too many tokens"), std::string::npos);
}

TEST_F(InterpreterTest, ExecuteBatchRidesTheFastPathAndCounts) {
  ASSERT_TRUE(interpreter_
                  .ExecuteScript(
                      "DEFINE ping\nnode a V\nnode b V\nedge a b ping\n"
                      "window 1000\nEND\nSESSION b\nSUBMIT b live ping")
                  .ok());
  EdgeBatch batch;
  for (int i = 0; i < 3; ++i) {
    StreamEdge e;
    e.src = 2 * static_cast<uint64_t>(i);
    e.dst = 2 * static_cast<uint64_t>(i) + 1;
    e.src_label = interner_.Intern("V");
    e.dst_label = interner_.Intern("V");
    e.edge_label = interner_.Intern("ping");
    e.ts = 10 + i;
    batch.push_back(e);
  }
  // One malformed straggler: time regression against the watermark.
  StreamEdge stale = batch.back();
  stale.src = 100;
  stale.dst = 101;
  stale.ts = 1;
  batch.push_back(stale);
  ASSERT_TRUE(interpreter_.ExecuteBatch(batch).ok());
  // The frame is acknowledged once, the bad edge skipped and counted —
  // and the rest of the batch still ingested.
  EXPECT_TRUE(OutputContains("OK feedb 3 1"));
  EXPECT_EQ(interpreter_.batch_frames(), 1u);
  EXPECT_EQ(interpreter_.batch_edges(), 4u);
  ASSERT_TRUE(interpreter_.ExecuteLine("FLUSH").ok());
  ASSERT_TRUE(interpreter_.ExecuteLine("POLL b live").ok());
  EXPECT_TRUE(OutputContains("POLLED b.live n=3"));
}

// --- Age-based reclamation -------------------------------------------------

TEST_F(QueryServiceTest, AgedSweepReclaimsDrainedDetachedInOpenSessions) {
  ServiceLimits limits;
  limits.detached_reclaim_age = 5;   // epochs (one per Feed call)
  limits.aged_sweep_interval = 1;    // sweep on every control-path tick
  QueryService service(&backend_, limits);
  const int session = service.OpenSession("alice").value();
  const int sub = service.Submit(session, PingQuery(&interner_)).value();
  ASSERT_TRUE(FeedPing(1, 2, 1, service).ok());
  ASSERT_TRUE(service.Detach(session, sub).ok());
  // Drain the queued match: the subscription is now drained-but-never-
  // collected, exactly what the aged sweep exists for.
  std::vector<CompleteMatch> drained;
  service.queue(session, sub)->Drain(&drained);
  ASSERT_EQ(drained.size(), 1u);

  // Age the subscription on the control path; under the threshold it
  // must survive every sweep (each Feed ticks one epoch + one sweep).
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(FeedPing(1, 2, 2 + i, service).ok());
    EXPECT_TRUE(service.state(session, sub).ok()) << "swept at age " << i;
  }
  // The fifth tick crosses detached_reclaim_age: reclaimed, id gone, the
  // session itself stays open and serves on.
  ASSERT_TRUE(FeedPing(1, 2, 10, service).ok());
  EXPECT_FALSE(service.state(session, sub).ok());
  const ServiceStatsSnapshot snap = service.Snapshot();
  EXPECT_EQ(snap.reclaimed, 1u);
  EXPECT_EQ(snap.reclaimed_aged, 1u);
  ASSERT_EQ(snap.sessions.size(), 1u);
  EXPECT_TRUE(snap.sessions[0].open);
  // Counter surfaces in the STATS rendering.
  EXPECT_NE(snap.ToString().find("reclaimed_aged=1"), std::string::npos);
}

TEST_F(QueryServiceTest, AgedSweepSparesUndrainedQueues) {
  ServiceLimits limits;
  limits.detached_reclaim_age = 2;
  limits.aged_sweep_interval = 1;
  QueryService service(&backend_, limits);
  const int session = service.OpenSession("alice").value();
  const int sub = service.Submit(session, PingQuery(&interner_)).value();
  ASSERT_TRUE(FeedPing(1, 2, 1, service).ok());  // queues one match
  ASSERT_TRUE(service.Detach(session, sub).ok());

  // Far past the age threshold — but the queue still holds a result a
  // slow consumer may come back for: age alone never discards matches.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(FeedPing(1, 2, 2 + i, service).ok());
  }
  EXPECT_TRUE(service.state(session, sub).ok());
  EXPECT_EQ(service.Snapshot().reclaimed_aged, 0u);

  // Draining it makes the next tick reclaim.
  std::vector<CompleteMatch> drained;
  service.queue(session, sub)->Drain(&drained);
  ASSERT_TRUE(FeedPing(1, 2, 20, service).ok());
  EXPECT_FALSE(service.state(session, sub).ok());
  EXPECT_EQ(service.Snapshot().reclaimed_aged, 1u);
}

TEST_F(QueryServiceTest, AgedSweepIsOffByDefaultAndDirectCallWorks) {
  QueryService service(&backend_);  // detached_reclaim_age = 0: no auto
  const int session = service.OpenSession("alice").value();
  const int sub = service.Submit(session, PingQuery(&interner_)).value();
  ASSERT_TRUE(service.Detach(session, sub).ok());
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(FeedPing(1, 2, 1 + i, service).ok());
  }
  EXPECT_TRUE(service.state(session, sub).ok());  // never auto-swept
  // Explicit call reclaims immediately (age 0 = everything eligible).
  EXPECT_EQ(service.ReclaimAged(), 1u);
  EXPECT_FALSE(service.state(session, sub).ok());
}

// --- ATTACH (recovered-session rebinding) ----------------------------------

TEST_F(QueryServiceTest, AttachSessionClaimsOnlyRecoveredSessions) {
  QueryService service(&backend_);
  const int session = service.OpenSession("alice").value();
  SubmitOptions tagged;
  tagged.tag = "live";
  ASSERT_TRUE(service.Submit(session, PingQuery(&interner_), tagged).ok());
  const int detached =
      service.Submit(session, PingQuery(&interner_)).value();
  ASSERT_TRUE(service.Detach(session, detached).ok());

  // A live session is bound to its creator: another tenant guessing the
  // name must not be able to adopt it (and close it on disconnect).
  auto hijack = service.AttachSession("alice");
  ASSERT_FALSE(hijack.ok());
  EXPECT_EQ(hijack.status().code(), StatusCode::kFailedPrecondition);

  // A recovery-restored session is unbound until exactly one attach
  // claims it.
  StreamWorksEngine engine2(&interner_);
  SingleEngineBackend backend2(&engine2);
  QueryService recovered(&backend2);
  ASSERT_TRUE(
      recovered.RestorePersistState(service.ExportPersistState()).ok());
  const AttachedSession attached =
      recovered.AttachSession("alice").value();
  ASSERT_EQ(attached.subscriptions.size(), 1u);  // detached one excluded
  EXPECT_EQ(attached.subscriptions[0].tag, "live");
  EXPECT_EQ(attached.subscriptions[0].state, SubscriptionState::kActive);
  // Second claim of the same name: refused, like any bound session.
  EXPECT_FALSE(recovered.AttachSession("alice").ok());

  EXPECT_FALSE(recovered.AttachSession("nobody").ok());
  ASSERT_TRUE(recovered.CloseSession(attached.session_id).ok());
  EXPECT_FALSE(recovered.AttachSession("alice").ok());  // closed: gone
}

TEST_F(InterpreterTest, AttachRebindsRecoveredSessionAndSubNames) {
  ASSERT_TRUE(interpreter_
                  .ExecuteScript(
                      "DEFINE ping\nnode a V\nnode b V\nedge a b ping\n"
                      "window 1000\nEND\nSESSION alice\n"
                      "SUBMIT alice live ping")
                  .ok());
  // The live session is bound to this interpreter; a second frontend
  // cannot ATTACH it out from under its owner...
  std::ostringstream out2;
  CommandInterpreter intruder(&service_, &interner_, &out2);
  EXPECT_FALSE(intruder.ExecuteLine("ATTACH alice").ok());

  // ...but after a recovery (fresh stack restored from the persist
  // image) the reconnecting tenant adopts it by name and addresses the
  // same subscription names.
  StreamWorksEngine engine2(&interner_);
  SingleEngineBackend backend2(&engine2);
  QueryService recovered(&backend2);
  ASSERT_TRUE(
      recovered.RestorePersistState(service_.ExportPersistState()).ok());
  std::ostringstream out3;
  CommandInterpreter reconnected(&recovered, &interner_, &out3);
  ASSERT_TRUE(reconnected.ExecuteLine("ATTACH alice").ok());
  EXPECT_NE(out3.str().find("OK attach alice id=0 subs=live:active"),
            std::string::npos);
  ASSERT_TRUE(reconnected.ExecuteLine("FEED 1 V 2 V ping 5").ok());
  ASSERT_TRUE(reconnected.ExecuteLine("POLL alice live").ok());
  EXPECT_NE(out3.str().find("POLLED alice.live n=1"), std::string::npos);

  EXPECT_FALSE(reconnected.ExecuteLine("ATTACH ghost").ok());
}

TEST_F(InterpreterTest, SnapshotVerbNeedsAHook) {
  const Status status = interpreter_.ExecuteLine("SNAPSHOT");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("no durability layer"),
            std::string::npos);

  interpreter_.set_snapshot_hook(
      []() -> StatusOr<std::string> { return std::string("wal_seq=7"); });
  ASSERT_TRUE(interpreter_.ExecuteLine("SNAPSHOT").ok());
  EXPECT_TRUE(OutputContains("OK snapshot wal_seq=7"));
}

}  // namespace
}  // namespace streamworks
