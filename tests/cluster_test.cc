// Tests for streamworks/cluster, the one sharded deployment: real worker
// daemons on real localhost TCP sockets, driven by a real
// DistributedBackend, asserted byte-identical (external-id match
// rendering) against a single StreamWorksEngine fed the same stream —
// across worker counts, tight windows, batched and edge-by-edge ingest,
// mid-stream registration and unregister — with the exchange counters
// balanced and every worker retaining only its owned edges. The crash
// tests stop a worker daemon without any graceful drain, restart a fresh
// one on the same frame log, and require the recovered cluster to deliver
// exactly the reference multiset: nothing lost, nothing repeated.

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "streamworks/cluster/coordinator.h"
#include "streamworks/cluster/worker.h"
#include "streamworks/common/interner.h"
#include "streamworks/common/str_util.h"
#include "streamworks/core/engine.h"
#include "streamworks/graph/query_graph.h"
#include "streamworks/graph/random_graphs.h"
#include "streamworks/net/socket.h"
#include "streamworks/obs/json_render.h"
#include "streamworks/obs/metric_registry.h"
#include "streamworks/obs/stage_trace.h"
#include "streamworks/stream/netflow_gen.h"
#include "streamworks/stream/news_gen.h"
#include "streamworks/stream/workload_queries.h"

#include "cluster_fixture.h"
#include "news_query.h"

namespace streamworks {
namespace {

namespace fs = std::filesystem;

/// Two-hop exploit chain — the worm motif the generator injects, and a
/// multi-edge pattern whose partial matches genuinely cross shards (the
/// chain's middle host rarely owns both edges).
QueryGraph BuildWormChain(Interner* interner) {
  QueryGraphBuilder b(interner);
  const auto a = b.AddVertex("Host");
  const auto h = b.AddVertex("Host");
  const auto x = b.AddVertex("Host");
  b.AddEdge(a, h, "exploit");
  b.AddEdge(h, x, "exploit");
  auto built = b.Build("worm_chain");
  EXPECT_TRUE(built.ok());
  return *built;
}

QueryGraph BuildProbe(Interner* interner) {
  QueryGraphBuilder b(interner);
  const auto s = b.AddVertex("Host");
  const auto t = b.AddVertex("Host");
  b.AddEdge(s, t, "synProbe");
  auto built = b.Build("probe");
  EXPECT_TRUE(built.ok());
  return *built;
}

/// A deterministic netflow stream with planted attacks: the generator
/// uses fixed seeds, so cluster and reference see identical bytes.
EdgeBatch TestStream(Interner* interner, int background) {
  NetflowGenerator::Options opt;
  opt.seed = 1234;
  opt.background_edges = background;
  NetflowGenerator gen(opt, interner);
  gen.InjectWorm(40, 2);
  gen.InjectWorm(background / 2, 2);
  return gen.Generate();
}

/// Reference run: one engine, same queries, same stream.
std::vector<std::string> SingleEngineReference(
    Interner* interner, const std::vector<std::pair<QueryGraph, Timestamp>>&
                            queries,
    const EdgeBatch& edges) {
  StreamWorksEngine engine(interner, EngineOptions{});
  MatchSink sink;
  for (const auto& [query, window] : queries) {
    auto id = engine.RegisterQuery(
        query, DecompositionStrategy::kLeftDeepEdgeOrder, window,
        sink.Callback());
    EXPECT_TRUE(id.ok());
  }
  for (const StreamEdge& edge : edges) {
    engine.ProcessEdge(edge).ok();  // rejects match cluster admission
  }
  return sink.Sorted();
}

/// Registers `queries[i]` on `backend` with `(*sinks)[i]` as its sink.
void RegisterAll(QueryBackend* backend, const std::vector<QueryGraph>& queries,
                 Timestamp window, std::vector<MatchSink>* sinks) {
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(backend
                    ->Register(queries[i],
                               DecompositionStrategy::kLeftDeepEdgeOrder,
                               window, (*sinks)[i].Callback())
                    .ok());
  }
}

/// Per-query reference: one engine runs every query over `edges`, and
/// result[i] holds query i's sorted matches.
std::vector<std::vector<std::string>> PerQueryReference(
    Interner* interner, const std::vector<QueryGraph>& queries,
    Timestamp window, const std::vector<StreamEdge>& edges) {
  StreamWorksEngine engine(interner, EngineOptions{});
  SingleEngineBackend backend(&engine);
  std::vector<MatchSink> sinks(queries.size());
  RegisterAll(&backend, queries, window, &sinks);
  for (const StreamEdge& edge : edges) engine.ProcessEdge(edge).ok();
  std::vector<std::vector<std::string>> out;
  for (const MatchSink& sink : sinks) out.push_back(sink.Sorted());
  return out;
}

TEST(ClusterTest, MatchesByteIdenticalToSingleEngine) {
  ClusterFixture cluster(2);
  ASSERT_TRUE(cluster.ok);
  MatchSink sink;
  const QueryGraph worm_chain = BuildWormChain(&cluster.interner);
  const QueryGraph probe = BuildProbe(&cluster.interner);
  auto id0 = cluster.backend->Register(
      worm_chain, DecompositionStrategy::kLeftDeepEdgeOrder, 50, sink.Callback());
  ASSERT_TRUE(id0.ok());
  EXPECT_EQ(*id0, 0);
  auto id1 = cluster.backend->Register(
      probe, DecompositionStrategy::kLeftDeepEdgeOrder, 100, sink.Callback());
  ASSERT_TRUE(id1.ok());
  EXPECT_EQ(*id1, 1);

  const EdgeBatch edges = TestStream(&cluster.interner, 400);
  ASSERT_TRUE(cluster.backend->FeedBatch(edges, nullptr).ok());
  cluster.backend->Flush();

  const std::vector<std::string> expected = SingleEngineReference(
      &cluster.interner, {{worm_chain, 50}, {probe, 100}}, edges);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(sink.Sorted(), expected);
  cluster.backend->Stop();
}

TEST(ClusterTest, ThreeWorkersAgreeWithSingleEngine) {
  ClusterFixture cluster(3);
  ASSERT_TRUE(cluster.ok);
  MatchSink sink;
  const QueryGraph worm_chain = BuildWormChain(&cluster.interner);
  ASSERT_TRUE(cluster.backend
                  ->Register(worm_chain, DecompositionStrategy::kLeftDeepEdgeOrder,
                             60, sink.Callback())
                  .ok());
  const EdgeBatch edges = TestStream(&cluster.interner, 300);
  ASSERT_TRUE(cluster.backend->FeedBatch(edges, nullptr).ok());
  cluster.backend->Flush();
  EXPECT_EQ(sink.Sorted(),
            SingleEngineReference(&cluster.interner, {{worm_chain, 60}}, edges));
  cluster.backend->Stop();
}

TEST(ClusterTest, MidStreamRegistrationBackfillsAcrossShards) {
  ClusterFixture cluster(2);
  ASSERT_TRUE(cluster.ok);
  MatchSink sink;
  const QueryGraph worm_chain = BuildWormChain(&cluster.interner);
  const EdgeBatch edges = TestStream(&cluster.interner, 200);
  const size_t half = edges.size() / 2;
  const EdgeBatch first(edges.begin(), edges.begin() + half);
  const EdgeBatch second(edges.begin() + half, edges.end());

  ASSERT_TRUE(cluster.backend->FeedBatch(first, nullptr).ok());
  // Register mid-stream: the distributed backfill seeds the new trees
  // from every shard's stored window before live flow resumes.
  ASSERT_TRUE(cluster.backend
                  ->Register(worm_chain, DecompositionStrategy::kLeftDeepEdgeOrder,
                             80, sink.Callback())
                  .ok());
  ASSERT_TRUE(cluster.backend->FeedBatch(second, nullptr).ok());
  cluster.backend->Flush();

  // Reference: one engine, same mid-stream registration point.
  StreamWorksEngine engine(&cluster.interner, EngineOptions{});
  MatchSink ref;
  for (const StreamEdge& e : first) engine.ProcessEdge(e).ok();
  ASSERT_TRUE(engine
                  .RegisterQuery(worm_chain,
                                 DecompositionStrategy::kLeftDeepEdgeOrder, 80,
                                 ref.Callback())
                  .ok());
  for (const StreamEdge& e : second) engine.ProcessEdge(e).ok();

  EXPECT_EQ(sink.Sorted(), ref.Sorted());
  EXPECT_FALSE(sink.Sorted().empty());
  cluster.backend->Stop();
}

// Random queries fed edge by edge at every worker count. The last query
// has 10 edges, past Match::kInlineCapacity: its matches keep their
// bindings in a heap block, and cross shards through ToWire/Localize.
TEST(ClusterTest, MatchesSingleEngineAcrossWorkerCounts) {
  for (const int num_workers : {1, 2, 3, 5}) {
    ClusterFixture cluster(num_workers);
    ASSERT_TRUE(cluster.ok);
    const auto edges = RandomStream(&cluster.interner, 2026, 20, 800);
    auto queries = RandomQueries(&cluster.interner, 88, 6);
    Rng rng(1);
    queries.push_back(
        GenerateRandomConnectedQuery(rng, 9, 10, 2, 3, &cluster.interner)
            .value());
    ASSERT_GT(queries.back().num_edges(), Match::kInlineCapacity);
    const Timestamp window = 18;
    const auto expected =
        PerQueryReference(&cluster.interner, queries, window, edges);
    ASSERT_FALSE(expected.back().empty());

    std::vector<MatchSink> actual(queries.size());
    RegisterAll(cluster.backend.get(), queries, window, &actual);
    for (const StreamEdge& e : edges) {
      ASSERT_TRUE(cluster.backend->Feed(e).ok());
    }
    cluster.backend->Flush();
    uint64_t expected_total = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(actual[i].Sorted(), expected[i])
          << "workers=" << num_workers << " query " << i;
      expected_total += expected[i].size();
    }
    // Each match counts once, on the worker that found it.
    uint64_t completions = 0;
    for (const ShardLoadSnapshot& load : cluster.backend->ShardLoads()) {
      completions += load.completions;
    }
    EXPECT_EQ(completions, expected_total) << "workers=" << num_workers;
    cluster.backend->Stop();
  }
}

// The default strategy plans news queries as article wedges. A wedge
// leaf's local search crosses shards (its article and hub endpoints live on
// different workers), so its expansions are forwarded, and the cluster
// must still deliver exactly one engine's matches.
TEST(ClusterTest, WedgePlansMatchSingleEngineOnNewsStream) {
  for (const int num_workers : {2, 3}) {
    ClusterFixture cluster(num_workers);
    ASSERT_TRUE(cluster.ok);
    NewsGenerator::Options opt;
    opt.seed = 7;
    opt.num_articles = 800;
    NewsGenerator gen(opt, &cluster.interner);
    gen.InjectEvent(40, "politics", 3);
    gen.InjectEvent(120, "politics", 4);
    const auto edges = gen.Generate();
    const std::vector<QueryGraph> queries = {
        BuildNewsEventQuery(&cluster.interner, "politics", 3),
        LocationFirstNewsQuery(&cluster.interner, "politics", 3)};
    const Timestamp window = 20;

    StreamWorksEngine engine(&cluster.interner, EngineOptions{});
    std::vector<MatchSink> expected(queries.size());
    std::vector<MatchSink> actual(queries.size());
    const DecompositionStrategy strategy =
        DecompositionStrategy::kSelectivityLeftDeep;
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(engine
                      .RegisterQuery(queries[i], strategy, window,
                                     expected[i].Callback())
                      .ok());
      ASSERT_TRUE(cluster.backend
                      ->Register(queries[i], strategy, window,
                                 actual[i].Callback())
                      .ok());
    }
    for (const StreamEdge& e : edges) {
      ASSERT_TRUE(engine.ProcessEdge(e).ok());
      ASSERT_TRUE(cluster.backend->Feed(e).ok());
    }
    cluster.backend->Flush();
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_GT(expected[i].size(), 0u) << queries[i].name();
      EXPECT_EQ(actual[i].Sorted(), expected[i].Sorted())
          << "workers=" << num_workers << " " << queries[i].name();
    }
    uint64_t forwarded = 0;
    for (const ShardLoadSnapshot& load : cluster.backend->ShardLoads()) {
      forwarded += load.matches_forwarded;
    }
    EXPECT_GT(forwarded, 0u) << "workers=" << num_workers;
    cluster.backend->Stop();
  }
}

// Tight window and batched ingest: watermark commits land right on expiry
// boundaries, and partial matches must die identically on every worker.
TEST(ClusterTest, MatchesSingleEngineOnBatchedIngestWithTightWindow) {
  ClusterFixture cluster(4);
  ASSERT_TRUE(cluster.ok);
  const auto edges = RandomStream(&cluster.interner, 97, 14, 1200);
  const auto queries = RandomQueries(&cluster.interner, 5, 4);
  const Timestamp window = 4;
  const auto expected =
      PerQueryReference(&cluster.interner, queries, window, edges);

  std::vector<MatchSink> actual(queries.size());
  RegisterAll(cluster.backend.get(), queries, window, &actual);
  for (size_t begin = 0; begin < edges.size(); begin += 97) {
    const size_t end = std::min(edges.size(), begin + 97);
    const EdgeBatch batch(edges.begin() + begin, edges.begin() + end);
    ASSERT_TRUE(cluster.backend->FeedBatch(batch, nullptr).ok());
  }
  cluster.backend->Flush();
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(actual[i].Sorted(), expected[i]) << "query " << i;
  }

  // Commit-driven expiry must actually run: with a 4-tick window over a
  // 120-tick stream, every worker retains a small recent suffix.
  const auto loads = cluster.backend->ShardLoads();
  ASSERT_EQ(loads.size(), 4u);
  for (const ShardLoadSnapshot& load : loads) {
    EXPECT_GT(load.evicted_edges, 0u) << "worker " << load.shard;
    EXPECT_LT(load.retained_edges, edges.size() / 2) << "worker " << load.shard;
  }
  cluster.backend->Stop();
}

TEST(ClusterTest, ExchangeForwardsAcrossShardsAndCountersBalance) {
  ClusterFixture cluster(3);
  ASSERT_TRUE(cluster.ok);
  const auto edges = RandomStream(&cluster.interner, 11, 16, 600);
  for (const QueryGraph& q : RandomQueries(&cluster.interner, 42, 3)) {
    ASSERT_TRUE(cluster.backend
                    ->Register(q, DecompositionStrategy::kLeftDeepEdgeOrder,
                               20, nullptr)
                    .ok());
  }
  for (const StreamEdge& e : edges) {
    ASSERT_TRUE(cluster.backend->Feed(e).ok());
  }
  cluster.backend->Flush();

  uint64_t sent = 0, received = 0;
  for (const ShardLoadSnapshot& load : cluster.backend->ShardLoads()) {
    sent += load.matches_forwarded;
    received += load.matches_received;
  }
  // Multi-edge queries on a 16-vertex graph over 3 workers: cross-shard
  // work is unavoidable, and after Flush nothing is in flight.
  EXPECT_GT(sent, 0u);
  EXPECT_EQ(sent, received);
  cluster.backend->Stop();
}

// Each worker retains only the edges incident to the vertices it owns:
// strictly fewer than the one engine that holds the whole window.
TEST(ClusterTest, WorkersRetainFewerEdgesThanOneEngine) {
  ClusterFixture cluster(4);
  ASSERT_TRUE(cluster.ok);
  const auto edges = RandomStream(&cluster.interner, 7, 64, 4000);
  const auto queries = RandomQueries(&cluster.interner, 3, 2);
  const Timestamp window = 30;

  StreamWorksEngine engine(&cluster.interner, EngineOptions{});
  SingleEngineBackend reference(&engine);
  std::vector<MatchSink> expected(queries.size());
  std::vector<MatchSink> actual(queries.size());
  RegisterAll(&reference, queries, window, &expected);
  RegisterAll(cluster.backend.get(), queries, window, &actual);
  for (const StreamEdge& e : edges) {
    engine.ProcessEdge(e).ok();
    ASSERT_TRUE(cluster.backend->Feed(e).ok());
  }
  cluster.backend->Flush();
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(actual[i].Sorted(), expected[i].Sorted()) << "query " << i;
  }

  const uint64_t whole_window = engine.graph().num_stored_edges();
  const auto loads = cluster.backend->ShardLoads();
  ASSERT_EQ(loads.size(), 4u);
  uint64_t total = 0;
  for (const ShardLoadSnapshot& load : loads) {
    EXPECT_LT(load.retained_edges, whole_window) << "worker " << load.shard;
    total += load.retained_edges;
  }
  // Each edge lives on at most two workers (its endpoint owners), and at
  // least one, so the cluster-wide total is bounded by the window on both
  // sides.
  EXPECT_GE(total, whole_window);
  EXPECT_LE(total, 2 * whole_window);
  cluster.backend->Stop();
}

// Admission rejects each invalid edge once, before any worker sees a
// copy: the count a single engine reports.
TEST(ClusterTest, InvalidEdgesRejectedOnceAtAdmission) {
  ClusterFixture cluster(3);
  ASSERT_TRUE(cluster.ok);
  Interner& interner = cluster.interner;
  MatchSink sink;
  QueryGraphBuilder builder(&interner);
  const auto v0 = builder.AddVertex("V");
  const auto v1 = builder.AddVertex("V");
  builder.AddEdge(v0, v1, "x");
  ASSERT_TRUE(cluster.backend
                  ->Register(builder.Build().value(),
                             DecompositionStrategy::kLeftDeepEdgeOrder, 100,
                             sink.Callback())
                  .ok());
  const auto edge = [&](uint64_t src, uint64_t dst, Timestamp ts,
                        std::string_view src_label) {
    return StreamEdge{src, dst, interner.Intern(src_label),
                      interner.Intern("V"), interner.Intern("x"), ts};
  };
  ASSERT_TRUE(cluster.backend->Feed(edge(1, 2, 10, "V")).ok());
  ASSERT_TRUE(cluster.backend->Feed(edge(1, 2, 5, "V")).ok());   // stale ts
  ASSERT_TRUE(cluster.backend->Feed(edge(1, 3, 11, "W")).ok());  // src clash
  cluster.backend->Flush();
  EXPECT_EQ(cluster.backend->rejected_edges(), 2u);
  EXPECT_EQ(sink.size(), 1u);
  cluster.backend->Stop();
}

// A short-window query, then two long-window queries registered
// mid-stream, fed edge by edge. Control calls commit every pending epoch
// first, so a registration backfills from, and Info and ShardLoads
// report, the window one engine holds.
TEST(ClusterTest, ControlCallsSeeOneEnginesWindowMidStream) {
  ClusterFixture cluster(2);
  ASSERT_TRUE(cluster.ok);
  RandomStreamOptions opt;
  opt.seed = 7;
  opt.num_edges = 3000;
  const auto edges = GenerateUniformStream(opt, &cluster.interner);
  Rng rng(7);
  std::vector<QueryGraph> queries;
  for (int i = 0; i < 3; ++i) {
    queries.push_back(GenerateRandomConnectedQuery(rng, 3, 2,
                                                   opt.num_vertex_labels,
                                                   opt.num_edge_labels,
                                                   &cluster.interner)
                          .value());
  }
  const Timestamp windows[] = {5, 200, 200};
  const size_t register_before[] = {0, edges.size() / 2,
                                    3 * edges.size() / 4};

  StreamWorksEngine engine(&cluster.interner, EngineOptions{});
  MatchSink expected[3];
  MatchSink actual[3];
  for (size_t e = 0, q = 0; e < edges.size(); ++e) {
    if (e == register_before[1]) {
      const auto info = cluster.backend->Info(0);
      ASSERT_TRUE(info.ok());
      EXPECT_EQ(info->live_partial_matches,
                engine.query_info(0).live_partial_matches);
      // Each edge is retained by one or both of its endpoint owners.
      const uint64_t window = engine.graph().num_stored_edges();
      uint64_t total = 0;
      for (const ShardLoadSnapshot& load : cluster.backend->ShardLoads()) {
        EXPECT_LE(load.retained_edges, window) << "shard " << load.shard;
        total += load.retained_edges;
      }
      EXPECT_GE(total, window);
      EXPECT_LE(total, 2 * window);
    }
    for (; q < queries.size() && register_before[q] == e; ++q) {
      ASSERT_TRUE(engine
                      .RegisterQuery(queries[q],
                                     DecompositionStrategy::kLeftDeepEdgeOrder,
                                     windows[q], expected[q].Callback())
                      .ok());
      ASSERT_TRUE(cluster.backend
                      ->Register(queries[q],
                                 DecompositionStrategy::kLeftDeepEdgeOrder,
                                 windows[q], actual[q].Callback())
                      .ok());
    }
    ASSERT_TRUE(engine.ProcessEdge(edges[e]).ok());
    ASSERT_TRUE(cluster.backend->Feed(edges[e]).ok());
  }
  cluster.backend->Flush();
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_FALSE(expected[q].Sorted().empty()) << "query " << q;
    EXPECT_EQ(actual[q].Sorted(), expected[q].Sorted()) << "query " << q;
  }
  cluster.backend->Stop();
}

TEST(ClusterTest, InfoAggregatesAcrossWorkers) {
  ClusterFixture cluster(2);
  ASSERT_TRUE(cluster.ok);
  MatchSink sink;
  const QueryGraph probe = BuildProbe(&cluster.interner);
  auto id = cluster.backend->Register(
      probe, DecompositionStrategy::kLeftDeepEdgeOrder, 100, sink.Callback());
  ASSERT_TRUE(id.ok());
  const EdgeBatch edges = TestStream(&cluster.interner, 200);
  ASSERT_TRUE(cluster.backend->FeedBatch(edges, nullptr).ok());
  cluster.backend->Flush();

  auto info = cluster.backend->Info(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->name, "probe");
  EXPECT_EQ(info->window, 100);
  EXPECT_EQ(info->completions, sink.size());
  EXPECT_FALSE(info->nodes.empty());

  const auto loads = cluster.backend->ShardLoads();
  ASSERT_EQ(loads.size(), 2u);
  uint64_t processed = 0;
  for (const auto& load : loads) {
    EXPECT_EQ(load.sharding, "distributed");
    processed += load.edges_processed;
  }
  // Every admitted edge lands on one or two owner shards.
  EXPECT_GE(processed, edges.size() - cluster.backend->rejected_edges());
  cluster.backend->Stop();
}

// Each worker delivers the completions it finds, through the coordinator:
// on three workers every one of them reports some, and together they
// count each delivery once.
TEST(ClusterTest, EachWorkerDeliversTheCompletionsItFinds) {
  ClusterFixture cluster(3);
  ASSERT_TRUE(cluster.ok);
  MatchSink sink;
  auto id = cluster.backend->Register(
      BuildProbe(&cluster.interner), DecompositionStrategy::kLeftDeepEdgeOrder,
      100, sink.Callback());
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(cluster.backend
                  ->FeedBatch(TestStream(&cluster.interner, 200), nullptr)
                  .ok());
  cluster.backend->Flush();

  auto info = cluster.backend->Info(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->completions, sink.size());
  const auto loads = cluster.backend->ShardLoads();
  ASSERT_EQ(loads.size(), 3u);
  uint64_t completions = 0;
  for (const ShardLoadSnapshot& load : loads) {
    EXPECT_GT(load.completions, 0u) << "worker " << load.shard;
    completions += load.completions;
  }
  EXPECT_EQ(completions, sink.size());
  cluster.backend->Stop();
}

/// Value of one exposition line, e.g. `name{labels} 42`.
uint64_t SeriesValue(const std::string& text, const std::string& series) {
  const std::string needle = series + " ";
  const size_t pos = text.find(needle);
  EXPECT_NE(pos, std::string::npos) << series << " missing in:\n" << text;
  if (pos == std::string::npos) return 0;
  return std::stoull(text.substr(pos + needle.size()));
}

TEST(ClusterTest, FederatedMetricsMatchWorkerLocalScrapes) {
  ClusterFixture cluster(2);
  ASSERT_TRUE(cluster.ok);
  MatchSink sink;
  const QueryGraph worm_chain = BuildWormChain(&cluster.interner);
  ASSERT_TRUE(cluster.backend
                  ->Register(worm_chain, DecompositionStrategy::kLeftDeepEdgeOrder,
                             60, sink.Callback())
                  .ok());
  const EdgeBatch edges = TestStream(&cluster.interner, 300);
  ASSERT_TRUE(cluster.backend->FeedBatch(edges, nullptr).ok());
  cluster.backend->Flush();

  // The coordinator scrape must answer exactly the sum of the workers'
  // own registries — federation adds no edges and loses none.
  const std::string series = "streamworks_edges_fed_total{role=\"worker\"}";
  const uint64_t federated =
      SeriesValue(cluster.registry.RenderPrometheus(), series);
  uint64_t local_sum = 0;
  for (auto& w : cluster.workers) {
    local_sum += SeriesValue(w->registry()->RenderPrometheus(), series);
  }
  EXPECT_EQ(federated, local_sum);
  // Every admitted edge is applied by at least its owner shard.
  EXPECT_GE(federated, edges.size() - cluster.backend->rejected_edges());

  // The coordinator contributes its own families alongside the workers'.
  const std::string merged = cluster.registry.RenderPrometheus();
  EXPECT_NE(merged.find("streamworks_epochs_total "), std::string::npos);
  EXPECT_NE(merged.find("streamworks_epoch_phase_us_bucket{phase=\"barrier\""),
            std::string::npos);

  cluster.backend->Stop();
}

TEST(ClusterTest, EpochTimelineAndHealthTrackTheCluster) {
  ClusterFixture cluster(2);
  ASSERT_TRUE(cluster.ok);
  MatchSink sink;
  const QueryGraph probe = BuildProbe(&cluster.interner);
  ASSERT_TRUE(cluster.backend
                  ->Register(probe, DecompositionStrategy::kLeftDeepEdgeOrder,
                             100, sink.Callback())
                  .ok());
  const EdgeBatch edges = TestStream(&cluster.interner, 300);
  ASSERT_TRUE(cluster.backend->FeedBatch(edges, nullptr).ok());
  cluster.backend->Flush();

  // Epoch timeline: every fed edge shows up in exactly one traced epoch
  // (admission rejects happen inside the epoch, after the take), and
  // phase durations are populated.
  ASSERT_GT(cluster.backend->epochs_completed(), 0u);
  const std::vector<EpochTraceEntry> epochs = cluster.backend->EpochTrace();
  ASSERT_FALSE(epochs.empty());
  uint64_t traced_edges = 0;
  for (const EpochTraceEntry& e : epochs) {
    EXPECT_GT(e.epoch, 0u);
    EXPECT_GT(e.edges, 0u);
    EXPECT_GT(e.total_us, 0u);
    EXPECT_GE(e.total_us, e.apply_us);
    traced_edges += e.edges;
  }
  EXPECT_EQ(traced_edges, edges.size());
  const std::string epochs_json = RenderEpochsJson(
      epochs, cluster.backend->epochs_completed(), PipelineMetrics::NowMicros());
  EXPECT_NE(epochs_json.find("\"barrier_us\""), std::string::npos);

  // Healthy cluster: both workers connected with fresh reports.
  ClusterObsSnapshot healthy = cluster.backend->ObsSnapshot(/*refresh=*/true);
  EXPECT_TRUE(healthy.healthy);
  ASSERT_EQ(healthy.workers.size(), 2u);
  for (const WorkerObsSnapshot& w : healthy.workers) {
    EXPECT_TRUE(w.connected);
    EXPECT_TRUE(w.has_report);
    EXPECT_GT(w.wal_seq, 0u);
  }
  EXPECT_NE(RenderClusterJson(healthy).find("\"wal_seq\""), std::string::npos);
  EXPECT_NE(RenderClusterHealthJson(healthy).find("\"ok\""), std::string::npos);

  // Kill one worker: the next refreshing scrape discovers the dead link
  // (the pull fails fast) and degrades without waiting out staleness.
  cluster.workers[0]->Kill();
  ClusterObsSnapshot degraded = cluster.backend->ObsSnapshot(/*refresh=*/true);
  EXPECT_FALSE(degraded.healthy);
  EXPECT_FALSE(degraded.workers[0].connected);
  EXPECT_TRUE(degraded.workers[1].connected);
  EXPECT_NE(RenderClusterHealthJson(degraded).find("\"degraded\""),
            std::string::npos);
  cluster.backend->Stop();
}

// A relaying epoch is a chain of request/ack exchanges in which a worker
// answers with several small frames in a row (Exchange items, then the
// BarrierAck). If either end of a control link left Nagle on, the last
// frame of each reply would wait out the peer's delayed ACK, at least
// 40 ms on Linux. The median epoch must stay well under that.
TEST(ClusterTest, RelayingEpochsDoNotWaitOnDelayedAcks) {
  ClusterFixture cluster(2);
  ASSERT_TRUE(cluster.ok);
  MatchSink sink;
  ASSERT_TRUE(cluster.backend
                  ->Register(BuildWormChain(&cluster.interner),
                             DecompositionStrategy::kLeftDeepEdgeOrder, 50,
                             sink.Callback())
                  .ok());
  ASSERT_TRUE(cluster.backend
                  ->Register(BuildProbe(&cluster.interner),
                             DecompositionStrategy::kLeftDeepEdgeOrder, 100,
                             sink.Callback())
                  .ok());
  ASSERT_TRUE(cluster.backend
                  ->FeedBatch(TestStream(&cluster.interner, 400), nullptr)
                  .ok());
  cluster.backend->Flush();

  const std::vector<EpochTraceEntry> epochs = cluster.backend->EpochTrace();
  ASSERT_FALSE(epochs.empty());
  uint64_t relayed_items = 0;
  std::vector<uint64_t> total_us;
  for (const EpochTraceEntry& e : epochs) {
    relayed_items += e.relayed_items;
    total_us.push_back(e.total_us);
  }
  // The stream must exercise the multi-frame replies, not just acks.
  EXPECT_GT(relayed_items, 0u);
  std::sort(total_us.begin(), total_us.end());
  EXPECT_LT(total_us[total_us.size() / 2], 20000u)
      << "median epoch of " << epochs.size() << " waited on a delayed ACK";
  cluster.backend->Stop();
}

TEST(ClusterTest, UnregisterStopsDeliveriesAndFreesNothingElse) {
  ClusterFixture cluster(2);
  ASSERT_TRUE(cluster.ok);
  MatchSink keep_sink;
  MatchSink drop_sink;
  const QueryGraph probe = BuildProbe(&cluster.interner);
  const QueryGraph worm_chain = BuildWormChain(&cluster.interner);
  auto keep = cluster.backend->Register(
      probe, DecompositionStrategy::kLeftDeepEdgeOrder, 100,
      keep_sink.Callback());
  auto drop = cluster.backend->Register(
      worm_chain, DecompositionStrategy::kLeftDeepEdgeOrder, 100,
      drop_sink.Callback());
  ASSERT_TRUE(keep.ok());
  ASSERT_TRUE(drop.ok());

  const EdgeBatch edges = TestStream(&cluster.interner, 200);
  const size_t half = edges.size() / 2;
  ASSERT_TRUE(cluster.backend
                  ->FeedBatch(EdgeBatch(edges.begin(), edges.begin() + half),
                              nullptr)
                  .ok());
  ASSERT_TRUE(cluster.backend->Unregister(*drop).ok());
  const size_t dropped_at = drop_sink.size();
  ASSERT_TRUE(cluster.backend
                  ->FeedBatch(EdgeBatch(edges.begin() + half, edges.end()),
                              nullptr)
                  .ok());
  cluster.backend->Flush();
  EXPECT_EQ(drop_sink.size(), dropped_at) << "delivery after Unregister";
  EXPECT_GT(keep_sink.size(), 0u);
  EXPECT_FALSE(cluster.backend->Unregister(*drop).ok()) << "double unregister";
  EXPECT_FALSE(cluster.backend->Info(*drop).ok());
  const auto info = cluster.backend->Info(*keep);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->completions, keep_sink.size());
  cluster.backend->Stop();
}

TEST(ClusterTest, RegistrationValidationFailsCleanly) {
  ClusterFixture cluster(2);
  ASSERT_TRUE(cluster.ok);
  MatchSink sink;
  const QueryGraph probe = BuildProbe(&cluster.interner);
  // Non-positive window: every worker refuses identically, no id burned.
  EXPECT_FALSE(cluster.backend
                   ->Register(probe, DecompositionStrategy::kLeftDeepEdgeOrder,
                              0, sink.Callback())
                   .ok());
  auto id = cluster.backend->Register(
      probe, DecompositionStrategy::kLeftDeepEdgeOrder, 100, sink.Callback());
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 0) << "failed registration must not consume an id";
  cluster.backend->Stop();
}

// A string the control wire cannot carry (its length prefix is a u16)
// must be refused before the coordinator retains a frame holding it: a
// retained frame is resent after every reconnect, so one bad frame would
// break the link for good.
TEST(ClusterTest, RegisterRefusesANameTheWireCannotCarry) {
  ClusterFixture cluster(2);
  ASSERT_TRUE(cluster.ok);
  MatchSink sink;
  QueryGraphBuilder b(&cluster.interner);
  const auto s = b.AddVertex("Host");
  const auto t = b.AddVertex("Host");
  b.AddEdge(s, t, "synProbe");
  auto long_name = b.Build(std::string(70000, 'q'));
  ASSERT_TRUE(long_name.ok());
  const auto refused = cluster.backend->Register(
      *long_name, DecompositionStrategy::kLeftDeepEdgeOrder, 100,
      sink.Callback());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);

  const QueryGraph probe = BuildProbe(&cluster.interner);
  auto id = cluster.backend->Register(
      probe, DecompositionStrategy::kLeftDeepEdgeOrder, 100, sink.Callback());
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(*id, 0) << "a refused registration must not consume an id";
  const EdgeBatch edges = TestStream(&cluster.interner, 200);
  ASSERT_TRUE(cluster.backend->FeedBatch(edges, nullptr).ok());
  cluster.backend->Flush();
  const std::vector<std::string> expected =
      SingleEngineReference(&cluster.interner, {{probe, 100}}, edges);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(sink.Sorted(), expected);
  cluster.backend->Stop();
}

TEST(ClusterTest, FeedRefusesALabelTheWireCannotCarry) {
  ClusterFixture cluster(2);
  ASSERT_TRUE(cluster.ok);
  MatchSink sink;
  const QueryGraph probe = BuildProbe(&cluster.interner);
  ASSERT_TRUE(cluster.backend
                  ->Register(probe, DecompositionStrategy::kLeftDeepEdgeOrder,
                             100, sink.Callback())
                  .ok());
  StreamEdge bad;
  bad.src = 1'000'000;
  bad.dst = 1'000'001;
  bad.src_label = cluster.interner.Intern(std::string(70000, 'L'));
  bad.dst_label = cluster.interner.Intern("Host");
  bad.edge_label = cluster.interner.Intern("synProbe");
  bad.ts = 1;
  // Refused before anything is enqueued: the batch as a whole, and the
  // single edge.
  const EdgeBatch bad_batch = {bad};
  ASSERT_EQ(cluster.backend->FeedBatch(bad_batch, nullptr).code(),
            StatusCode::kInvalidArgument);
  ASSERT_EQ(cluster.backend->Feed(bad).code(), StatusCode::kInvalidArgument);

  const EdgeBatch edges = TestStream(&cluster.interner, 200);
  ASSERT_TRUE(cluster.backend->FeedBatch(edges, nullptr).ok());
  cluster.backend->Flush();
  const std::vector<std::string> expected =
      SingleEngineReference(&cluster.interner, {{probe, 100}}, edges);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(sink.Sorted(), expected);
  cluster.backend->Stop();
}

TEST(ClusterTest, FreshCoordinatorRefusesWorkersWithPriorState) {
  const std::string root =
      (fs::temp_directory_path() / "sw_cluster_refuse_test").string();
  fs::remove_all(root);
  {
    ClusterFixture cluster(2, root);
  ASSERT_TRUE(cluster.ok);
    MatchSink sink;
    const QueryGraph probe = BuildProbe(&cluster.interner);
    ASSERT_TRUE(cluster.backend
                    ->Register(probe,
                               DecompositionStrategy::kLeftDeepEdgeOrder, 100,
                               sink.Callback())
                    .ok());
    ASSERT_TRUE(
        cluster.backend->FeedBatch(TestStream(&cluster.interner, 100), nullptr)
            .ok());
    cluster.backend->Flush();
    cluster.backend->Stop();
  }
  // The daemons died with frame logs on disk. Restart them (same
  // topology); a *fresh* coordinator (cursors at zero) must refuse:
  // silently adopting a stateful worker would replay a window the new
  // coordinator never fed.
  WorkerHarness restarted0(root + "/worker0");
  WorkerHarness restarted1(root + "/worker1");
  ASSERT_TRUE(restarted0.Start().ok());
  ASSERT_TRUE(restarted1.Start().ok());
  Interner interner;
  DistributedBackendOptions options;
  options.workers = {"127.0.0.1:" + std::to_string(restarted0.port()),
                     "127.0.0.1:" + std::to_string(restarted1.port())};
  DistributedBackend fresh(options, &interner);
  const Status refused = fresh.Start();
  EXPECT_FALSE(refused.ok());
  EXPECT_NE(refused.ToString().find("previous cluster run"),
            std::string::npos);
  fs::remove_all(root);
}

TEST(ClusterTest, WorkerKillAndRestartContinuesExactlyOnce) {
  const std::string root =
      (fs::temp_directory_path() / "sw_cluster_restart_test").string();
  fs::remove_all(root);

  // Workers on *fixed* ports so the coordinator's reconnect finds the
  // restarted daemon at the address it already knows.
  auto start_worker = [&](int index, int port) {
    WorkerOptions options;
    options.port = port;
    options.data_dir = root + "/worker" + std::to_string(index);
    fs::create_directories(options.data_dir);
    options.poll_interval_ms = 20;
    auto daemon = std::make_unique<WorkerDaemon>(std::move(options));
    return daemon;
  };

  Interner interner;
  auto w0 = start_worker(0, 0);
  ASSERT_TRUE(w0->Start().ok());
  const int port0 = w0->port();
  auto w1 = start_worker(1, 0);
  ASSERT_TRUE(w1->Start().ok());
  const int port1 = w1->port();
  std::atomic<bool> stop0{false};
  std::atomic<bool> stop1{false};
  std::thread t0([&] { w0->Serve(stop0); });
  std::thread t1([&] { w1->Serve(stop1); });

  DistributedBackendOptions options;
  options.workers = {"127.0.0.1:" + std::to_string(port0),
                     "127.0.0.1:" + std::to_string(port1)};
  options.epoch_edges = 64;
  options.reconnect_deadline_ms = 15000;
  DistributedBackend backend(options, &interner);
  ASSERT_TRUE(backend.Start().ok());

  MatchSink sink;
  const QueryGraph worm_chain = BuildWormChain(&interner);
  const QueryGraph probe = BuildProbe(&interner);
  ASSERT_TRUE(backend
                  .Register(worm_chain, DecompositionStrategy::kLeftDeepEdgeOrder,
                            50, sink.Callback())
                  .ok());
  ASSERT_TRUE(backend
                  .Register(probe, DecompositionStrategy::kLeftDeepEdgeOrder,
                            100, sink.Callback())
                  .ok());

  const EdgeBatch edges = TestStream(&interner, 400);
  const size_t half = edges.size() / 2;
  ASSERT_TRUE(
      backend.FeedBatch(EdgeBatch(edges.begin(), edges.begin() + half), nullptr)
          .ok());
  backend.Flush();

  // Kill worker 0 abruptly and restart it on the same port + frame log.
  // The daemon thread performs no drain or goodbye; the restarted daemon
  // replays the log when the coordinator's recovery Hello arrives.
  stop0.store(true);
  t0.join();
  // Its one output stream mixed both kinds of item, so the replay below
  // skips a prefix of relayed work and completions alike.
  EXPECT_GT(w0->counters().exchange_items_sent, 0u);
  EXPECT_GT(w0->counters().completions_sent, 0u);
  w0.reset();  // releases the frame-log flock and the listen socket
  w0 = start_worker(0, port0);
  ASSERT_TRUE(w0->Start().ok());
  stop0.store(false);
  std::thread t0b([&] { w0->Serve(stop0); });

  ASSERT_TRUE(
      backend.FeedBatch(EdgeBatch(edges.begin() + half, edges.end()), nullptr)
          .ok());
  backend.Flush();
  EXPECT_GT(w0->counters().replayed_frames, 0u)
      << "restart must have replayed the frame log";

  const std::vector<std::string> expected = SingleEngineReference(
      &interner, {{worm_chain, 50}, {probe, 100}}, edges);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(sink.Sorted(), expected)
      << "crash + recovery must deliver exactly the reference multiset";

  backend.Stop();
  stop0.store(true);
  stop1.store(true);
  t0b.join();
  t1.join();
  fs::remove_all(root);
}

void ExpectSameInfo(const QueryRuntimeInfo& actual,
                    const QueryRuntimeInfo& expected) {
  EXPECT_EQ(actual.query_id, expected.query_id);
  EXPECT_EQ(actual.name, expected.name);
  EXPECT_EQ(actual.window, expected.window);
  EXPECT_EQ(actual.completions, expected.completions);
  EXPECT_EQ(actual.live_partial_matches, expected.live_partial_matches);
  EXPECT_EQ(actual.peak_partial_matches, expected.peak_partial_matches);
  ASSERT_EQ(actual.nodes.size(), expected.nodes.size());
  for (size_t n = 0; n < actual.nodes.size(); ++n) {
    const SjNodeRuntime& a = actual.nodes[n];
    const SjNodeRuntime& e = expected.nodes[n];
    EXPECT_EQ(a.node, e.node);
    EXPECT_EQ(a.is_leaf, e.is_leaf);
    EXPECT_EQ(a.query_edges, e.query_edges);
    EXPECT_EQ(a.matches_inserted, e.matches_inserted) << "node " << n;
    EXPECT_EQ(a.probes, e.probes) << "node " << n;
    EXPECT_EQ(a.join_attempts, e.join_attempts) << "node " << n;
    EXPECT_EQ(a.joins_succeeded, e.joins_succeeded) << "node " << n;
    EXPECT_EQ(a.live_partial_matches, e.live_partial_matches) << "node " << n;
  }
}

// Info is a control call like Register and Unregister: after a worker
// restart it reconnects (replay + resend) instead of failing on the dead
// link, and reports what it reported before the kill. The fail-fast
// ShardLoads then sees the worker again.
TEST(ClusterTest, InfoReconnectsARestartedWorker) {
  const std::string root =
      (fs::temp_directory_path() / "sw_cluster_info_restart_test").string();
  fs::remove_all(root);
  {
    ClusterFixture cluster(2, root);
    ASSERT_TRUE(cluster.ok);
    MatchSink sink;
    auto id = cluster.backend->Register(
        BuildWormChain(&cluster.interner),
        DecompositionStrategy::kLeftDeepEdgeOrder, 50, sink.Callback());
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(cluster.backend
                    ->FeedBatch(TestStream(&cluster.interner, 400), nullptr)
                    .ok());
    cluster.backend->Flush();
    auto before = cluster.backend->Info(*id);
    ASSERT_TRUE(before.ok()) << before.status().ToString();
    EXPECT_GT(before->completions, 0u);

    // Kill worker 0 (no drain) and restart it on its port and frame log.
    const int port0 = cluster.workers[0]->port();
    cluster.workers[0].reset();
    cluster.workers[0] =
        std::make_unique<WorkerHarness>(root + "/worker0", port0);
    ASSERT_TRUE(cluster.workers[0]->Start().ok());

    auto after = cluster.backend->Info(*id);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    ExpectSameInfo(*after, *before);
    EXPECT_EQ(cluster.backend->ShardLoads().size(), 2u);
    cluster.backend->Stop();
  }
  fs::remove_all(root);
}

/// Returns once the worker on `port` has ended its previous session: its
/// accept loop takes this connection, and answers its Hello, only then.
void AwaitPreviousSessionEnd(int port, int num_shards, int shard_index) {
  Interner interner;
  auto link = PeerLink::ConnectTcpRetry("127.0.0.1", port, 5000);
  ASSERT_TRUE(link.ok()) << link.status().ToString();
  CtrlHello hello;
  hello.num_shards = num_shards;
  hello.shard_index = shard_index;
  ASSERT_TRUE(link->SendFrame(EncodeHelloFrame(hello)).ok());
  auto ack = link->ReadFrame(&interner, 5000);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->type, CtrlType::kHelloAck);
}

// A clean Stop closes every worker link between frames: the workers end
// their sessions without a "connection ended" line on stderr.
TEST(ClusterTest, CleanStopEndsWorkerSessionsSilently) {
  testing::internal::CaptureStderr();
  {
    ClusterFixture cluster(2);
    EXPECT_TRUE(cluster.ok);
    if (cluster.ok) {
      MatchSink sink;
      EXPECT_TRUE(cluster.backend
                      ->Register(BuildWormChain(&cluster.interner),
                                 DecompositionStrategy::kLeftDeepEdgeOrder,
                                 50, sink.Callback())
                      .ok());
      EXPECT_TRUE(cluster.backend->Feed(TestStream(&cluster.interner, 200)[0])
                      .ok());
      cluster.backend->Flush();
      cluster.backend->Stop();
      for (int i = 0; i < 2; ++i) {
        AwaitPreviousSessionEnd(cluster.workers[i]->port(), 2, i);
      }
    }
  }
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.find("connection ended"), std::string::npos) << err;
}

// A peer that closes the link inside a frame still gets its line.
TEST(ClusterTest, CloseInsideAFrameIsReported) {
  WorkerHarness worker("");
  ASSERT_TRUE(worker.Start().ok());
  testing::internal::CaptureStderr();
  {
    auto link = PeerLink::ConnectTcpRetry("127.0.0.1", worker.port(), 5000);
    EXPECT_TRUE(link.ok());
    CtrlHello hello;
    hello.num_shards = 1;
    hello.shard_index = 0;
    const std::string frame = EncodeHelloFrame(hello);
    if (link.ok()) {
      EXPECT_TRUE(
          link->SendFrame(std::string_view(frame).substr(0, frame.size() / 2))
              .ok());
    }
  }
  AwaitPreviousSessionEnd(worker.port(), 1, 0);
  worker.Kill();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("connection ended: unavailable: peer closed the link "
                     "inside a frame"),
            std::string::npos)
      << err;
}

// Builds that plan a query differently must not share a cluster, and the
// Hello's protocol version keeps them apart: a worker refuses a Hello of
// another version, says why in its HelloAck and ends the session; a
// coordinator's Start fails with the worker's reason.
TEST(ClusterTest, HelloOfAnotherProtocolVersionIsRefused) {
  WorkerHarness worker("");
  ASSERT_TRUE(worker.Start().ok());
  Interner interner;
  {
    auto link = PeerLink::ConnectTcpRetry("127.0.0.1", worker.port(), 5000);
    ASSERT_TRUE(link.ok()) << link.status().ToString();
    CtrlHello hello;
    hello.protocol = kCtrlProtocolVersion + 1;
    hello.num_shards = 1;
    hello.shard_index = 0;
    ASSERT_TRUE(link->SendFrame(EncodeHelloFrame(hello)).ok());
    auto ack = link->ReadFrame(&interner, 5000);
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    ASSERT_EQ(ack->type, CtrlType::kHelloAck);
    EXPECT_NE(ack->hello_ack.error.find(
                  StrCat("protocol mismatch: coordinator speaks ",
                         kCtrlProtocolVersion + 1, ", worker speaks ",
                         kCtrlProtocolVersion)),
              std::string::npos)
        << ack->hello_ack.error;
    EXPECT_FALSE(link->ReadFrame(&interner, 5000).ok());
  }
  // The refused Hello configured nothing: this build's coordinator joins.
  {
    DistributedBackendOptions options;
    options.workers = {StrCat("127.0.0.1:", worker.port())};
    DistributedBackend backend(options, &interner);
    EXPECT_TRUE(backend.Start().ok());
    backend.Stop();
  }

  // The coordinator's side, against a peer that answers the way a worker
  // of the next protocol version does.
  auto listener = ListenTcp("127.0.0.1", 0, /*backlog=*/1);
  ASSERT_TRUE(listener.ok());
  const int port = BoundTcpPort(listener->get()).value();
  std::thread next_version_worker([&] {
    // The listener is nonblocking: wait for the coordinator to connect.
    struct pollfd pfd {};
    pfd.fd = listener->get();
    pfd.events = POLLIN;
    if (::poll(&pfd, 1, 5000) != 1) return;
    auto link =
        PeerLink::Adopt(UniqueFd(::accept(listener->get(), nullptr, nullptr)),
                        /*duplex=*/false);
    if (!link.ok()) return;
    Interner worker_interner;
    auto hello = link->ReadFrame(&worker_interner, 5000);
    if (!hello.ok()) return;
    CtrlHelloAck refusal;
    refusal.error = StrCat("protocol mismatch: coordinator speaks ",
                           hello->hello.protocol, ", worker speaks ",
                           kCtrlProtocolVersion + 1);
    link->SendFrame(EncodeHelloAckFrame(refusal).value()).ok();
  });
  DistributedBackendOptions options;
  options.workers = {StrCat("127.0.0.1:", port)};
  options.ack_timeout_ms = 5000;
  DistributedBackend backend(options, &interner);
  const Status started = backend.Start();
  next_version_worker.join();
  EXPECT_EQ(started.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(started.message().find(
                StrCat("refused the Hello: protocol mismatch: coordinator "
                       "speaks ",
                       kCtrlProtocolVersion, ", worker speaks ",
                       kCtrlProtocolVersion + 1)),
            std::string::npos)
      << started.ToString();
}

// Completions only flow up. A worker refuses an Exchange frame that
// carries one, before it logs or applies any item of it: a logged one
// would fail every later replay.
TEST(ClusterTest, WorkerRefusesACompletionSentDown) {
  const std::string root =
      (fs::temp_directory_path() / "sw_cluster_complete_down_test").string();
  fs::remove_all(root);
  fs::create_directories(root);
  Interner interner;
  const auto handshake = [&](int port) {
    auto link = PeerLink::ConnectTcpRetry("127.0.0.1", port, 5000);
    EXPECT_TRUE(link.ok()) << link.status().ToString();
    CtrlHello hello;
    hello.num_shards = 1;
    hello.shard_index = 0;
    EXPECT_TRUE(link->SendFrame(EncodeHelloFrame(hello)).ok());
    auto ack = link->ReadFrame(&interner, 5000);
    EXPECT_TRUE(ack.ok()) << ack.status().ToString();
    EXPECT_EQ(ack->type, CtrlType::kHelloAck);
    EXPECT_EQ(ack->hello_ack.error, "");
    return std::make_pair(std::move(link).value(), ack->hello_ack);
  };
  testing::internal::CaptureStderr();
  {
    WorkerHarness worker(root);
    ASSERT_TRUE(worker.Start().ok());
    auto [link, ack] = handshake(worker.port());
    EXPECT_EQ(ack.applied_frames, 0u);
    // A good state frame, which the log keeps, then the bad one.
    ASSERT_TRUE(
        link.SendFrame(EncodeCommitFrame(CtrlCommit{.watermark = 5})).ok());
    CtrlExchangeItem completion;
    completion.dest = 0;
    completion.item.kind = ExchangeKind::kComplete;
    completion.item.query_id = 0;
    CtrlExchange exchange;
    exchange.items = {completion};
    ASSERT_TRUE(link.SendFrame(EncodeExchangeFrame(exchange,
                                                   InternerNames(interner))
                                   .value())
                    .ok());
    // The worker ends the session instead of answering.
    EXPECT_FALSE(link.ReadFrame(&interner, 5000).ok());
    worker.Kill();
    EXPECT_EQ(worker.counters().frames_applied, 1u);
  }
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("exchange frame carries a completion"),
            std::string::npos)
      << err;
  // A restart on the same log replays the one frame it holds.
  WorkerHarness restarted(root);
  ASSERT_TRUE(restarted.Start().ok());
  EXPECT_EQ(handshake(restarted.port()).second.applied_frames, 1u);
  restarted.Kill();
  EXPECT_TRUE(restarted.serve_status().ok())
      << restarted.serve_status().ToString();
  fs::remove_all(root);
}

// Start bounds its wait for each worker's HelloAck by
// connect_deadline_ms: an address whose listener never accepts (a wedged
// daemon, another service) fails Start fast, naming the worker.
TEST(ClusterTest, StartFailsFastOnAWorkerThatNeverAnswers) {
  auto listener = ListenTcp("127.0.0.1", 0, /*backlog=*/4);
  ASSERT_TRUE(listener.ok());
  const int port = BoundTcpPort(listener->get()).value();
  Interner interner;
  DistributedBackendOptions options;
  options.workers = {StrCat("127.0.0.1:", port)};
  options.connect_deadline_ms = 500;
  DistributedBackend backend(options, &interner);
  const auto begin = std::chrono::steady_clock::now();
  const Status started = backend.Start();
  const auto waited = std::chrono::steady_clock::now() - begin;
  EXPECT_FALSE(started.ok());
  EXPECT_LT(waited, std::chrono::seconds(5));
  EXPECT_NE(started.message().find(
                StrCat("worker 0 (127.0.0.1:", port,
                       ") did not answer the Hello within 500ms")),
            std::string::npos)
      << started.ToString();
}

TEST(ClusterTest, ParseHostPortAcceptsValidRejectsJunk) {
  auto ok = ParseHostPort("127.0.0.1:8080");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->first, "127.0.0.1");
  EXPECT_EQ(ok->second, 8080);
  EXPECT_FALSE(ParseHostPort("nohost").ok());
  EXPECT_FALSE(ParseHostPort(":90").ok());
  EXPECT_FALSE(ParseHostPort("h:").ok());
  EXPECT_FALSE(ParseHostPort("h:abc").ok());
  EXPECT_FALSE(ParseHostPort("h:70000").ok());
}

}  // namespace
}  // namespace streamworks
