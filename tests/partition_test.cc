// Tests for vertex-partitioned data-graph sharding: the ownership hash,
// GroupIngest's admission, global edge ids and routing to endpoint owners,
// and, on a cluster of worker threads, that the control calls made
// mid-stream (registration with backfill, Unregister, Info) leave every
// query with exactly one engine's matches. cluster_test checks the rest
// of the sharded protocol against a single engine.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "streamworks/common/interner.h"
#include "streamworks/common/random.h"
#include "streamworks/core/engine.h"
#include "streamworks/graph/dynamic_graph.h"
#include "streamworks/graph/partition.h"
#include "streamworks/graph/random_graphs.h"

#include "cluster_fixture.h"

namespace streamworks {
namespace {

TEST(PartitionerTest, HashModuloIsDeterministicInRangeAndSeedSensitive) {
  HashModuloPartitioner p;
  HashModuloPartitioner seeded(1234);
  std::map<int, int> load;
  bool any_seed_difference = false;
  for (uint64_t v = 0; v < 1000; ++v) {
    const int owner = p.OwnerShard(v, 7);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, 7);
    EXPECT_EQ(owner, p.OwnerShard(v, 7));  // deterministic
    any_seed_difference =
        any_seed_difference || owner != seeded.OwnerShard(v, 7);
    ++load[owner];
  }
  EXPECT_TRUE(any_seed_difference);
  // Mixed hash: every shard gets a non-trivial share of a dense id space.
  for (int s = 0; s < 7; ++s) {
    EXPECT_GT(load[s], 1000 / 7 / 2) << "shard " << s << " starved";
  }
}

// The cluster coordinator admits through GroupIngest: every edge is
// accepted or rejected exactly as DynamicGraph::AddEdge decides, under the
// same id, and every vertex ends with the same label; this includes
// AddEdge's rule that an edge rejected on its dst label has still
// recorded its src.
TEST(GroupIngestTest, AdmitsExactlyWhatOneGraphAdmits) {
  Interner interner;
  const LabelId a = interner.Intern("A");
  const LabelId b = interner.Intern("B");
  const LabelId x = interner.Intern("x");
  const auto edge = [&](uint64_t src, LabelId src_label, uint64_t dst,
                        LabelId dst_label, Timestamp ts) {
    return StreamEdge{src, dst, src_label, dst_label, x, ts};
  };
  std::vector<StreamEdge> stream = {
      edge(1, a, 2, a, 0),
      edge(3, b, 2, b, 1),   // dst clash, yet vertex 3 is recorded as B
      edge(3, a, 4, a, 2),   // src clash against that record
      edge(7, a, 8, a, 5),
      edge(5, a, 6, a, 4),   // time regression
      edge(5, a, 6, a, -1),  // negative time
  };
  // A random tail: each vertex mostly keeps one label, and a few edges
  // step back in time.
  Rng rng(31);
  Timestamp now = 5;
  const auto label = [&](uint64_t v) {
    return (v % 2 == 0) != rng.NextBool(0.1) ? a : b;
  };
  for (int i = 0; i < 2000; ++i) {
    const uint64_t src = rng.NextBounded(40);
    const uint64_t dst = rng.NextBounded(40);
    now += static_cast<Timestamp>(rng.NextBounded(2));
    const Timestamp ts =
        rng.NextBool(0.03) ? now - 1 - static_cast<Timestamp>(rng.NextBounded(3))
                           : now;
    stream.push_back(edge(src, label(src), dst, label(dst), ts));
  }

  HashModuloPartitioner partitioner;
  GroupIngest ingest(partitioner, 3);
  DynamicGraph graph(&interner);
  uint64_t rejected = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    const StreamEdge& e = stream[i];
    const auto added = graph.AddEdge(e);
    int copies = 0;
    int anchors = 0;
    EdgeId routed_id = kInvalidEdgeId;
    const bool admitted =
        ingest.Route(e, [&](int shard, EdgeId id, bool run_anchors) {
          EXPECT_EQ(shard, partitioner.OwnerShard(run_anchors ? e.src : e.dst,
                                                  3));
          ++copies;
          anchors += run_anchors ? 1 : 0;
          routed_id = id;
        });
    ASSERT_EQ(admitted, added.ok()) << "edge " << i;
    if (!admitted) {
      ++rejected;
      EXPECT_EQ(copies, 0) << "edge " << i;
      continue;
    }
    EXPECT_EQ(routed_id, added.value()) << "edge " << i;
    EXPECT_EQ(anchors, 1) << "edge " << i;
    EXPECT_EQ(copies, partitioner.OwnerShard(e.src, 3) ==
                              partitioner.OwnerShard(e.dst, 3)
                          ? 1
                          : 2)
        << "edge " << i;
  }
  EXPECT_EQ(ingest.rejected(), rejected);
  EXPECT_GT(rejected, 4u);
  EXPECT_LT(rejected, stream.size() / 2);
  EXPECT_EQ(ingest.watermark(), graph.watermark());
  for (uint64_t v = 0; v < 40; ++v) {
    const VertexId id = graph.FindVertex(v);
    EXPECT_EQ(ingest.vertex_label(v),
              id == kInvalidVertexId ? kInvalidLabelId : graph.vertex_label(id))
        << "vertex " << v;
  }
}

// A short-window query first, then two long-window queries registered
// mid-stream, fed edge by edge. Every control call must commit the pending
// watermark first: otherwise it sees edges and partial matches one engine
// has already expired, a long-window registration backfills from them and
// finds matches one engine never finds, and Info reports the stale state.
TEST(PartitionTest, ControlCallsSeeOneEnginesWindowMidStream) {
  ClusterFixture cluster(4);
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
    // Before each mid-stream registration, every query registered so far
    // reports one engine's live partial matches and completions.
    if (q > 0 && q < queries.size() && register_before[q] == e) {
      for (size_t r = 0; r < q; ++r) {
        const auto info = cluster.backend->Info(static_cast<int>(r));
        ASSERT_TRUE(info.ok()) << info.status().ToString();
        const QueryRuntimeInfo one = engine.query_info(static_cast<int>(r));
        EXPECT_EQ(info->live_partial_matches, one.live_partial_matches)
            << "query " << r << " before edge " << e;
        EXPECT_EQ(info->completions, one.completions)
            << "query " << r << " before edge " << e;
      }
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

// Query 0 up front and three more registered halfway through a random
// stream fed edge by edge: each late query is backfilled from the window
// its three owners hold between them, and finds one engine's matches.
TEST(PartitionTest, MidStreamRegistrationBackfillsAcrossShards) {
  ClusterFixture cluster(3);
  ASSERT_TRUE(cluster.ok);
  const auto edges = RandomStream(&cluster.interner, 55, 18, 900);
  const auto queries = RandomQueries(&cluster.interner, 21, 4);
  const Timestamp window = 25;
  const size_t split = edges.size() / 2;

  StreamWorksEngine engine(&cluster.interner, EngineOptions{});
  std::vector<MatchSink> expected(queries.size());
  std::vector<MatchSink> actual(queries.size());
  const auto subscribe = [&](size_t i) {
    ASSERT_TRUE(engine
                    .RegisterQuery(queries[i],
                                   DecompositionStrategy::kLeftDeepEdgeOrder,
                                   window, expected[i].Callback())
                    .ok());
    ASSERT_TRUE(cluster.backend
                    ->Register(queries[i],
                               DecompositionStrategy::kLeftDeepEdgeOrder,
                               window, actual[i].Callback())
                    .ok());
  };
  const auto feed = [&](size_t from, size_t to) {
    for (size_t k = from; k < to; ++k) {
      engine.ProcessEdge(edges[k]).ok();  // rejects match cluster admission
      ASSERT_TRUE(cluster.backend->Feed(edges[k]).ok());
    }
  };
  subscribe(0);
  feed(0, split);
  for (size_t i = 1; i < queries.size(); ++i) subscribe(i);
  feed(split, edges.size());
  cluster.backend->Flush();

  size_t late_matches = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(actual[i].Sorted(), expected[i].Sorted()) << "query " << i;
    if (i > 0) late_matches += expected[i].size();
  }
  EXPECT_GT(late_matches, 0u);
  cluster.backend->Stop();
}

// Unregistering one of two queries halfway through leaves both with one
// engine's matches: the removed query's up to the unregister, the other's
// in full. A second Unregister and Info of the removed query fail.
TEST(PartitionTest, UnregisterStopsDeliveryGroupWide) {
  ClusterFixture cluster(4);
  ASSERT_TRUE(cluster.ok);
  const auto edges = RandomStream(&cluster.interner, 31, 15, 600);
  const auto queries = RandomQueries(&cluster.interner, 13, 2);
  const Timestamp window = 20;
  const size_t split = edges.size() / 2;

  StreamWorksEngine engine(&cluster.interner, EngineOptions{});
  std::vector<MatchSink> expected(queries.size());
  std::vector<MatchSink> actual(queries.size());
  std::vector<int> engine_ids;
  std::vector<int> ids;
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto engine_id = engine.RegisterQuery(
        queries[i], DecompositionStrategy::kLeftDeepEdgeOrder, window,
        expected[i].Callback());
    ASSERT_TRUE(engine_id.ok());
    engine_ids.push_back(*engine_id);
    const auto id = cluster.backend->Register(
        queries[i], DecompositionStrategy::kLeftDeepEdgeOrder, window,
        actual[i].Callback());
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  const auto feed = [&](size_t from, size_t to) {
    for (size_t k = from; k < to; ++k) {
      engine.ProcessEdge(edges[k]).ok();  // rejects match cluster admission
      ASSERT_TRUE(cluster.backend->Feed(edges[k]).ok());
    }
  };
  feed(0, split);
  ASSERT_TRUE(engine.UnregisterQuery(engine_ids[0]).ok());
  ASSERT_TRUE(cluster.backend->Unregister(ids[0]).ok());
  EXPECT_FALSE(cluster.backend->Unregister(ids[0]).ok());
  feed(split, edges.size());
  cluster.backend->Flush();

  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(actual[i].Sorted(), expected[i].Sorted()) << "query " << i;
  }
  EXPECT_GT(expected[1].size(), 0u);
  EXPECT_FALSE(cluster.backend->Info(ids[0]).ok());
  const auto info = cluster.backend->Info(ids[1]);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->completions, expected[1].size());
  cluster.backend->Stop();
}

}  // namespace
}  // namespace streamworks
